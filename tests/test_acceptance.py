"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The slow convergence studies (criteria 9 and 10) run the desk-scale
benchmark instances and dominate the suite's runtime.
"""

import math
import sys
import time

import numpy as np
import pytest

from graphdrs.factorization import (
    incidence_decomposition,
    spectral_decomposition,
)
from graphdrs.graphs import (
    BilevelGraph,
    OrderedDigraph,
    algebraic_connectivity,
    complete_digraph,
    connected_subgraphs,
    enumerate_connected_digraphs,
    unbalance,
)
from graphdrs.operators import prox_translated_quadratic
from graphdrs.problems import build_svm, build_transport, objective_svm
from graphdrs.simulate import run_general_protocol, run_tree_protocol
from graphdrs.solver import (
    SolverConfig,
    StepPlan,
    compute_subgradients,
    make_classical_drs,
    make_ryu,
    make_three_op_complete,
    run,
    state_variance,
    step_general,
    step_tree,
    tree_decomposition,
)
from oracles import lifted_ppp_step, lifted_reduce, lifted_resolvent_w, message_stats

rng = np.random.default_rng(2024)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d}: {status} {detail}"
    print(line, file=sys.__stdout__, flush=True)
    # pytest captures file descriptors, so also surface the line in the
    # terminal summary at the end of the run
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {detail}"


def quad_ops(centers, mu=1.0):
    return [prox_translated_quadratic(c, mu) for c in centers]


def test_criterion_01_graph_census():
    t0 = time.time()
    graphs = enumerate_connected_digraphs(4)
    lam = sorted({round(algebraic_connectivity(g), 9) for g in graphs})
    expected = sorted({round(v, 9) for v in (2 - math.sqrt(2), 1.0, 2.0, 4.0)})
    ok = len(graphs) == 38 and lam == expected and time.time() - t0 < 1.0
    report(1, ok, f"count={len(graphs)} lambda1={lam}")


def test_criterion_02_classical_drs():
    t0 = time.time()
    bg = make_classical_drs()
    c1, c2 = np.array([1.0, -3.0]), np.array([5.0, 7.0])
    sigma, theta = 1.3, 1.0
    ops = quad_ops([c1, c2])
    plan = StepPlan(bg, ops, tree_decomposition(bg))
    w_ref = np.zeros(2)
    w = np.zeros((1, 2))
    max_dev = 0.0
    for k in range(1000):
        # hand-coded DRS with closed-form resolvent J(r) = (r + s c)/(1 + s)
        x1 = (1.0 * (1.0 * w_ref) + sigma * c1) / (1.0 + sigma)
        x2 = (2.0 * x1 + 1.0 * (-1.0 * w_ref) + sigma * c2) / (1.0 + sigma)
        w_ref = w_ref + theta * (x2 - x1)
        x, w, _ = step_general(plan, sigma, theta, w, k)
        max_dev = max(max_dev, float(np.abs(x - np.array([x1, x2])).max()))
    ok = max_dev <= 1e-12 and time.time() - t0 < 1.0
    report(2, ok, f"max_dev={max_dev:.3g}")


def test_criterion_03_golden_special_cases():
    t0 = time.time()
    # Ryu splitting, 3 operators
    bg = make_ryu(3)
    centers = [rng.standard_normal(2) for _ in range(3)]
    sigma, theta = 0.8, 1.0
    ops = quad_ops(centers)

    def j(i, r, tau):
        return (r + tau * centers[i]) / (1.0 + tau)

    plan = StepPlan(bg, ops, tree_decomposition(bg))
    w_ref = [np.zeros(2), np.zeros(2)]
    w = np.zeros((2, 2))
    dev_ryu = 0.0
    for k in range(200):
        x1 = j(0, 0.5 * w_ref[0], sigma / 2)
        x2 = j(1, x1 + 0.5 * w_ref[1], sigma / 2)
        x3 = j(2, x1 + x2 - 0.5 * (w_ref[0] + w_ref[1]), sigma / 2)
        w_ref = [w_ref[0] + theta * (x3 - x1), w_ref[1] + theta * (x3 - x2)]
        x, w, _ = step_general(plan, sigma, theta, w, k)
        dev_ryu = max(dev_ryu, float(np.abs(x - np.array([x1, x2, x3])).max()))
        dev_ryu = max(dev_ryu, float(np.abs(w - np.array(w_ref)).max()))

    # three operators, complete base, fixed factorization and rescaled duals
    bg3, decomp = make_three_op_complete()
    plan3 = StepPlan(bg3, ops, decomp)
    wt1 = np.zeros(2)
    wt2 = np.zeros(2)
    w = np.zeros((2, 2))
    dev3 = 0.0
    for k in range(200):
        x1 = j(0, 0.5 * wt1, sigma / 2)
        x2 = j(1, x1 + 0.75 * wt2 - 0.25 * wt1, sigma / 2)
        x3 = j(2, x1 + x2 - 0.75 * wt2 - 0.25 * wt1, sigma / 2)
        wt1 = wt1 - theta * (2 * x1 - x2 - x3)
        wt2 = wt2 - theta * (x2 - x3)
        x, w, _ = step_general(plan3, sigma, theta, w, k)
        dev3 = max(dev3, float(np.abs(x - np.array([x1, x2, x3])).max()))
        dev3 = max(dev3, float(np.abs(math.sqrt(2.0) * w[0] - wt1).max()))
        dev3 = max(dev3, float(np.abs(math.sqrt(2.0 / 3.0) * w[1] - wt2).max()))
    ok = dev_ryu <= 1e-12 and dev3 <= 1e-12 and time.time() - t0 < 1.0
    report(3, ok, f"dev_ryu={dev_ryu:.3g} dev_three_op={dev3:.3g}")


def test_criterion_04_lifted_reduction():
    t0 = time.time()
    worst_track = 0.0
    worst_ident = 0.0
    for n in (3, 4, 5):
        g = complete_digraph(n)
        bg = BilevelGraph(g, g)
        decomp = spectral_decomposition(g)
        terms = [(mu, rng.standard_normal(3)) for mu in rng.uniform(0.5, 2.0, size=n)]
        ops = [prox_translated_quadratic(c, mu) for mu, c in terms]
        cfg = SolverConfig(sigma=1.2, theta=1.3)
        plan = StepPlan(bg, ops, decomp)
        u = np.zeros((2 * n - 1, 3))
        w = np.zeros((n - 1, 3))
        for k in range(50):
            u = lifted_ppp_step(bg, decomp, terms, cfg.sigma, cfg.theta_at(k), u)
            _, w, _ = step_general(plan, cfg.sigma, cfg.theta_at(k), w, k)
            worst_track = max(
                worst_track, float(np.abs(lifted_reduce(decomp, u) - w).max())
            )
        for _ in range(20):
            wr = rng.standard_normal((n - 1, 3))
            reduced = lifted_resolvent_w(bg, decomp, terms, cfg.sigma, wr)
            _, w_new, _ = step_general(plan, cfg.sigma, 1.0, wr, 0)
            worst_ident = max(worst_ident, float(np.abs(reduced - w_new).max()))
    ok = worst_track < 1e-9 and worst_ident < 1e-9 and time.time() - t0 < 5.0
    report(4, ok, f"reduction_dev={worst_track:.3g} identity_dev={worst_ident:.3g}")


def test_criterion_05_inequality_chain():
    t0 = time.time()
    centers = [rng.standard_normal(2) for _ in range(4)]
    ops = quad_ops(centers)
    worst_slack = 0.0
    pairs = 0
    for g in enumerate_connected_digraphs(4):
        u = unbalance(g)
        for base in connected_subgraphs(g):
            bg = BilevelGraph(g, base)
            lam1 = algebraic_connectivity(base)
            decomp = spectral_decomposition(base)
            pairs += 1
            for sigma in (0.5, 2.0):
                cfg = SolverConfig(sigma=sigma, max_iter=30)
                _, traces = run(bg, decomp, ops, cfg)
                for rec in traces:
                    left = (sigma**2 / 16.0) * rec.subgrad_sum_norm**2
                    mid = u**2 * rec.variance
                    right = (u**2 / (lam1 * 4.0)) * rec.residual_sq
                    # the middle bound is tight for complete base graphs, so
                    # near convergence the terms agree to rounding noise;
                    # floor the relative scale well above that noise level
                    scale = max(left, mid, right, 1e-12)
                    worst_slack = max(
                        worst_slack, (left - mid) / scale, (mid - right) / scale
                    )
    ok = worst_slack <= 1e-8 and time.time() - t0 < 30.0
    report(5, ok, f"pairs={pairs} worst_violation={worst_slack:.3g}")


def test_criterion_06_decomposition_independence():
    t0 = time.time()
    centers = [rng.standard_normal(2) for _ in range(4)]
    ops = quad_ops(centers)
    # incidence vs spectral on a tree base
    base = OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)])
    bg = BilevelGraph(complete_digraph(4), base)
    p1 = StepPlan(bg, ops, incidence_decomposition(base))
    p2 = StepPlan(bg, ops, spectral_decomposition(base))
    # Z vs Z Q for random orthogonal Q on a complete base
    g = complete_digraph(4)
    bgc = BilevelGraph(g, g)
    z = spectral_decomposition(g)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    p3, p4 = StepPlan(bgc, ops, z), StepPlan(bgc, ops, z @ q)
    w1 = w2 = w3 = w4 = np.zeros((3, 2))
    dev = 0.0
    for k in range(100):
        x1, w1, _ = step_general(p1, 1.0, 1.0, w1, k)
        x2, w2, _ = step_general(p2, 1.0, 1.0, w2, k)
        x3, w3, _ = step_general(p3, 1.0, 1.0, w3, k)
        x4, w4, _ = step_general(p4, 1.0, 1.0, w4, k)
        dev = max(dev, float(np.abs(x1 - x2).max()), float(np.abs(x3 - x4).max()))
    ok = dev <= 1e-9 and time.time() - t0 < 5.0
    report(6, ok, f"max_x_dev={dev:.3g}")


def test_criterion_07_distributed_equivalence():
    t0 = time.time()
    _, ops, bg = build_svm(50, 5, 10)
    cfg = SolverConfig(sigma=1.0)
    rounds = 50
    e, ep = bg.state.n_edges, bg.base.n_edges

    res_tree = run_tree_protocol(bg, ops, cfg, rounds=rounds)
    w = np.zeros((ep, 50))
    dev_tree = 0.0
    for rnd in range(rounds):
        x, w = step_tree(bg, ops, cfg.sigma, cfg.theta_at(rnd), w, rnd)
        if not np.array_equal(res_tree.x_history[rnd], x):
            dev_tree = max(
                dev_tree, float(np.abs(res_tree.x_history[rnd] - x).max())
            )
    stats_tree = message_stats(res_tree.log)
    counts_tree_ok = all(
        stats_tree["per_round"][r] == e + ep for r in range(1, rounds + 1)
    )

    res_gen = run_general_protocol(bg, ops, cfg, rounds=rounds)
    plan, wt = StepPlan(bg, ops), np.zeros((bg.n_nodes, 50))
    dev_gen = 0.0
    for rnd in range(rounds):
        x, wt, _ = step_general(plan, cfg.sigma, cfg.theta_at(rnd), wt, rnd)
        if not np.array_equal(res_gen.x_history[rnd], x):
            dev_gen = max(dev_gen, float(np.abs(res_gen.x_history[rnd] - x).max()))
    stats_gen = message_stats(res_gen.log)
    counts_gen_ok = all(
        stats_gen["per_round"][r] == e + ep for r in range(1, rounds + 1)
    )

    ok = (
        dev_tree == 0.0
        and dev_gen == 0.0
        and counts_tree_ok
        and counts_gen_ok
        and time.time() - t0 < 10.0
    )
    report(
        7, ok,
        f"dev_tree={dev_tree} dev_general={dev_gen} msgs/round={e + ep}",
    )


def test_criterion_08_consensus_all_graphs():
    t0 = time.time()
    centers = np.array([[1.0, 2.0], [-3.0, 0.5], [4.0, -1.0], [0.0, 2.5]])
    target = centers.mean(axis=0)
    ops = quad_ops(list(centers))
    sigma = 1.0
    failures = []
    worst_bound = 0.0
    for gid, g in enumerate(enumerate_connected_digraphs(4), start=1):
        bg = BilevelGraph(g, g)
        decomp = spectral_decomposition(g)
        plan = StepPlan(bg, ops, decomp)
        u = unbalance(g)
        w = np.zeros((3, 2))
        converged_at = None
        for k in range(5000):
            w_prev = w
            x, w, _ = step_general(plan, sigma, 1.0, w_prev, k)
            if np.abs(x - target).max() < 1e-8:
                converged_at = k + 1
                break
        if converged_at is None:
            failures.append(gid)
            continue
        a = compute_subgradients(bg, decomp, sigma, w_prev, x)
        left = (sigma / 4.0) * np.linalg.norm(a.sum(axis=0))
        right = u * math.sqrt(state_variance(x))
        scale = max(left, right, 1e-30)
        worst_bound = max(worst_bound, (left - right) / scale)
    ok = not failures and worst_bound <= 1e-8 and time.time() - t0 < 30.0
    report(8, ok, f"unconverged={failures} worst_bound_violation={worst_bound:.3g}")


def test_criterion_09_connectivity_trend():
    t0 = time.time()
    inst, ops = build_transport(35, cap=5e-2)
    dim = 2 * 35 * 35
    cap_iter = 12000
    hits = {}
    for g in enumerate_connected_digraphs(4):
        bg = BilevelGraph(g, g)
        lam1 = round(algebraic_connectivity(g), 6)
        decomp = spectral_decomposition(g)
        plan = StepPlan(bg, ops, decomp)
        w = np.zeros((3, dim))
        hit = cap_iter
        for k in range(cap_iter):
            x, w, _ = step_general(plan, 2.0, 1.0, w, k)
            if state_variance(x) < 1e-6:
                hit = k + 1
                break
        hits.setdefault(lam1, []).append(hit)
    medians = {lam: float(np.median(v)) for lam, v in sorted(hits.items())}
    vals = [medians[lam] for lam in sorted(medians)]
    monotone = all(a >= b for a, b in zip(vals, vals[1:]))
    elapsed = time.time() - t0
    ok = monotone and elapsed < 600.0
    report(9, ok, f"median_iters_by_lambda1={medians} elapsed={elapsed:.0f}s")


def test_criterion_10_svm_desk_run():
    t0 = time.time()
    inst, ops, bg = build_svm(50, 5, 10)
    decomp = tree_decomposition(bg)
    obj_at_zero = objective_svm(inst, np.zeros(50))
    best = None
    for sigma in np.logspace(-2, 1, 10):
        plan = StepPlan(bg, ops, decomp)
        w = np.zeros((54, 50))
        hit = None
        x = np.zeros((55, 50))
        for k in range(2000):
            x, w, _ = step_general(plan, float(sigma), 1.0, w, k)
            if hit is None and state_variance(x) <= 1e-2:
                hit = k + 1
            if state_variance(x) <= 1e-8:
                break
        obj = objective_svm(inst, x.mean(axis=0))
        # a tiny step size parks the iterates near zero, which has low
        # variance without solving anything; require real progress too
        if hit is not None and obj < 0.5 * obj_at_zero:
            if best is None or hit < best[1]:
                best = (float(sigma), hit, round(obj, 3))
    elapsed = time.time() - t0
    ok = best is not None and elapsed < 300.0
    report(10, ok, f"best_sigma_hit_obj={best} elapsed={elapsed:.0f}s")


def test_criterion_11_operator_unit_suite():
    t0 = time.time()
    from graphdrs.operators import (
        project_affine,
        project_capacity,
        prox_group_l1,
        prox_hinge_affine,
        prox_power_three_halves,
        prox_quadratic,
        zero_operator,
    )

    dim = 6
    local = np.random.default_rng(77)
    lam = local.standard_normal((2, dim))
    b = lam @ local.standard_normal(dim)
    catalog = [
        prox_quadratic(np.eye(dim) + 0.1 * np.ones((dim, dim)), 0.5),
        prox_hinge_affine(local.standard_normal(dim), 1.0),
        prox_power_three_halves(dim),
        prox_group_l1(dim),
        project_affine(lam, b),
        project_capacity([0], [1], 0.3, dim),
        prox_translated_quadratic(local.standard_normal(dim), 2.0),
        zero_operator(dim),
    ]
    worst = -np.inf
    for op in catalog:
        for tau in (0.1, 1.0, 10.0):
            x = local.standard_normal((1000, dim)) * 3
            y = local.standard_normal((1000, dim)) * 3
            for xi, yi in zip(x, y):
                jx, jy = op(tau, xi), op(tau, yi)
                lhs = float(np.sum((jx - jy) ** 2))
                rhs = float((jx - jy) @ (xi - yi))
                worst = max(worst, lhs - rhs)
    # spot-check closed forms against the frozen oracle values
    p32 = prox_power_three_halves(2)
    closed_ok = (
        np.abs(
            p32(1.0, np.array([3.0, 4.0]))
            - [1.5523542452872641, 2.0698056603830189]
        ).max()
        < 1e-9
    )
    gl1_ok = (
        np.abs(prox_group_l1(2)(1.0, np.array([3.0, 4.0])) - [2.4, 3.2]).max()
        < 1e-12
    )
    ok = worst <= 1e-9 and closed_ok and gl1_ok and time.time() - t0 < 10.0
    report(11, ok, f"worst_firmness_violation={worst:.3g}")
