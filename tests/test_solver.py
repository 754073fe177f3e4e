import math
import re
import tracemalloc

import numpy as np
import pytest

from graphdrs._compiled import load
from graphdrs.cli import _row
from graphdrs.factorization import (
    external_decomposition,
    incidence_decomposition,
    spectral_decomposition,
)
from graphdrs.graphs import (
    BilevelGraph,
    OrderedDigraph,
    algebraic_connectivity,
    complete_digraph,
    laplacian,
    unbalance,
)
from graphdrs.operators import (
    Resolvent,
    prox_hinge_affine,
    prox_translated_quadratic,
    zero_operator,
)
from graphdrs.problems import build_svm, build_transport
from graphdrs.solver import (
    NumericalError,
    SolverConfig,
    StepPlan,
    compute_subgradients,
    make_classical_drs,
    make_malitsky_tam,
    make_ryu,
    make_three_op_complete,
    node_solution,
    run,
    state_variance,
    step_general,
    step_tree,
    tree_decomposition,
)
from oracles import (
    lifted_ppp_step,
    lifted_reduce,
    lifted_resolvent_w,
    malitsky_tam_step,
    reference_sweep,
    same_bits,
)

rng = np.random.default_rng(42)


def quad_ops(centers, mu=1.0):
    return [prox_translated_quadratic(c, mu) for c in centers]


# ---------------------------------------------------------------------------
# configuration checks


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma=1.0, theta=2.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma=1.0, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(sigma=1.0, tol=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"sigma": 1.0, "tol": float("nan")},
        {"sigma": 1.0, "tol": float("inf")},
    ],
)
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("max_iter", [2.5, "10", None, True])
def test_config_rejects_non_integer_max_iter(max_iter):
    expected = re.escape(f"max_iter must be a positive integer, got {max_iter!r}")
    with pytest.raises(ValueError, match=expected):
        SolverConfig(sigma=1.0, max_iter=max_iter)


def test_config_accepts_numpy_integer_max_iter():
    assert SolverConfig(sigma=1.0, max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"sigma": "1"}, "sigma"),
        ({"sigma": True}, "sigma"),
        ({"sigma": 1.0, "tol": "0"}, "tol"),
        ({"sigma": 1.0, "theta": None}, "theta"),
        ({"sigma": 1.0, "theta": True}, "theta"),
        ({"sigma": 1.0, "theta": "1"}, "theta"),
    ],
)
def test_config_rejects_non_real_values(kwargs, name):
    expected = re.escape(f"{name} must be a real number, got {kwargs[name]!r}")
    with pytest.raises(ValueError, match=expected):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("theta", [math.nan, 0.0, 2.0, -1.0, math.inf, np.float64(2.5)])
def test_constant_relaxation_out_of_range_names_theta_and_its_value(theta):
    # the message named neither theta nor its value
    message = f"constant relaxation theta must lie in (0, 2), got {theta}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverConfig(sigma=1.0, theta=theta)


@pytest.mark.parametrize("make", [make_ryu, make_malitsky_tam])
@pytest.mark.parametrize("n", [3.0, 4.5, math.nan, True, "4", None])
def test_named_graphs_need_an_integer_node_count(make, n):
    # a float raised a bare TypeError, True read as 1 ("need n >= 3")
    message = f"n must be an integer, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(n)
    assert make(np.int64(4)).n_nodes == 4


def test_config_accepts_numpy_floats():
    cfg = SolverConfig(sigma=np.float64(0.5), theta=np.float32(1.5), tol=np.float64(0))
    assert (cfg.sigma, cfg.theta_at(0), cfg.tol) == (0.5, 1.5, 0.0)


def test_theta_schedule_rejects_nan():
    cfg = SolverConfig(sigma=1.0, theta=lambda k: math.nan if k == 3 else 1.0)
    assert cfg.theta_at(2) == 1.0
    with pytest.raises(ValueError, match=r"theta\(3\) = nan"):
        cfg.theta_at(3)
    # infinite values are clamped into (0, 2) as before
    assert SolverConfig(sigma=1.0, theta=lambda k: math.inf).theta_at(0) < 2.0


def test_theta_schedule_clamped():
    cfg = SolverConfig(sigma=1.0, theta=lambda k: 5.0 if k == 0 else -1.0)
    assert cfg.theta_at(0) == pytest.approx(2.0 - 1e-3)
    assert cfg.theta_at(1) == pytest.approx(1e-3)
    assert SolverConfig(sigma=1.0, theta=0.5).theta_at(9) == 0.5


# ---------------------------------------------------------------------------
# classical DRS cross-check (independent hand-coded loop)


def test_classical_drs_bitwise():
    bg = make_classical_drs()
    c1 = np.array([1.0, -3.0])
    c2 = np.array([5.0, 7.0])
    sigma, theta = 1.3, 1.0
    ops = quad_ops([c1, c2])
    decomp = tree_decomposition(bg)

    # hand-coded Douglas-Rachford with the closed-form resolvent
    # J(r) = (r + sigma*c)/(1 + sigma)
    w_ref = np.zeros(2)
    xs_ref = []
    for _ in range(1000):
        x1 = (1.0 * (1.0 * w_ref) + sigma * c1) / (1.0 + sigma)
        x2 = (2.0 * x1 + 1.0 * (-1.0 * w_ref) + sigma * c2) / (1.0 + sigma)
        w_ref = w_ref + theta * (x2 - x1)
        xs_ref.append((x1, x2))

    plan = StepPlan(bg, ops, decomp)
    w = np.zeros((1, 2))
    for k in range(1000):
        x, w, _ = step_general(plan, sigma, theta, w, k)
        assert np.abs(x[0] - xs_ref[k][0]).max() < 1e-12
        assert np.abs(x[1] - xs_ref[k][1]).max() < 1e-12
    assert np.abs(w[0] - w_ref).max() < 1e-12


def test_classical_drs_fixed_point():
    # two quadratics: solution of 0 = (x - c1) + (x - c2) is the midpoint
    bg = make_classical_drs()
    c1, c2 = np.array([0.0, 2.0]), np.array([4.0, -2.0])
    st, _ = run(
        bg, tree_decomposition(bg), quad_ops([c1, c2]),
        SolverConfig(sigma=1.0, max_iter=2000),
    )
    assert np.abs(st.x - (c1 + c2) / 2).max() < 1e-10


# ---------------------------------------------------------------------------
# golden special cases


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ryu_transcription(n):
    bg = make_ryu(n)
    centers = [rng.standard_normal(2) for _ in range(n)]
    sigma, theta = 0.8, 1.0
    ops = quad_ops(centers)

    def j(i, r):
        tau = sigma / (n - 1)
        return (r + tau * centers[i]) / (1.0 + tau)

    w_ref = [np.zeros(2) for _ in range(n - 1)]
    plan = StepPlan(bg, ops, tree_decomposition(bg))
    w = np.zeros((n - 1, 2))
    for k in range(200):
        x_ref = [None] * n
        for i in range(n - 1):
            x_ref[i] = j(
                i,
                (2.0 / (n - 1)) * sum((x_ref[h] for h in range(i)), np.zeros(2))
                + (1.0 / (n - 1)) * w_ref[i],
            )
        x_ref[n - 1] = j(
            n - 1,
            (2.0 / (n - 1)) * sum((x_ref[h] for h in range(n - 1)), np.zeros(2))
            - (1.0 / (n - 1)) * sum(w_ref, np.zeros(2)),
        )
        w_ref = [
            w_ref[i] + theta * (x_ref[n - 1] - x_ref[i]) for i in range(n - 1)
        ]
        x, w, _ = step_general(plan, sigma, theta, w, k)
        assert np.abs(x - np.array(x_ref)).max() < 1e-12
        assert np.abs(w - np.array(w_ref)).max() < 1e-12


def test_three_op_complete_transcription():
    bg, decomp = make_three_op_complete()
    centers = [rng.standard_normal(2) for _ in range(3)]
    sigma, theta = 1.1, 1.0
    ops = quad_ops(centers)

    def j(i, r):
        tau = sigma / 2.0
        return (r + tau * centers[i]) / (1.0 + tau)

    wt1 = np.zeros(2)
    wt2 = np.zeros(2)
    plan = StepPlan(bg, ops, decomp)
    w = np.zeros((2, 2))
    for k in range(200):
        x1 = j(0, 0.5 * wt1)
        x2 = j(1, x1 + 0.75 * wt2 - 0.25 * wt1)
        x3 = j(2, x1 + x2 - 0.75 * wt2 - 0.25 * wt1)
        wt1 = wt1 - theta * (2 * x1 - x2 - x3)
        wt2 = wt2 - theta * (x2 - x3)
        x, w, _ = step_general(plan, sigma, theta, w, k)
        assert np.abs(x - np.array([x1, x2, x3])).max() < 1e-12
        # rescaled duals: wt1 = sqrt(2) w1, wt2 = sqrt(2/3) w2
        assert np.abs(math.sqrt(2.0) * w[0] - wt1).max() < 1e-12
        assert np.abs(math.sqrt(2.0 / 3.0) * w[1] - wt2).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_malitsky_tam_transcription(n):
    # with every state degree 2 and the chain's incidence Z, the graph step is
    # their splitting with z = w / 2, gamma = sigma / 2 and lam = theta / 2
    bg = make_malitsky_tam(n)
    sigma, theta = 0.9, 1.3
    ops = [prox_translated_quadratic(rng.standard_normal(3), mu)
           for mu in rng.uniform(0.5, 2.0, size=n - 1)]
    ops.insert(1, prox_hinge_affine(rng.standard_normal(3), 0.5))
    plan = StepPlan(bg, ops, tree_decomposition(bg))
    assert plan.degrees == [2] * n
    z, w = np.zeros((n - 1, 3)), np.zeros((n - 1, 3))
    for k in range(200):
        x_ref, z = malitsky_tam_step(ops, sigma / 2, theta / 2, z)
        x, w, _ = step_general(plan, sigma, theta, w, k)
        assert np.abs(x - x_ref).max() < 1e-12
        assert np.abs(w / 2 - z).max() < 1e-12


def test_malitsky_tam_runs_to_consensus():
    bg = make_malitsky_tam(4)
    centers = [rng.standard_normal(3) for _ in range(4)]
    st, _ = run(
        bg, tree_decomposition(bg), quad_ops(centers),
        SolverConfig(sigma=1.0, max_iter=3000),
    )
    assert np.abs(st.x - np.mean(centers, axis=0)).max() < 1e-8


# ---------------------------------------------------------------------------
# formulation equivalences


def test_tree_step_matches_general_bitwise():
    bg = BilevelGraph(complete_digraph(4), OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)]))
    ops = quad_ops([rng.standard_normal(2) for _ in range(4)])
    plan = StepPlan(bg, ops, incidence_decomposition(bg.base))
    w = np.zeros((3, 2))
    we = np.zeros((3, 2))
    for k in range(100):
        xg, w, _ = step_general(plan, 1.0, 1.0, w, k)
        xt, we = step_tree(bg, ops, 1.0, 1.0, we, k)
        assert np.array_equal(xg, xt)
        assert np.array_equal(w, we)


def test_wtilde_matches_general():
    # non-tree base: complete base graph on 4 nodes
    g = complete_digraph(4)
    bg = BilevelGraph(g, g)
    ops = quad_ops([rng.standard_normal(2) for _ in range(4)])
    decomp = spectral_decomposition(g)
    plan, node_local = StepPlan(bg, ops, decomp), StepPlan(bg, ops)
    w = np.zeros((3, 2))
    wt = np.zeros((4, 2))
    for k in range(100):
        xg, w, _ = step_general(plan, 1.0, 1.0, w, k)
        xw, wt, _ = step_general(node_local, 1.0, 1.0, wt, k)
        assert np.abs(xg - xw).max() < 1e-10
        # wt tracks Z w
        assert np.abs(wt - decomp @ w).max() < 1e-10


@pytest.mark.parametrize(
    "shape, dim",
    [((4, 2), 2), ((2, 2), 2), ((3, 3), 2), ((3,), 2), ((), 2), ((3, 2), 3)],
)
def test_run_rejects_wrong_shape_w0(shape, dim):
    bg = make_malitsky_tam(4)
    ops = quad_ops([np.zeros(dim)] * 4)
    expected = re.escape(f"w0 must have shape (N-1, dim) = (3, {dim}), got {shape}")
    with pytest.raises(ValueError, match=expected):
        run(bg, tree_decomposition(bg), ops, SolverConfig(sigma=1.0, max_iter=2),
            w0=np.zeros(shape))


@pytest.mark.parametrize("shape", [(3, 2), (5, 2), (4, 3)])
def test_run_wtilde_rejects_wrong_shape_wt0(shape):
    bg = make_malitsky_tam(4)
    ops = quad_ops([np.zeros(2)] * 4)
    expected = re.escape(f"w0 must have shape (N, dim) = (4, 2), got {shape}")
    with pytest.raises(ValueError, match=expected):
        run(bg, None, ops, SolverConfig(sigma=1.0, max_iter=2), w0=np.zeros(shape))


def test_wtilde_rejects_nonzero_sum():
    g = complete_digraph(3)
    bg = BilevelGraph(g, g)
    ops = quad_ops([np.zeros(2)] * 3)
    cfg = SolverConfig(sigma=1.0, max_iter=1)
    wt0 = np.array([[1.0, 2.0], [-0.5, -1.0], [-0.5, -1.0]])
    run(bg, None, ops, cfg, w0=wt0)  # sums to zero exactly
    wt0[0, 0] += 1e-6
    with pytest.raises(ValueError, match="sum to zero"):
        run(bg, None, ops, cfg, w0=wt0)


def test_run_wtilde_rejects_nonzero_sum_before_any_sweep():
    g = complete_digraph(3)
    bg = BilevelGraph(g, g)
    calls = []
    ops = [Resolvent(2, lambda tau, r, out: calls.append(tau))] * 3
    with pytest.raises(ValueError, match="sum to zero"):
        run(bg, None, ops, SolverConfig(sigma=1.0, max_iter=3), w0=np.ones((3, 2)))
    assert calls == []


def test_decomposition_independence_orthogonal():
    g = complete_digraph(4)
    bg = BilevelGraph(g, g)
    ops = quad_ops([rng.standard_normal(2) for _ in range(4)])
    z = spectral_decomposition(g)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    p1, p2 = StepPlan(bg, ops, z), StepPlan(bg, ops, z @ q)
    w1, w2 = np.zeros((3, 2)), np.zeros((3, 2))
    for k in range(100):
        x1, w1, _ = step_general(p1, 1.0, 1.0, w1, k)
        x2, w2, _ = step_general(p2, 1.0, 1.0, w2, k)
        assert np.abs(x1 - x2).max() < 1e-9


def test_decomposition_independence_incidence_vs_spectral():
    base = OrderedDigraph(4, [(0, 1), (1, 2), (2, 3)])
    bg = BilevelGraph(complete_digraph(4), base)
    ops = quad_ops([rng.standard_normal(2) for _ in range(4)])
    p1 = StepPlan(bg, ops, incidence_decomposition(base))
    p2 = StepPlan(bg, ops, spectral_decomposition(base))
    w1, w2 = np.zeros((3, 2)), np.zeros((3, 2))
    for k in range(100):
        x1, w1, _ = step_general(p1, 1.0, 1.0, w1, k)
        x2, w2, _ = step_general(p2, 1.0, 1.0, w2, k)
        assert np.abs(x1 - x2).max() < 1e-9


# ---------------------------------------------------------------------------
# lifted iteration


def affine_terms(n, dim):
    return [(mu, rng.standard_normal(dim)) for mu in rng.uniform(0.5, 2.0, size=n)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lifted_reduction_tracks_w(n):
    g = complete_digraph(n)
    bg = BilevelGraph(g, g)
    decomp = spectral_decomposition(g)
    terms = affine_terms(n, 3)
    cfg = SolverConfig(sigma=1.2, theta=1.3)
    plan = StepPlan(bg, [prox_translated_quadratic(c, mu) for mu, c in terms], decomp)
    u = np.zeros((2 * n - 1, 3))
    w = np.zeros((n - 1, 3))
    for k in range(50):
        u = lifted_ppp_step(bg, decomp, terms, cfg.sigma, cfg.theta_at(k), u)
        _, w, _ = step_general(plan, cfg.sigma, cfg.theta_at(k), w, k)
        assert np.abs(lifted_reduce(decomp, u) - w).max() < 1e-9


def test_lifted_resolvent_identity():
    g = complete_digraph(4)
    bg = BilevelGraph(g, g)
    decomp = spectral_decomposition(g)
    terms = affine_terms(4, 2)
    plan = StepPlan(bg, [prox_translated_quadratic(c, mu) for mu, c in terms], decomp)
    for _ in range(20):
        w = rng.standard_normal((3, 2))
        reduced = lifted_resolvent_w(bg, decomp, terms, 1.0, w)
        _, w_new, _ = step_general(plan, 1.0, 1.0, w, 0)
        assert np.abs(reduced - w_new).max() < 1e-9


# ---------------------------------------------------------------------------
# diagnostics and traces


def test_subgradients_match_affine_operators():
    g = complete_digraph(4)
    base = OrderedDigraph(4, [(0, 1), (1, 2), (2, 3)])
    bg = BilevelGraph(g, base)
    centers = [rng.standard_normal(2) for _ in range(4)]
    mus = [1.0, 2.0, 0.5, 1.5]
    ops = [prox_translated_quadratic(c, m) for c, m in zip(centers, mus)]
    decomp = spectral_decomposition(base)
    plan = StepPlan(bg, ops, decomp)
    w = rng.standard_normal((3, 2)) * 0.1
    x, _, _ = step_general(plan, 1.3, 1.0, w, 0)
    a = compute_subgradients(bg, decomp, 1.3, w, x)
    expected = np.array([m * (xi - c) for m, xi, c in zip(mus, x, centers)])
    assert np.abs(a - expected).max() < 1e-10


def test_variance_and_residual_chain_sample():
    # both bounds of the diagnostic chain on one concrete run
    g = complete_digraph(4)
    base = OrderedDigraph(4, [(0, 1), (0, 2), (0, 3)])
    bg = BilevelGraph(g, base)
    ops = quad_ops([rng.standard_normal(2) for _ in range(4)])
    cfg = SolverConfig(sigma=2.0, max_iter=50)
    _, traces = run(bg, spectral_decomposition(base), ops, cfg)
    u = unbalance(g)
    lam1 = algebraic_connectivity(base)
    n = 4
    for rec in traces:
        left = (cfg.sigma**2 / n**2) * rec.subgrad_sum_norm**2
        mid = u**2 * rec.variance
        right = (u**2 / (lam1 * n)) * rec.residual_sq
        scale = max(right, 1e-30)
        assert left <= mid + 1e-8 * scale
        assert mid <= right + 1e-8 * scale


def test_residual_tol_stops_early():
    bg = make_classical_drs()
    ops = quad_ops([np.array([1.0]), np.array([3.0])])
    cfg = SolverConfig(sigma=1.0, max_iter=5000, tol=1e-20)
    st, traces = run(bg, tree_decomposition(bg), ops, cfg)
    assert st.k < 5000
    assert traces[-1].residual_sq < 1e-20


def test_residual_tol_stops_strictly_below():
    # a sweep whose residual equals tol does not stop the run
    bg = make_classical_drs()
    ops = quad_ops([np.array([1.0]), np.array([3.0])])
    _, traces = run(bg, tree_decomposition(bg), ops, SolverConfig(sigma=1.0, max_iter=8))
    residuals = [rec.residual_sq for rec in traces]
    assert all(a > b > 0 for a, b in zip(residuals, residuals[1:]))
    cfg = SolverConfig(sigma=1.0, max_iter=8, tol=residuals[4])
    st, traces = run(bg, tree_decomposition(bg), ops, cfg)
    assert st.k == 6 and traces[-1].residual_sq == residuals[5]


def test_svm_sigma_sweep_factors_each_official_once_per_sigma(monkeypatch):
    # the 10 sigmas of `graphdrs svm`, swept twice on one set of resolvents:
    # every official's factors for all ten stay cached for the second sweep
    calls = []
    lapack = load("scipy.linalg._flapack")
    potrf = lapack.dpotrf
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **kw: calls.append(1) or potrf(*a, **kw))
    _, ops, bg = build_svm(50, 5, 10)
    z = incidence_decomposition(bg.base)
    for _ in range(2):
        for sigma in np.logspace(-2, 1, 10):
            run(bg, z, ops, SolverConfig(sigma=float(sigma), max_iter=1))
        assert len(calls) == 5 * 10  # 5 officials, one factor per sigma each


def test_nonfinite_raises():
    bg = make_classical_drs()

    def blowup(tau, r, out):
        out.fill(np.inf)

    ops = [Resolvent(1, blowup), zero_operator(1)]
    with pytest.raises(NumericalError):
        run(bg, tree_decomposition(bg), ops, SolverConfig(sigma=1.0, max_iter=5))


def test_nonfinite_names_node_and_operator():
    bg = make_malitsky_tam(3)
    ops = [
        prox_translated_quadratic(np.ones(2)),
        Resolvent(2, lambda tau, r, out: out.fill(np.inf), name="blowup"),
        prox_translated_quadratic(np.zeros(2)),
    ]
    cfg = SolverConfig(sigma=1.0, max_iter=5)
    with pytest.raises(NumericalError, match="iteration 0: node 1 .*'blowup'"):
        run(bg, tree_decomposition(bg), ops, cfg)
    with pytest.raises(NumericalError, match="node 1 .*'blowup'"):
        run(bg, None, ops, cfg)
    with pytest.raises(NumericalError, match="node 1 .*'blowup'"):
        step_tree(bg, ops, 1.0, 1.0, np.zeros((2, 2)))


def star_of_hinges(n_leaves, dim):
    """Node 0, a translated quadratic, feeding hinge leaves that share one level."""
    g = OrderedDigraph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])
    ops = [prox_translated_quadratic(rng.standard_normal(dim))] + [
        prox_hinge_affine(rng.standard_normal(dim), 0.5) for _ in range(n_leaves)
    ]
    return BilevelGraph(g, g), ops


def test_nonfinite_in_batched_level_names_first_bad_hinge():
    bg, ops = star_of_hinges(4, dim=3)
    # Z whose dual i enters leaf i + 1 alone, so a bad dual reaches one hinge
    plan = StepPlan(bg, ops, np.vstack([np.zeros((1, 4)), np.eye(4)]))
    assert plan.schedule[1][1] is not None  # the leaves are one stacked call
    w = np.zeros((4, 3))
    w[1, 0], w[3, 2] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="iteration 7: node 2 .*'hinge'"):
            step_general(plan, 1.0, 1.0, w, 7)


def test_nonfinite_names_the_lowest_bad_node_not_the_first_solved():
    _, ops, bg = build_svm(50, 5, 10)
    plan = StepPlan(bg, ops)
    assert plan.levels[1] == [11] and 1 in plan.levels[-1]
    w = np.zeros((55, 50))
    w[1, 0], w[11, 3] = np.inf, np.nan  # official 11 fails first, agent 1 last
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="iteration 3: node 1 .*'hinge'"):
            step_general(plan, 1.0, 1.0, w, 3)


def test_svm_hinges_are_one_stacked_call_on_the_last_level(monkeypatch):
    _, ops, bg = build_svm(50, 5, 10)
    hinges = [i for i in range(bg.n_nodes) if i % 11]
    calls = []
    call = Resolvent.__call__

    def counting(self, tau, r, out=None):
        calls.append(self.name)
        return call(self, tau, r, out)

    monkeypatch.setattr(Resolvent, "__call__", counting)
    z = incidence_decomposition(bg.base)
    for plan, z_ref in ((StepPlan(bg, ops, z), z), (StepPlan(bg, ops), np.eye(bg.n_nodes))):
        schedule = plan.schedule
        assert [[i for _, _, i, _, _ in singles] for singles, _ in schedule] == [
            [0], [11], [22], [33], [44], []]
        assert [batch is None for _, batch in schedule] == [True] * 5 + [False]
        assert list(schedule[-1][1][0]) == hinges
        w = 0.5 * rng.standard_normal((z_ref.shape[1], 50))
        for k in range(20):
            calls.clear()
            x, w_new, _ = step_general(plan, 0.7, 1.4, w, k)
            assert calls == ["quadratic"] * 5 + ["hinge"]
            assert same_bits(x, reference_sweep(bg, z_ref, ops, 0.7, w))
            w = w_new


def test_every_hinge_is_a_row_of_its_levels_stacked_call(monkeypatch):
    import graphdrs.solver as solver_module

    solved, calls = [], []
    node_solution, call = solver_module.node_solution, Resolvent.__call__

    def counting_node(op, *args):
        solved.append(op)
        return node_solution(op, *args)

    def counting_call(self, tau, r, out=None):
        calls.append((self.name, np.shape(r)))
        return call(self, tau, r, out)

    monkeypatch.setattr(solver_module, "node_solution", counting_node)
    monkeypatch.setattr(Resolvent, "__call__", counting_call)
    chain = OrderedDigraph(4, [(i, i + 1) for i in range(3)])
    cases = [  # (graph, ops, hinge rows per stacked call, nodes solved alone)
        (*star_of_hinges(1, dim=2), [[1]], [0]),  # a lone hinge below a translated quadratic
        (BilevelGraph(chain, chain),  # a chain: one hinge a level
         [prox_hinge_affine(rng.standard_normal(2), 0.5) for _ in range(4)],
         [[0], [1], [2], [3]], []),
    ]
    for bg, ops, batches, alone in cases:
        z = incidence_decomposition(bg.base)
        plan = StepPlan(bg, ops, z)
        assert [list(b[0]) for _, b in plan.schedule if b is not None] == batches
        w = rng.standard_normal((bg.n_nodes - 1, 2))
        for k in range(5):
            solved.clear()
            calls.clear()
            x, w_new, _ = step_general(plan, 0.9, 1.1, w, k)
            assert solved == [ops[i] for i in alone]
            assert [name for name, shape in calls if shape == (1, 2)] == ["hinge"] * len(batches)
            assert len(calls) == len(batches) + len(alone)
            assert same_bits(x, reference_sweep(bg, z, ops, 0.9, w))
            w = w_new


def test_run_wtilde_matches_run():
    g = complete_digraph(4)
    bg = BilevelGraph(g, g)
    ops = quad_ops([rng.standard_normal(2) for _ in range(4)])
    cfg = SolverConfig(sigma=1.0, max_iter=80)
    st1, tr1 = run(bg, spectral_decomposition(g), ops, cfg)
    st2, tr2 = run(bg, None, ops, cfg)
    assert np.abs(st1.x - st2.x).max() < 1e-9
    for r1, r2 in zip(tr1, tr2):
        assert r1.residual_sq == pytest.approx(r2.residual_sq, rel=1e-8, abs=1e-12)
        assert r1.variance == pytest.approx(r2.variance, rel=1e-8, abs=1e-12)


def test_trace_csv_format():
    bg = make_classical_drs()
    ops = quad_ops([np.array([1.0]), np.array([3.0])])
    _, traces = run(
        bg, tree_decomposition(bg), ops,
        SolverConfig(sigma=1.0, max_iter=3),
        objective=lambda xbar: float(np.sum(xbar**2)),
    )
    lines = [_row(r.k, r.residual_sq, r.variance, r.subgrad_sum_norm, r.objective)
             for r in traces]
    assert len(lines) == 3
    fields = lines[0].rstrip("\n").split(",")
    assert fields[0] == "0" and len(fields) == 5
    # 17 significant digits survive a parse roundtrip
    assert float(fields[1]) == traces[0].residual_sq
    assert _row(7, None, "a", 0.1) == "7,,a,0.10000000000000001\n"


def test_state_variance_hand_value():
    x = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert state_variance(x) == pytest.approx(1.0)


@pytest.mark.parametrize("node_local", [False, True])
def test_nonfinite_duals_into_an_official_name_its_quadratic(node_local):
    _, ops, bg = build_svm(50, 5, 10)
    if node_local:
        plan, w = StepPlan(bg, ops), np.zeros((55, 50))
        w[11, 3] = np.nan  # reaches official 11 and what follows it
        expected = "iteration 2: node 11 .*'quadratic'"
    else:
        plan = StepPlan(bg, ops, incidence_decomposition(bg.base))
        w = np.zeros((54, 50))
        w[bg.base.edges.index((0, 11)), 3] = np.nan  # both ends of the edge
        expected = "iteration 2: node 0 .*'quadratic'"
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match=expected):
            step_general(plan, 1.0, 1.0, w, 2)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("form", ["w0", "wt0"])
def test_run_rejects_non_finite_initial_duals(bad, form):
    _, ops, bg = build_svm(12, 3, 4)
    cfg = SolverConfig(sigma=1.0, max_iter=3)
    w0 = np.zeros((bg.n_nodes - (form == "w0"), 12))
    w0[2, 5] = bad
    z = incidence_decomposition(bg.base) if form == "w0" else None
    with pytest.raises(ValueError, match=re.escape(f"w0[2, 5] must be finite, got {bad}")):
        run(bg, z, ops, cfg, w0=w0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_plan_rejects_non_finite_z_by_entry(bad):
    # a non-finite Z failed in the first sweep, as a NumericalError that
    # blamed a resolvent
    bg = make_malitsky_tam(3)
    z = tree_decomposition(bg)
    z[1, 0] = bad
    message = f"^{re.escape(f'Z[1, 0] must be finite, got {bad}')}$"
    with pytest.raises(ValueError, match=message):
        StepPlan(bg, quad_ops([np.zeros(2)] * 3), z)
    with pytest.raises(ValueError, match=message):
        run(bg, z, quad_ops([np.zeros(2)] * 3), SolverConfig(sigma=1.0, max_iter=2))


# ---------------------------------------------------------------------------
# the plan's workspace: memory per step and ownership of what a step returns


def step_peak_and_returned(plan, w):
    """Peak traced bytes of one warmed-up step above its start, and the
    bytes of the three arrays it returns."""
    step_general(plan, 1.0, 1.0, w)  # sizes the workspace and fills caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        returned = step_general(plan, 1.0, 1.0, w)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in returned)


def test_a_step_allocates_little_beyond_what_it_returns():
    _, transport_ops = build_transport(35)
    g = complete_digraph(4)
    transport = (StepPlan(BilevelGraph(g, g), transport_ops, spectral_decomposition(g)),
                 rng.standard_normal((3, 2450)))
    _, svm_ops, bg = build_svm(50, 5, 10)
    svm = (StepPlan(bg, svm_ops, incidence_decomposition(bg.base)),
           0.5 * rng.standard_normal((54, 50)))
    for plan, w in (transport, svm):
        peak, returned = step_peak_and_returned(plan, w)
        assert peak <= 1.05 * returned, (peak, returned)


def test_step_returns_fresh_arrays_and_one_plan_serves_two_dims():
    _, ops, bg = build_svm(50, 5, 10)
    z = incidence_decomposition(bg.base)
    plan = StepPlan(bg, ops, z)
    w = 0.5 * rng.standard_normal((54, 50))
    first = step_general(plan, 0.7, 1.4, w, 0)
    arrays = (w, *first)
    assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1:])
    kept = [a.copy() for a in first]
    step_general(plan, 0.7, 1.4, first[1], 1)
    assert all(same_bits(a, b) for a, b in zip(first, kept))


@pytest.mark.parametrize("shape", [(3, 1), (3, 2), (3, 4)])
def test_step_rejects_duals_of_another_dimension(shape):
    # one column would broadcast into the plan's (N, dim) workspace
    bg = make_malitsky_tam(4)
    plan = StepPlan(bg, quad_ops([np.zeros(3)] * 4), tree_decomposition(bg))
    with pytest.raises(ValueError, match=re.escape(f"3 columns, got shape {shape}")):
        step_general(plan, 1.0, 1.0, np.zeros(shape))


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("node_local", [False, True])
def test_step_names_duals_with_the_wrong_row_count(node_local, extra):
    # a wrong row count failed inside the dual-term product, naming neither w
    # nor the shape it needs
    bg = make_malitsky_tam(4)
    plan = StepPlan(bg, quad_ops([np.zeros(3)] * 4), None if node_local else tree_decomposition(bg))
    rows = (4 if node_local else 3) + extra
    message = f"duals w must be {rows - extra} rows of 3 columns, got shape {(rows, 3)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        step_general(plan, 1.0, 1.0, np.zeros((rows, 3)))


@pytest.mark.parametrize("sigma, theta, message", [
    (-1, 1.0, "sigma must be positive and finite, got -1"),
    (0.0, 1.0, "sigma must be positive and finite, got 0.0"),
    (math.inf, 1.0, "sigma must be positive and finite, got inf"),
    ("1", 1.0, "sigma must be a real number, got '1'"),
    (1.0, math.nan, "theta must lie in (0, 2), got nan"),
    (1.0, 5, "theta must lie in (0, 2), got 5"),
    (1.0, 0.0, "theta must lie in (0, 2), got 0.0"),
    (1.0, None, "theta must be a real number, got None"),
])
@pytest.mark.parametrize("tree", [False, True])
def test_a_step_names_a_bad_sigma_or_theta(sigma, theta, message, tree):
    # sigma = -1 failed in the resolvent as a step size of -0.5 and "1" as a
    # bare TypeError; theta = nan gave non-finite duals and theta = 5 passed
    bg = make_malitsky_tam(4)
    ops = quad_ops([np.zeros(3)] * 4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if tree:
            step_tree(bg, ops, sigma, theta, np.zeros((3, 3)))
        else:
            step_general(StepPlan(bg, ops, tree_decomposition(bg)), sigma, theta,
                         np.zeros((3, 3)))


@pytest.mark.parametrize("node_local", [False, True])
def test_mismatched_operator_dimensions_name_the_node(node_local):
    bg = make_malitsky_tam(3)
    ops = quad_ops([np.zeros(2), np.zeros(2), np.zeros(3)])
    cfg = SolverConfig(sigma=1.0, max_iter=2)
    expected = "node 2 .*'translated_quadratic'.* dimension 3.* 2"
    with pytest.raises(ValueError, match=expected):
        run(bg, None if node_local else tree_decomposition(bg), ops, cfg)


def test_node_solution_sums_signed_zeros_from_plus_zero():
    # 0.0 + (-0.0) is +0.0: the input sum starts from zero, not from a copy
    # of the first input, so a -0.0 estimate and dual term resolve to +0.0
    neg = np.full(3, -0.0)
    for xs_in in ([neg], [neg, neg], np.stack([neg])):
        out = node_solution(zero_operator(3), 1.0, 2, xs_in, neg, np.empty(3))
        assert same_bits(out, np.zeros(3)), xs_in
    # a node without inputs holds its dual term, summed onto +0.0
    assert same_bits(node_solution(zero_operator(3), 1.0, 2, [], neg, np.empty(3)),
                     np.zeros(3))
