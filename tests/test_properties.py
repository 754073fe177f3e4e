"""Property tests of the sweep plan on generated bilevel graphs (n <= 8).

Each formulation is checked against a dense reference or against the
formulation it must equal bit for bit, on random connected state graphs
with random tree and non-tree bases and random dimensions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdrs.factorization import incidence_decomposition, spectral_decomposition
from graphdrs.graphs import BilevelGraph, OrderedDigraph
from graphdrs.operators import prox_hinge_affine, prox_translated_quadratic
from graphdrs.simulate import run_general_protocol, run_tree_protocol
from graphdrs.solver import SolverConfig, StepPlan, step_general, step_tree, step_wtilde

SWEEPS = 4
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def bilevel_graphs(draw, tree=None):
    """A random spanning tree, plus random extra base and state edges."""
    n = draw(st.integers(2, 8))
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])
    base = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if not (draw(st.booleans()) if tree is None else tree):
        base |= set(draw(st.lists(pairs, max_size=6)))
    state = base | set(draw(st.lists(pairs, max_size=8)))
    return BilevelGraph(OrderedDigraph(n, state), OrderedDigraph(n, base))


@st.composite
def problems(draw, tree=None):
    """(bilevel graph, resolvents, rng) with quadratic and hinge resolvents."""
    bg = draw(bilevel_graphs(tree))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [
        prox_translated_quadratic(rng.standard_normal(dim), rng.uniform(0.5, 2.0))
        if i % 2 == 0
        else prox_hinge_affine(rng.standard_normal(dim), rng.uniform(-1.0, 1.0))
        for i in range(bg.n_nodes)
    ]
    return bg, ops, rng


def dense_sweep(bg, z, ops, sigma, theta, w):
    """The sweep written out from the edge list with dense products."""
    n = bg.n_nodes
    into = np.zeros((n, n))  # into[i, h] = 1 for a state edge h -> i
    for h, i in bg.state.edges:
        into[i, h] = 1.0
    d = into.sum(axis=0) + into.sum(axis=1)
    zw = z @ w
    x = np.zeros_like(zw)
    for i in range(n):
        x[i] = ops[i](sigma / d[i], (2.0 * into[i] @ x + zw[i]) / d[i])
    return x, w - theta * z.T @ x


@PROPERTY
@given(bilevel_graphs())
def test_neighbor_lists_match_edge_scans(bg):
    for g in (bg.state, bg.base):
        for i in range(g.n_nodes):
            ins = sorted(h for h, j in g.edges if j == i)
            outs = sorted(j for h, j in g.edges if h == i)
            assert g.in_neighbors(i) == ins
            assert g.out_neighbors(i) == outs
            assert g.adjacency(i) == sorted(ins + outs)
            assert g.degree(i) == len(ins) + len(outs)
        assert g.degrees().tolist() == [g.degree(i) for i in range(g.n_nodes)]


@PROPERTY
@given(problems(), st.sampled_from(["incidence", "spectral"]))
def test_step_general_matches_dense_sweep(problem, factorization):
    bg, ops, rng = problem
    if factorization == "incidence" and not bg.base.is_tree():
        factorization = "spectral"
    decomp = (incidence_decomposition if factorization == "incidence"
              else spectral_decomposition)(bg.base)
    plan = StepPlan(bg, decomp.z)
    sigma, theta = rng.uniform(0.3, 3.0), rng.uniform(0.2, 1.8)
    w = w_ref = rng.standard_normal((bg.n_nodes - 1, ops[0].dim))
    for k in range(SWEEPS):
        x, w, ztx = step_general(plan, ops, sigma, theta, w, k)
        x_ref, w_ref = dense_sweep(bg, decomp.z, ops, sigma, theta, w_ref)
        scale = max(1.0, np.abs(w_ref).max(), np.abs(x_ref).max())
        assert np.abs(x - x_ref).max() <= 1e-12 * scale
        assert np.abs(w - w_ref).max() <= 1e-12 * scale
        assert np.abs(ztx - decomp.z.T @ x).max() <= 1e-12 * scale


@PROPERTY
@given(problems(tree=True))
def test_tree_step_equals_general_step(problem):
    bg, ops, rng = problem
    plan = StepPlan(bg, incidence_decomposition(bg.base).z)
    w = we = rng.standard_normal((bg.n_nodes - 1, ops[0].dim))
    for k in range(SWEEPS):
        xg, w, _ = step_general(plan, ops, 1.0, 1.3, w, k)
        xt, we = step_tree(bg, ops, 1.0, 1.3, we, k)
        assert np.array_equal(xg, xt)
        assert np.array_equal(w, we)


@PROPERTY
@given(problems())
def test_protocols_equal_centralized_steps(problem):
    bg, ops, rng = problem
    dim = ops[0].dim
    cfg = SolverConfig(sigma=rng.uniform(0.3, 3.0), theta=lambda k: 1.0 + 0.5 * np.sin(k))
    general = run_general_protocol(bg, ops, cfg, rounds=SWEEPS)
    wt = np.zeros((bg.n_nodes, dim))
    for k in range(SWEEPS):
        x, wt = step_wtilde(bg, ops, cfg.sigma, cfg.theta_at(k), wt, k)
        assert np.array_equal(general.x_history[k], x)
    assert np.array_equal(np.array([a.wtilde for a in general.agents]), wt)
    if bg.base.is_tree():
        tree = run_tree_protocol(bg, ops, cfg, rounds=SWEEPS)
        w = np.zeros((bg.n_nodes - 1, dim))
        for k in range(SWEEPS):
            x, w = step_tree(bg, ops, cfg.sigma, cfg.theta_at(k), w, k)
            assert np.array_equal(tree.x_history[k], x)
