import math
import re

import numpy as np
import pytest

from graphdrs.factorization import (
    FactorizationError,
    align,
    choose_decomposition,
    external_decomposition,
    incidence_decomposition,
    spectral_decomposition,
    validate,
)
from graphdrs.graphs import BilevelGraph, OrderedDigraph, complete_digraph, laplacian
from graphdrs.operators import prox_translated_quadratic
from graphdrs.solver import (
    SolverConfig,
    StepPlan,
    compute_subgradients,
    run,
    step_general,
    tree_decomposition,
)
from oracles import lifted_ppp_step, lifted_reduce, lifted_resolvent_w

rng = np.random.default_rng(7)


def test_incidence_of_path():
    g = OrderedDigraph(3, [(0, 1), (1, 2)])
    d = incidence_decomposition(g)
    expected = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(d, expected)
    validate(d, g)


@pytest.mark.parametrize(
    "g, source",
    [
        (OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)]), "incidence"),
        (OrderedDigraph(3, [(0, 1), (1, 2), (0, 2)]), "spectral"),
        (complete_digraph(4), "spectral"),
    ],
)
def test_choose_decomposition_takes_incidence_only_for_trees(g, source):
    d = choose_decomposition(g)
    by_source = {"incidence": incidence_decomposition, "spectral": spectral_decomposition}
    assert np.array_equal(d, by_source[source](g))
    validate(d, g)


def test_incidence_rejects_cycles():
    with pytest.raises(FactorizationError, match="cycle"):
        incidence_decomposition(OrderedDigraph(3, [(0, 1), (1, 2), (0, 2)]))


@pytest.mark.parametrize(
    "g",
    [
        complete_digraph(4),
        OrderedDigraph(4, [(0, 1), (1, 2), (2, 3)]),
        OrderedDigraph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]),
    ],
)
def test_spectral_decomposition_validates(g):
    d = spectral_decomposition(g)
    validate(d, g, tol=1e-9)
    assert np.abs(d @ d.T - laplacian(g)).max() < 1e-10


def test_align_recovers_orthogonal_map():
    g = complete_digraph(4)
    d1 = spectral_decomposition(g)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    d2 = external_decomposition(d1 @ q)
    o = align(d1, d2)
    # orthogonality and the defining relation z1 = z2 @ o
    assert np.abs(o @ o.T - np.eye(3)).max() < 1e-9
    assert np.abs(d2 @ o - d1).max() < 1e-9


def test_align_tree_incidence_vs_spectral():
    g = OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)])
    d1 = incidence_decomposition(g)
    d2 = spectral_decomposition(g)
    o = align(d1, d2)
    assert np.abs(o @ o.T - np.eye(3)).max() < 1e-9
    assert np.abs(d2 @ o - d1).max() < 1e-9


def test_align_rejects_mismatched_laplacians():
    d1 = spectral_decomposition(complete_digraph(4))
    d2 = spectral_decomposition(OrderedDigraph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(FactorizationError):
        align(d1, d2)


@pytest.mark.parametrize("tol", [math.nan, -1, -1e-9, math.inf])
def test_align_tolerance_must_be_nonnegative_and_finite(tol):
    # nan accepted any pair of factorizations; -1 rejected every pair as
    # "do not share a Laplacian"
    d = spectral_decomposition(complete_digraph(3))
    message = f"^{re.escape(f'tol must be nonnegative and finite, got {tol}')}$"
    with pytest.raises(FactorizationError, match=message):
        align(d, d, tol)
    assert align(d, d, 0).shape == (2, 2)


def test_validate_rejects_bad_matrix():
    g = complete_digraph(3)
    bad = external_decomposition(np.ones((3, 2)))
    with pytest.raises(FactorizationError):
        validate(bad, g)



@pytest.mark.parametrize(
    "base",
    [OrderedDigraph(3, [(0, 1), (1, 2)]), OrderedDigraph(3, [(0, 1), (1, 2), (0, 2)])],
    ids=["tree", "cycle"],
)
def test_every_factorization_is_the_array_every_consumer_takes(base):
    bg = BilevelGraph(complete_digraph(3), base)
    centers = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])
    terms = [(1.0, c) for c in centers]
    ops = [prox_translated_quadratic(c, mu) for mu, c in terms]
    cfg = SolverConfig(sigma=0.7, max_iter=1)
    makers = [
        spectral_decomposition,
        choose_decomposition,
        lambda g: external_decomposition(spectral_decomposition(g).tolist()),
    ]
    if base.is_tree():
        makers += [incidence_decomposition, lambda g: tree_decomposition(bg)]
    for make in makers:
        z = make(base)
        validate(z, base)
        assert align(z, spectral_decomposition(base)).shape == (2, 2)
        w = rng.standard_normal((2, 2))
        x, w_new, _ = step_general(StepPlan(bg, ops, z), cfg.sigma, 1.0, w)
        state, _ = run(bg, z, ops, cfg, w0=w)
        assert np.array_equal(state.x, x) and np.array_equal(state.w, w_new)
        a = compute_subgradients(bg, z, cfg.sigma, w, x)
        assert np.allclose(a, x - centers)  # A_i x = x - c_i
        assert np.allclose(lifted_resolvent_w(bg, z, terms, cfg.sigma, w), w_new)
        u = lifted_ppp_step(bg, z, terms, cfg.sigma, cfg.theta_at(0),
                            np.vstack([np.zeros((3, 2)), w]))
        assert lifted_reduce(z, u).shape == (2, 2)
