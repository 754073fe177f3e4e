import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphdrs

from graphdrs.graphs import BilevelGraph, OrderedDigraph
from graphdrs.operators import grid_stencils
from graphdrs.problems import (
    SvmInstance,
    build_svm,
    build_transport,
    gaussian_density,
    gaussian_kernel,
    load_config,
    objective_svm,
    objective_transport,
    svm_from_config,
    transport_feasibility,
    transport_from_config,
)
from graphdrs.solver import SolverConfig, run, tree_decomposition

rng = np.random.default_rng(11)


# ---------------------------------------------------------------------------
# transport


@pytest.mark.parametrize("p", [3, 5, 8])
def test_divergence_column_sums_exactly_zero(p):
    div, _ = grid_stencils(p)
    columns = np.column_stack([div(e, np.empty(p * p)) for e in np.eye(2 * p * p)])
    assert set(np.unique(columns)) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(columns.sum(axis=0), np.zeros(2 * p * p))


def test_divergence_telescoping():
    # total divergence of any flow is zero (no-flux boundary)
    div, _ = grid_stencils(4)
    flow = rng.standard_normal(32)
    assert abs(div(flow, np.empty(16)).sum()) < 1e-12


def test_transport_run_leaves_scipy_linalg_unloaded():
    code = (
        "import sys, scipy.sparse, scipy.fft\n"
        "if 'scipy.linalg' in sys.modules: sys.exit('preloaded')\n"
        "from graphdrs.graphs import BilevelGraph, complete_digraph\n"
        "from graphdrs.problems import build_transport\n"
        "from graphdrs.solver import SolverConfig, run\n"
        "_, ops = build_transport(8)\n"
        "g = complete_digraph(4)\n"
        "run(BilevelGraph(g, g), None, ops, SolverConfig(sigma=1.0, max_iter=5))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(graphdrs.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    if done.stderr.strip() == "preloaded":
        pytest.skip("scipy.sparse or scipy.fft loads scipy.linalg itself")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_build_transport_invariants():
    inst, ops = build_transport(10)
    assert inst.mu.sum() == pytest.approx(1.0)
    assert inst.nu.sum() == pytest.approx(1.0)
    assert inst.mu.min() >= 0 and inst.nu.min() >= 0
    assert np.intersect1d(inst.bridge, inst.water).size == 0
    # densities vanish on water
    assert inst.mu[inst.water].max() == 0.0
    assert len(ops) == 4
    assert all(op.dim == 200 for op in ops)


def test_build_transport_large_grid_stays_sparse():
    # the dense projection would need gigabytes here; the spectral one does not
    inst, ops = build_transport(128)
    flow = ops[0](1.0, rng.standard_normal(2 * 128 * 128))
    assert transport_feasibility(inst, flow)["divergence_residual"] <= 1e-10


def test_build_transport_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        build_transport(6, bridge=(2, 0, 3, 5), water=(2, 0, 3, 5))


def _nan_at(n, k, value=float("nan")):
    dens = np.ones(n)
    dens[k] = value
    return dens


@pytest.mark.parametrize("name", ["mu", "nu"])
@pytest.mark.parametrize("dens, message", [
    (np.zeros(36), "mu must have a positive finite sum, got 0.0"),
    (_nan_at(36, 4), "mu[4] must be finite and nonnegative, got nan"),
    (_nan_at(36, 7, float("inf")), "mu[7] must be finite and nonnegative, got inf"),
    (_nan_at(36, 0, -0.5), "mu[0] must be finite and nonnegative, got -0.5"),
    (np.ones(35), "mu must have shape (36,) for grid side 6, got (35,)"),
    (np.ones((6, 6)), "mu must have shape (36,) for grid side 6, got (6, 6)"),
    (np.full(36, 1e307), "mu must have a positive finite sum, got inf"),
])
def test_explicit_densities_are_checked_by_name(name, dens, message):
    spec = {"mu_spec": np.ones(36), "nu_spec": np.ones(36), f"{name}_spec": dens}
    with np.errstate(over="ignore"):  # a sum may overflow to inf
        with pytest.raises(ValueError, match=f"^{re.escape(message.replace('mu', name, 1))}$"):
            build_transport(6, bridge=[], water=[], **spec)


@pytest.mark.parametrize("name", ["mu", "nu"])
@pytest.mark.parametrize("width", [None, [1.5], "1.5"])
def test_a_bad_blob_width_names_its_density(name, width):
    # a None or list width was read as an explicit density and failed in numpy
    spec = {f"{name}_spec": ((2, 3), width)}
    message = f"{name}: blob width must be a real number, got {width!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_transport(6, bridge=[], water=[], **spec)


def test_explicit_densities_are_normalized():
    dens = np.arange(36.0)
    inst, _ = build_transport(6, mu_spec=dens, nu_spec=[1.0] * 36, bridge=[], water=[])
    assert np.array_equal(inst.mu, dens / dens.sum())
    assert np.array_equal(inst.nu, np.full(36, 1 / 36))


def test_zero_flow_trivial_instance():
    # no masks, mu = nu: the zero flow is feasible and optimal
    dens = np.ones(36)
    inst, ops = build_transport(6, mu_spec=dens, nu_spec=dens, bridge=[], water=[])
    flow = np.zeros(72)
    assert objective_transport(inst, flow) == 0.0
    feas = transport_feasibility(inst, flow)
    assert feas["divergence_residual"] < 1e-12
    g = OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)])
    bg = BilevelGraph(g, g)
    st, traces = run(
        bg, tree_decomposition(bg), ops, SolverConfig(sigma=1.0, max_iter=10)
    )
    assert np.abs(st.x).max() < 1e-14
    assert traces[-1].variance == 0.0


def test_transport_objective_hand_value():
    inst, _ = build_transport(3, bridge=[], water=[])
    flow = np.zeros(18)
    flow[0:2] = [3.0, 4.0]  # single block of norm 5
    assert objective_transport(inst, flow) == pytest.approx(5**1.5 + 5.0)
    with pytest.raises(ValueError):
        objective_transport(inst, np.zeros(4))


def test_transport_solver_decreases_objective():
    inst, ops = build_transport(8, cap=0.2)
    g = OrderedDigraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    bg = BilevelGraph(g, g)
    from graphdrs.factorization import spectral_decomposition

    obj = lambda xbar: objective_transport(inst, xbar)
    st, traces = run(
        bg, spectral_decomposition(g), ops,
        SolverConfig(sigma=2.0, max_iter=300), objective=obj,
    )
    assert traces[-1].variance < 1e-4
    # the indicator terms are not part of the reported cost, so the early
    # near-zero iterates score low while being badly infeasible; check that
    # the constraints, not the cost, are what improves
    feas = transport_feasibility(inst, st.x.mean(axis=0))
    assert feas["divergence_residual"] < 1e-2
    assert feas["capacity_excess"] < 1e-3
    assert feas["water_norm"] < 1e-3


# ---------------------------------------------------------------------------
# SVM


def test_build_svm_shapes_and_graph():
    inst, ops, bg = build_svm(50, 5, 10)
    assert bg.n_nodes == 55
    assert bg.base.is_tree()
    assert bg.base.n_edges == 54  # (n + C) - 1
    assert bg.state.n_edges == 55  # tree plus the ring-closing edge
    assert len(ops) == 55
    # partition covers 0..49 disjointly
    flat = [i for part in inst.partition for i in part]
    assert sorted(flat) == list(range(50))
    # kernel PSD up to jitter
    assert np.linalg.eigvalsh(inst.kernel).min() >= -1e-10


def test_build_svm_validation():
    with pytest.raises(ValueError):
        build_svm(50, 5, 9)
    with pytest.raises(ValueError):
        build_svm(4, 2, 2)  # fewer than 3 officials
    for width in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="kernel width"):
            build_svm(12, 3, 4, kernel_width=width)
    for gamma in (-0.1, np.nan, np.inf):
        expected = f"gamma must be nonnegative and finite, got {gamma}"
        with pytest.raises(ValueError, match=expected):
            build_svm(12, 3, 4, gamma=gamma)


def test_svm_objective_trivial_and_hand_values():
    inst, _, _ = build_svm(50, 5, 10)
    assert objective_svm(inst, np.zeros(50)) == pytest.approx(50.0)

    hand = SvmInstance(
        points=np.zeros((2, 2)),
        labels=np.array([1.0, -1.0]),
        kernel=np.eye(2),
        gamma=1.0,
        kernel_width=1.0,
        officials=1,
        per_official=2,
        partition=((0, 1),),
    )
    # margins are exactly 1, hinges vanish, quadratic contributes 2
    assert objective_svm(hand, np.array([1.0, -1.0])) == pytest.approx(2.0)


def test_svm_split_matches_full_objective():
    inst, _, bg = build_svm(27, 3, 9)
    off_nodes = [c * 10 for c in range(3)]
    d = [bg.state.degree(i) for i in off_nodes]
    total = sum(d)
    for _ in range(5):
        alpha = rng.standard_normal(27)
        quad_split = sum(
            inst.gamma * d[c] / total * (alpha @ inst.kernel @ alpha)
            for c in range(3)
        )
        hinge_split = sum(
            max(1.0 - inst.labels[i] * (inst.kernel[i] @ alpha), 0.0)
            for part in inst.partition
            for i in part
        )
        assert quad_split + hinge_split == pytest.approx(
            objective_svm(inst, alpha), abs=1e-10
        )


def test_svm_dataset_seeded():
    a, _, _ = build_svm(20, 4, 5, seed=3)
    b, _, _ = build_svm(20, 4, 5, seed=3)
    c, _, _ = build_svm(20, 4, 5, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_gaussian_kernel_values():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    k = gaussian_kernel(pts, 1.0)
    assert k[0, 0] == pytest.approx(1.0)
    assert k[0, 1] == pytest.approx(np.exp(-0.5))


# ---------------------------------------------------------------------------
# config files


def test_load_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\np = 7\ncap = 0.1  # inline\n\n")
    cfg = load_config(path)
    assert cfg == {"p": "7", "cap": "0.1"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(bad)


def test_transport_from_config(tmp_path):
    path = tmp_path / "t.cfg"
    path.write_text(
        "problem = transport\np = 9\ncap = 0.3\n"
        "mu_center = 1,4\nnu_center = 7,4\nblob_width = 1.5\n"
    )
    inst, ops = transport_from_config(load_config(path))
    assert inst.p == 9
    assert inst.cap == 0.3
    assert len(ops) == 4


def test_svm_from_config(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("problem = svm\nn = 12\nofficials = 3\ngamma = 0.2\nseed = 1\n")
    inst, ops, bg = svm_from_config(load_config(path))
    assert inst.n_points == 12
    assert inst.per_official == 4
    assert bg.n_nodes == 15
    assert len(ops) == 15


@pytest.mark.parametrize("width", [0.0, -1.5, float("nan")])
def test_gaussian_density_rejects_a_non_positive_width(width):
    with pytest.raises(ValueError, match=f"blob width must be > 0, got {width}"):
        gaussian_density(8, (2, 3), width)


def test_gaussian_density_of_infinite_width_is_uniform():
    assert np.array_equal(gaussian_density(4, (1, 1), float("inf")), np.full(16, 1 / 16))


@pytest.mark.parametrize(
    "key, value",
    [
        ("mu_center", "100,100"),  # off the grid: the blob underflowed to zero
        ("mu_center", "8,4"),  # just off the grid: a silently truncated blob
        ("nu_center", "3"),
        ("bridge", "3,1,4"),
        ("water", "3,0,4,0;3,7"),
    ],
)
def test_transport_config_names_a_bad_key(key, value):
    with pytest.raises(ValueError, match=f"{key} needs"):
        transport_from_config({"p": "8", key: value})


@pytest.mark.parametrize("p, bound", [("2", "p >= 3"), ("65", "p <= 64")])
def test_transport_config_bounds_the_grid(p, bound):
    with pytest.raises(ValueError, match=bound):
        transport_from_config({"p": p})


def test_build_svm_needs_an_agent_per_official():
    with pytest.raises(ValueError, match="per_official must be >= 1, got 0"):
        build_svm(0, 5, 0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"officials": 5.0}, "officials must be an integer, got 5.0"),  # a bare TypeError
        ({"per_official": 10.0}, "per_official must be an integer, got 10.0"),
        ({"n": 50.0}, "n must be an integer, got 50.0"),
        ({"officials": True}, "officials must be an integer, got True"),
        ({"officials": "5"}, "officials must be an integer, got '5'"),
        # numpy's SeedSequence error
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),  # drew seed 1
        ({"seed": None}, "seed must be a non-negative integer, got None"),  # drew a fresh seed
    ],
)
def test_build_svm_names_a_count_or_seed_before_drawing_the_dataset(monkeypatch, kwargs, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("the dataset was drawn")

    monkeypatch.setattr(graphdrs.problems, "svm_dataset", no_draw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_svm(**({"n": 50, "officials": 5, "per_official": 10} | kwargs))


def test_build_svm_takes_numpy_integer_counts_and_seed():
    want, _, _ = build_svm(12, 3, 4, seed=2)
    got, _, _ = build_svm(np.int64(12), np.int32(3), np.int64(4), seed=np.uint8(2))
    assert np.array_equal(got.kernel, want.kernel) and got.partition == want.partition


@pytest.mark.parametrize("p", [35.0, True, 0, -1, "8", None, np.float64(8.0)])
def test_build_transport_checks_the_grid_side_first(p):
    # 35.0 raised a bare TypeError; True, 0 and -1 a rectangle outside the grid
    message = f"p must be a positive integer, got {p!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_transport(p)

