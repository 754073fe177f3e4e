"""The compiled scipy routines that graphdrs loads alone, against scipy's public
ones, and the packages they come from left unimported.

graphdrs loads ``scipy.sparse._sparsetools``, ``scipy.linalg._flapack`` and
``scipy.fft._pocketfft.pypocketfft`` from their files and calls them with the
arguments scipy's own wrappers pass.  These tests pin that the calls give
scipy's results bit for bit, that a later import of a package reuses the
module graphdrs loaded, and that solving, building both problems and a
simulated round import none of the three packages.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import graphdrs
from graphdrs._compiled import load
from graphdrs.factorization import incidence_decomposition
from graphdrs.operators import project_grid_divergence, prox_quadratic
from graphdrs.problems import build_svm
from graphdrs.solver import SolverConfig, run
from oracles import bits

pytestmark = pytest.mark.identity  # the CI floor job runs this file whole

EXTENSIONS = ("scipy.sparse._sparsetools", "scipy.linalg._flapack",
              "scipy.fft._pocketfft.pypocketfft")
PACKAGES = ("scipy.sparse", "scipy.linalg", "scipy.fft")


def run_fresh(code):
    """stdout of code run in a fresh interpreter with this tree's src/ first."""
    src = str(Path(graphdrs.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def recording(monkeypatch, module, name):
    """Wrap module.name so each call's arguments and result are kept."""
    calls, fn = [], getattr(module, name)

    def wrapped(*args, **kwargs):
        args_seen = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        out = fn(*args, **kwargs)
        calls.append((args_seen, kwargs, out))
        return out

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_grid_dct_equals_scipy_fft_dct(monkeypatch):
    calls = recording(monkeypatch, load("scipy.fft._pocketfft.pypocketfft"), "dct")
    for p in range(1, 65):
        project_grid_divergence(p, np.zeros(p * p))
        want = scipy.fft.dct(np.eye(p), norm="ortho", axis=0)
        got = calls[-1][2]
        assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), p
    assert len(calls) == 64


def check_factors(calls, monkeypatch):
    """Each recorded dpotrf call's factor equals scipy's cho_factor's, which
    calls dpotrf too: the recording is undone first."""
    monkeypatch.undo()
    assert calls
    for (a,), _, (c, info) in calls:
        want, lower = scipy.linalg.cho_factor(a)
        assert (info, lower) == (0, False)
        assert c.shape == want.shape and np.array_equal(bits(c), bits(want))


def test_svm_official_factors_equal_cho_factor(monkeypatch):
    calls = recording(monkeypatch, load("scipy.linalg._flapack"), "dpotrf")
    _, ops, bg = build_svm(50, 5, 10)
    z = incidence_decomposition(bg.base)
    for sigma in np.logspace(-2, 1, 10):
        run(bg, z, ops, SolverConfig(sigma=float(sigma), max_iter=1))
    assert len(calls) == 5 * 10
    check_factors(calls, monkeypatch)


@pytest.mark.parametrize("n", [1, 3, 10, 50, 120])
def test_random_spd_factors_and_solves_equal_scipy(monkeypatch, n):
    calls = recording(monkeypatch, load("scipy.linalg._flapack"), "dpotrf")
    local = np.random.default_rng(n)
    a = local.standard_normal((n, n))
    k = a @ a.T
    op, taus, rs = prox_quadratic(k, 0.7), (1e-3, 0.3, 1.0, 40.0), local.standard_normal((4, n))
    got = [op(tau, r) for tau, r in zip(taus, rs)]
    assert len(calls) == 4
    check_factors(calls, monkeypatch)
    for tau, r, x in zip(taus, rs, got):
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(np.eye(n) + 2.0 * tau * 0.7 * k), r)
        assert np.array_equal(bits(x), bits(want))


def test_an_indefinite_matrix_fails_as_cho_factor():
    op = prox_quadratic(-np.eye(3), 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="leading minor"):
        op(1.0, np.ones(3))
    assert np.linalg.LinAlgError is scipy.linalg.LinAlgError


def test_packages_imported_later_reuse_the_loaded_modules():
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from graphdrs.operators import project_grid_divergence, prox_quadratic\n"
        f"names = {EXTENSIONS!r}\n"
        "project_grid_divergence(3, np.zeros(9))\n"
        "prox_quadratic(np.eye(2), 1.0)(1.0, np.ones(2))\n"
        "loaded = [sys.modules[name] for name in names]\n"
        "import scipy.fft, scipy.linalg, scipy.sparse\n"
        "print(all(sys.modules[name] is m for name, m in zip(names, loaded)))\n"
        "print(scipy.linalg.cho_factor(4.0 * np.eye(2))[0].tolist())\n"
        "print((scipy.sparse.csr_matrix(np.eye(2)) @ np.ones(2)).tolist())\n"
        "print(scipy.fft.dct(np.ones(2), norm='ortho').round(12).tolist())\n"
    )
    assert out.splitlines() == ["True", "[[2.0, 0.0], [0.0, 2.0]]", "[1.0, 1.0]",
                                "[1.414213562373, 0.0]"]


def test_solves_and_a_simulated_round_import_none_of_the_packages():
    out = run_fresh(
        "import sys\n"
        "import graphdrs\n"
        "from graphdrs.graphs import BilevelGraph, complete_digraph\n"
        "from graphdrs.problems import build_svm, build_transport\n"
        "from graphdrs.simulate import NetworkSim\n"
        "from graphdrs.solver import SolverConfig, run, tree_decomposition\n"
        "_, ops = build_transport(8)\n"
        "g = complete_digraph(4)\n"
        "run(BilevelGraph(g, g), None, ops, SolverConfig(sigma=1.0, max_iter=5))\n"
        "_, ops, bg = build_svm(30, 3, 10)\n"
        "cfg = SolverConfig(sigma=1.0, max_iter=5)\n"
        "run(bg, tree_decomposition(bg), ops, cfg)\n"
        "NetworkSim(bg, ops, cfg).run(1)\n"
        f"print(sorted(set({PACKAGES!r}) & set(sys.modules)))\n"
        f"print(sorted(set({EXTENSIONS!r}) & set(sys.modules)))\n"
    )
    assert out.splitlines() == ["[]", str(sorted(EXTENSIONS))]


def test_a_missing_extension_names_the_module_and_folder():
    with pytest.raises(ImportError, match=r"cannot load scipy\.linalg\._no_such_module: "
                                          r"no extension module file in .*linalg$"):
        load("scipy.linalg._no_such_module")
    assert "scipy.linalg._no_such_module" not in sys.modules
