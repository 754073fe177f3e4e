import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import dctn, idctn

from graphdrs.operators import (
    OperatorError,
    Resolvent,
    _block_norms,
    grid_stencils,
    project_affine,
    project_capacity,
    project_grid_divergence,
    prox_group_l1,
    prox_hinge_affine,
    prox_power_three_halves,
    prox_quadratic,
    prox_translated_quadratic,
    stack_hinges,
    zero_operator,
)
from graphdrs.problems import (
    build_svm,
    default_transport_geometry,
    gaussian_density,
    rect_cells,
)
from oracles import bits, identical_bits, loop_divergence_matrix, scalar_hinge

rng = np.random.default_rng(123)

K_SMALL = np.array([[2.0, 1.0], [1.0, 3.0]])


def make_catalog(dim=6):
    """One instance of every operator on a common even dimension."""
    lam = rng.standard_normal((2, dim))
    b = lam @ rng.standard_normal(dim)
    return [
        prox_quadratic(np.eye(dim) + 0.1 * np.ones((dim, dim)), 0.5),
        prox_hinge_affine(rng.standard_normal(dim), 1.0),
        prox_power_three_halves(dim),
        prox_group_l1(dim),
        project_affine(lam, b),
        project_capacity([0], [1], 0.3, dim),
        prox_translated_quadratic(rng.standard_normal(dim), 2.0),
        zero_operator(dim),
    ]


@pytest.mark.parametrize("op_idx", range(8))
def test_firm_nonexpansiveness(op_idx):
    dim = 6
    op = make_catalog(dim)[op_idx]
    local = np.random.default_rng(1000 + op_idx)
    for tau in (0.1, 1.0, 10.0):
        x = local.standard_normal((1000, dim)) * 3
        y = local.standard_normal((1000, dim)) * 3
        for xi, yi in zip(x, y):
            jx, jy = op(tau, xi), op(tau, yi)
            lhs = float(np.sum((jx - jy) ** 2))
            rhs = float((jx - jy) @ (xi - yi))
            assert lhs <= rhs + 1e-9


def test_quadratic_closed_form():
    op = prox_quadratic(K_SMALL, 0.5)
    r = np.array([1.0, -2.0])
    expected = np.linalg.solve(np.eye(2) + K_SMALL, r)  # tau=1, 2*tau*0.5 = 1
    assert np.abs(op(1.0, r) - expected).max() < 1e-12
    assert np.array_equal(op(0.0, r), r)


def test_quadratic_validation():
    with pytest.raises(OperatorError):
        prox_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(OperatorError):
        prox_quadratic(np.eye(2), -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quadratic_rejects_non_finite_k_by_entry(value):
    # checked before symmetry: a NaN or infinity read as "K must be symmetric"
    k = np.eye(3)
    k[0, 1] = value
    message = f"^{re.escape(f'K[0, 1] must be finite, got {value}')}$"
    with pytest.raises(OperatorError, match=message):
        prox_quadratic(k, 1.0)
    k[1, 0] = value  # symmetric, and still not finite
    with pytest.raises(OperatorError, match=message):
        prox_quadratic(k, 1.0)


@pytest.mark.parametrize("weight", [True, False, "0.5", None])
def test_quadratic_weight_must_be_a_real_number(weight):
    # a bool weight built a resolvent; SolverConfig rejects a bool sigma
    message = f"^{re.escape(f'weight must be a real number, got {weight!r}')}$"
    with pytest.raises(OperatorError, match=message):
        prox_quadratic(np.eye(3), weight)
    assert prox_quadratic(np.eye(3), np.float64(0.5)).dim == 3


SCALAR_ARGUMENTS = {
    "mu": lambda v: prox_translated_quadratic(np.ones(3), v),
    "offset": lambda v: prox_hinge_affine(np.ones(3), v),
    "capacity": lambda v: project_capacity([0], [1], v, 8),
    "gamma": lambda v: build_svm(15, 3, 5, gamma=v),
    "kernel width": lambda v: build_svm(15, 3, 5, kernel_width=v),
    "blob width": lambda v: gaussian_density(4, (1, 1), v),
}


@pytest.mark.parametrize("value", [True, False, "1", None])
@pytest.mark.parametrize("name", list(SCALAR_ARGUMENTS))
def test_scalar_arguments_must_be_real_numbers(name, value):
    # each took a bool as 1.0 or 0.0, or raised a bare TypeError naming nothing
    message = f"^{re.escape(f'{name} must be a real number, got {value!r}')}$"
    with pytest.raises(ValueError, match=message):
        SCALAR_ARGUMENTS[name](value)
    SCALAR_ARGUMENTS[name](np.float64(0.5))  # a numpy real still builds


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
def test_affine_projection_needs_a_constraint_row(shape):
    # numpy's "Mean of empty slice" warning escaped from the empty b
    message = f"^{re.escape(f'lam must have at least one row, got shape {shape}')}$"
    with pytest.raises(OperatorError, match=message):
        project_affine(np.zeros(shape), [])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: prox_translated_quadratic([0.0, v]), r"c\[1\] must be finite"),
        (lambda v: prox_translated_quadratic([0.0, 1.0], v),
         "mu must be positive and finite"),
        (lambda v: prox_hinge_affine([1.0, v]), r"s\[1\] must be finite"),
        (lambda v: prox_hinge_affine([1.0, 2.0], v), "offset must be finite"),
        (lambda v: prox_quadratic(np.eye(2), v),
         "weight must be nonnegative and finite"),
    ],
)
def test_non_finite_parameters_rejected(build, message, value):
    with pytest.raises(OperatorError, match=rf"^{message}, got {value}$"):
        build(value)


@pytest.mark.parametrize("shape", [(), (3, 3), (1, 2), (2, 1, 3)])
@pytest.mark.parametrize(
    "build, name",
    [(prox_hinge_affine, "s"), (prox_translated_quadratic, "c")],
    ids=["hinge", "translated_quadratic"],
)
def test_vector_parameters_must_be_one_dimensional(build, name, shape):
    message = f"{name} must be a 1-D vector, got shape {shape}"
    with pytest.raises(OperatorError, match=f"^{re.escape(message)}$"):
        build(np.full(shape, 2.0))


def test_hinge_against_minimization_oracle():
    # frozen values from a direct Nelder-Mead minimization of
    # 0.5|x-r|^2 + tau*max(1 - s.x, 0) with s=(1,2), r=(0.1, 0.2)
    op = prox_hinge_affine(np.array([1.0, 2.0]), 1.0)
    r = np.array([0.1, 0.2])
    assert np.abs(op(0.5, r) - [0.2, 0.4]).max() < 1e-6  # kink case
    assert np.abs(op(0.05, r) - [0.15, 0.3]).max() < 1e-6  # interior case
    # inactive case: s.r = 5 >= 1, identity
    r2 = np.array([1.0, 2.0])
    assert np.abs(op(0.5, r2) - r2).max() < 1e-12


def test_power32_against_minimization_oracle():
    # frozen values from solving the stationarity condition
    # (m - |r|) + 1.5*tau*sqrt(m) = 0 in 50-digit decimal arithmetic;
    # a direct Nelder-Mead minimization agrees to its own ~1e-7 accuracy
    op = prox_power_three_halves(2)
    out = op(1.0, np.array([3.0, 4.0]))
    assert np.abs(out - [1.5523542452872641, 2.0698056603830189]).max() < 1e-9
    out = op(0.5, np.array([0.3, -0.4]))
    assert np.abs(out - [0.10857426164440226, -0.14476568219253635]).max() < 1e-9
    assert np.array_equal(prox_power_three_halves(4)(1.0, np.zeros(4)), np.zeros(4))


def test_group_l1_soft_threshold():
    op = prox_group_l1(2)
    out = op(1.0, np.array([3.0, 4.0]))  # norm 5 -> scale 0.8
    assert np.abs(out - [2.4, 3.2]).max() < 1e-12
    # below threshold: zero
    assert np.array_equal(op(1.0, np.array([0.3, 0.4])), np.zeros(2))


def test_affine_projection_properties():
    lam = rng.standard_normal((3, 8))
    b = lam @ rng.standard_normal(8)
    op = project_affine(lam, b)
    b_centered = b - b.mean()
    r = rng.standard_normal(8)
    x = op(1.0, r)
    assert np.abs(lam @ x - b_centered).max() < 1e-9
    # idempotent and tau-independent
    assert np.abs(op(1.0, x) - x).max() < 1e-9
    assert np.abs(op(7.0, r) - x).max() < 1e-12


def test_affine_projection_range_check():
    lam = np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]])  # rank 1
    bad_b = np.array([1.0, 5.0])  # not proportional to (1, 2)
    with pytest.raises(OperatorError, match="range"):
        project_affine(lam, bad_b)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_projections_reject_non_finite_data(value):
    # nan > tol is false, so a non-finite b passed the range check and every
    # call returned NaN
    b = np.zeros(9)
    b[2] = value
    message = f"^{re.escape(f'b[2] must be finite, got {value}')}$"
    for build in (lambda: project_affine(np.eye(9), b), lambda: project_grid_divergence(3, b)):
        with pytest.raises(OperatorError, match=message):
            build()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_affine_projection_rejects_non_finite_lam(value):
    # a non-finite lam failed inside the pseudo-inverse, after a matmul
    # RuntimeWarning, as "SVD did not converge"
    lam = np.eye(3)
    lam[1, 2] = value
    message = f"^{re.escape(f'lam[1, 2] must be finite, got {value}')}$"
    with pytest.raises(OperatorError, match=message):
        project_affine(lam, np.zeros(3))


def test_projections_reject_malformed_data():
    with pytest.raises(OperatorError, match=re.escape("b must be a 1-D vector, got shape (3, 3)")):
        project_grid_divergence(3, np.zeros((3, 3)))
    with pytest.raises(OperatorError, match=re.escape("b must be a 1-D vector, got shape ()")):
        project_affine(np.eye(1), 0.0)
    with pytest.raises(OperatorError, match="b must have length 3"):
        project_affine(np.eye(3), np.zeros(2))
    with pytest.raises(OperatorError, match=re.escape("lam must be a 2-D matrix, got shape (3,)")):
        project_affine(np.ones(3), np.zeros(1))


GRID_SIDES = [3, 5, 12, 35]


@pytest.mark.identity
@pytest.mark.parametrize("p", GRID_SIDES)
def test_grid_divergence_matches_dense_projection(p):
    local = np.random.default_rng(500 + p)
    div = loop_divergence_matrix(p)
    b = local.standard_normal(p * p)
    dense = project_affine(div, b)
    spectral = project_grid_divergence(p, b)
    for tau in (0.0, 1.0):
        r = local.standard_normal(2 * p * p)
        assert np.abs(spectral(tau, r) - dense(tau, r)).max() <= 1e-12


@pytest.mark.parametrize("p", GRID_SIDES)
def test_grid_divergence_feasible_idempotent_firm(p):
    local = np.random.default_rng(600 + p)
    div = loop_divergence_matrix(p)
    b = local.standard_normal(p * p)
    b_centered = b - b.mean()
    op = project_grid_divergence(p, b)
    for _ in range(20):
        x, y = local.standard_normal((2, 2 * p * p)) * 3
        jx, jy = op(1.0, x), op(1.0, y)
        assert np.linalg.norm(div @ jx - b_centered) <= 1e-10
        assert np.abs(op(1.0, jx) - jx).max() <= 1e-12
        d = jx - jy
        assert float(d @ d) <= float(d @ (x - y)) + 1e-9


def test_grid_divergence_validation():
    with pytest.raises(OperatorError, match="length 16"):
        project_grid_divergence(4, np.zeros(15))
    # p = -1 would take a b of length 1, and a bool is no grid side
    for p in (0, -1, True, 2.5):
        with pytest.raises(OperatorError, match=re.escape(f"p >= 1, got p = {p!r}")):
            project_grid_divergence(p, np.zeros(1))
    r, b = np.arange(18.0), np.arange(9.0)
    want = project_grid_divergence(3, b)(1.0, r)
    assert identical_bits(project_grid_divergence(np.int64(3), b)(1.0, r), want)


def test_capacity_projection():
    op = project_capacity([0], [2], 0.5, 6)
    r = np.array([3.0, 4.0, 0.1, 0.2, 9.0, 9.0])
    out = op(1.0, r)
    assert np.abs(np.hypot(out[0], out[1]) - 0.5) < 1e-12
    assert np.abs(out[0] / out[1] - 3.0 / 4.0) < 1e-12  # direction kept
    assert np.array_equal(out[2:4], r[2:4])  # unconstrained block untouched
    assert np.array_equal(out[4:6], np.zeros(2))  # water block zeroed
    with pytest.raises(OperatorError):
        project_capacity([0], [0], 1.0, 6)
    for cap in (0.0, -1.0, np.nan):
        with pytest.raises(OperatorError, match="capacity"):
            project_capacity([0], [2], cap, 6)
    # an infinite capacity is a ball that clips nothing
    assert np.array_equal(project_capacity([0], [2], np.inf, 6)(1.0, r)[:4], r[:4])


@pytest.mark.parametrize("bridge, water, index", [
    ([5], [], "bridge index 5"), ([-1], [0], "bridge index -1"),
    ([0], [2], "water index 2"), ([1], [-3], "water index -3"),
])
def test_capacity_rejects_block_indices_outside_the_vector(bridge, water, index):
    # length 4 holds blocks 0 and 1; -1 would silently clip the last block
    with pytest.raises(OperatorError, match=re.escape(f"{index} is outside [0, 2)")):
        project_capacity(bridge, water, 0.3, 4)


@pytest.mark.parametrize("bridge, water, message", [
    ([1.7], [0], "bridge index 1.7 (float) is not an integer"),
    (np.array([2, 1.5]), [0], "bridge index 2.0 (float64) is not an integer"),
    ([1], [0, True], "water index True (bool) is not an integer"),
    ([1], np.array([False]), "water index False (bool) is not an integer"),
    ([1], ["0"], "water index 0 (str) is not an integer"),
    ([[0, 1]], [2], "bridge index set must be 1-D, got shape (1, 2)"),
    ([0], 2, "water index set must be 1-D, got shape ()"),
])
def test_capacity_rejects_malformed_index_sets(bridge, water, message):
    # a fraction would truncate, a bool read as 0 or 1, and a 2-D set fail
    # only at call time
    with pytest.raises(OperatorError, match=re.escape(message)):
        project_capacity(bridge, water, 0.5, 8)


def test_capacity_takes_integer_index_sets_of_any_integer_type():
    r = rng.standard_normal(8)
    want = project_capacity([1, 3], [0], 0.1, 8)(1.0, r)
    for bridge, water in [(np.array([1, 3], np.uint8), (np.int64(0),)),
                          ((1, np.int32(3)), np.array([0]))]:
        assert identical_bits(project_capacity(bridge, water, 0.1, 8)(1.0, r), want)
    # no water (an empty list is a float array to numpy)
    assert identical_bits(project_capacity([1], [], 0.1, 8)(1.0, r)[:2], r[:2])


def test_translated_quadratic_fixed_point():
    c = np.array([2.0, -1.0])
    op = prox_translated_quadratic(c, mu=3.0)
    # resolvent of mu(x - c): J(r) = (r + tau*mu*c)/(1 + tau*mu); J(c) = c
    assert np.abs(op(0.7, c) - c).max() < 1e-12
    r = np.array([1.0, 1.0])
    assert np.abs(op(2.0, r) - (r + 6.0 * c) / 7.0).max() < 1e-12


def test_negative_tau_rejected():
    op = zero_operator(2)
    with pytest.raises(OperatorError):
        op(-1.0, np.zeros(2))


@pytest.mark.parametrize(
    "op",
    [prox_group_l1(2), prox_translated_quadratic(np.zeros(2)),
     prox_hinge_affine(np.array([1.0, 1.0]))],
    ids=lambda op: op.name,
)
def test_nan_tau_rejected(op):
    with pytest.raises(OperatorError, match="got nan"):
        op(float("nan"), np.ones(2))


def hinge_input(s, target):
    """A random input r with s.r at target, up to rounding."""
    r = rng.standard_normal(s.size)
    return r + ((target - s @ r) / (s @ s)) * s


@pytest.mark.parametrize("branch", ["inactive", "kink", "deep", "signed_zero"])
@pytest.mark.parametrize("tau", [0.0, 0.4, 2.5])
def test_stacked_hinge_equals_scalar_bitwise(branch, tau):
    dim = 5
    offsets = (1.0, -0.5, 0.3, 2.0, 0.0)
    hinges = [prox_hinge_affine(rng.standard_normal(dim), off) for off in offsets]
    divisors = [1.0, 2.0, 3.0, 7.0, 5.0]
    stacked = stack_hinges([h.hinge for h in hinges], divisors)
    rows = []
    for h, dv in zip(hinges, divisors):
        s, offset = h.hinge
        q = (tau / dv) * (s @ s)
        if branch == "signed_zero":  # s.r is +-0.0, on the kink of offset 0.0
            rows.append(rng.choice([0.0, -0.0], dim))
            continue
        # p >= offset: inactive; offset - q < p < offset: kink; p <= offset - q: deep
        target = {"inactive": offset + 1.0, "kink": offset - 0.5 * q,
                  "deep": offset - q - 1.0}[branch]
        rows.append(hinge_input(s, target))
    r = np.array(rows)
    # the oracle: the scalar kernel, on one vector at a time
    want = np.array([scalar_hinge(*h.hinge)(tau / dv, ri)
                     for h, dv, ri in zip(hinges, divisors, r)])
    assert stacked.name == "hinge"
    assert np.array_equal(bits(stacked(tau, r)), bits(want))
    # a hinge alone is the stacked kernel on one row
    for h, dv, ri, want_i in zip(hinges, divisors, r, want):
        assert np.array_equal(bits(h(tau / dv, ri)), bits(want_i))
        assert np.array_equal(bits(stack_hinges([h.hinge], [dv])(tau, ri[None])[0]), bits(want_i))


def test_quadratic_solve_equals_cho_solve_bitwise():
    from scipy.linalg import cho_factor, cho_solve

    a = rng.standard_normal((7, 7))
    k = a @ a.T
    op = prox_quadratic(k, 0.3)
    for tau in (0.2, 1.0, 5.0):
        factor = cho_factor(np.eye(7) + 2.0 * tau * 0.3 * k)
        for _ in range(20):
            r = rng.standard_normal(7) * 10.0 ** rng.integers(-6, 7)
            assert np.array_equal(bits(op(tau, r)), bits(cho_solve(factor, r)))
    # no finite check: a non-finite input gives a non-finite output, which
    # the sweep reports as a NumericalError naming the node and operator
    for bad in (np.inf, -np.inf, np.nan):
        r = np.ones(7)
        r[2] = bad
        assert not np.isfinite(op(1.0, r)).all()
    with pytest.raises(ValueError, match="dimension"):
        op(1.0, np.ones(6))


def test_quadratic_factor_overflow_names_the_operator_and_step():
    # 2 tau weight K overflowed: a RuntimeWarning, then scipy's "array must
    # not contain infs or NaNs", naming neither the operator nor tau
    op = prox_quadratic(1e10 * np.eye(3), 1.0)
    message = "resolvent 'quadratic' at step size 1e+300: I + 2 tau weight K is not finite"
    with pytest.raises(OperatorError, match=f"^{re.escape(message)}$"):
        op(1e300, np.ones(3))
    assert np.allclose(op(1.0, np.full(3, 2e10 + 1.0)), 1.0, rtol=1e-14, atol=0)  # still usable



def test_an_indefinite_k_names_the_resolvent_and_step():
    # numpy's bare "1-th leading minor of the array is not positive
    # definite" named neither the resolvent nor the step size
    op = prox_quadratic(-np.eye(3), 1.0)
    message = ("resolvent 'quadratic' at step size 1.0: 1-th leading minor of "
               "I + 2 tau weight K is not positive definite")
    with pytest.raises(np.linalg.LinAlgError, match=f"^{re.escape(message)}$"):
        op(1.0, np.ones(3))
    assert np.array_equal(op(0.0, np.ones(3)), np.ones(3))  # tau = 0 factors nothing


OUT_CHECKED = {
    "zero": lambda: zero_operator(4),
    "capacity_projection": lambda: project_capacity([0], [1], 0.3, 4),
    "group_l1": lambda: prox_group_l1(4),
    "translated_quadratic": lambda: prox_translated_quadratic(np.zeros(4)),
}


@pytest.mark.parametrize("build", OUT_CHECKED.values(), ids=OUT_CHECKED.keys())
def test_an_out_that_cannot_hold_the_result_is_rejected_by_name(build):
    # an out of shape (6,) failed inside numpy, a (2, 2) one passed group_l1,
    # and a float32 one was rounded in silence or failed as a bare TypeError
    op, r = build(), np.arange(4.0)
    frozen = np.empty(4)
    frozen.flags.writeable = False
    for out, got in [(np.empty(6), "float64 array of shape (6,)"),
                     (np.empty((2, 2)), "float64 array of shape (2, 2)"),
                     (np.empty(4, np.float32), "float32 array of shape (4,)"),
                     (frozen, "read-only float64 array of shape (4,)"),
                     ([0.0] * 4, "list")]:
        message = (f"resolvent {op.name!r} needs out to be a writeable float64 array "
                   f"of shape (4,), got {got}")
        with pytest.raises(OperatorError, match=f"^{re.escape(message)}$"):
            op(1.0, r, out=out)
    want, out, same = op(1.0, r), np.full(4, np.nan), r.copy()
    assert op(1.0, r, out=out) is out and identical_bits(out, want)
    assert op(1.0, same, out=same) is same and identical_bits(same, want)


@pytest.mark.parametrize("build, n_taus, bound", [
    # a dim-50 factor is 20 kB: 200 of them held 4 MB when every tau was kept
    (lambda: prox_quadratic(np.eye(50), 0.5), 200, 20 * 50 * 50 * 8),
    # a one-row hinge's steps are a few hundred bytes: 2000 of them held 713 kB
    (lambda: prox_hinge_affine(np.ones(3)), 2000, 64 * 1024),
], ids=["quadratic", "hinge"])
def test_per_tau_caches_are_bounded(build, n_taus, bound):
    op = build()
    op(1.0, np.ones(op.dim))  # builds the hinge kernel and every scratch array
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for tau in np.linspace(0.1, 10.0, n_taus).tolist():
            op(tau, np.ones(op.dim))
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < bound


# ---------------------------------------------------------------------------
# 2-block kernels against their np.linalg.norm forms, bit for bit

PROPERTY = settings.get_profile("derandomized")
SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1e-160, -1e-200, 1.0, -3.5,
           1e154, -1e200, 1.7e308, np.inf, -np.inf, np.nan]
TAUS = [0.0, 1e-3, 0.5, 10.0]


def norm_power32(tau, r):
    blocks = r.reshape(-1, 2)
    norms = np.linalg.norm(blocks, axis=1)
    half = 0.75 * tau
    u = -half + np.sqrt(half * half + norms)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = (u[nz] ** 2) / norms[nz]
    return (blocks * scale[:, None]).reshape(r.shape)


def norm_group_l1(tau, r):
    blocks = r.reshape(-1, 2)
    norms = np.linalg.norm(blocks, axis=1)
    scale = np.zeros_like(norms)
    nz = norms > tau
    scale[nz] = 1.0 - tau / norms[nz]
    return (blocks * scale[:, None]).reshape(r.shape)


def norm_capacity(bridge, water, cap):
    def fn(tau, r):
        blocks = r.reshape(-1, 2).copy()
        blocks[water] = 0.0
        norms = np.linalg.norm(blocks[bridge], axis=1)
        over = norms > cap
        if np.any(over):
            blocks[bridge[over]] *= (cap / norms[over])[:, None]
        return blocks.reshape(r.shape)

    return fn


@pytest.mark.identity
def test_block_norms_equal_linalg_norm_on_special_values():
    pairs = np.array([(a, b) for a in SPECIAL for b in SPECIAL])
    with np.errstate(over="ignore"):
        assert identical_bits(_block_norms(pairs), np.linalg.norm(pairs, axis=1))


block_arrays = arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(2)),
    elements=st.one_of(st.floats(), st.sampled_from(SPECIAL)),
)


@pytest.mark.identity
@PROPERTY
@given(block_arrays)
def test_block_norms_equal_linalg_norm(blocks):
    with np.errstate(over="ignore"):
        assert identical_bits(_block_norms(blocks), np.linalg.norm(blocks, axis=1))


def kernel_pairs(cap, bridge=np.array([0, 2, 3, 6]), water=np.array([1, 5]), dim=16):
    return [
        (prox_power_three_halves(dim), norm_power32),
        (prox_group_l1(dim), norm_group_l1),
        (project_capacity(bridge, water, cap, dim), norm_capacity(bridge, water, cap)),
    ]


@pytest.mark.identity
@PROPERTY
@given(
    arrays(np.float64, 16, elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))),
    st.sampled_from(TAUS),
    st.sampled_from([1e-3, 0.5, 10.0]),
)
def test_block_kernels_equal_norm_forms(r, tau, cap):
    for op, ref in kernel_pairs(cap):
        with np.errstate(all="ignore"):
            assert identical_bits(op(tau, r), ref(tau, r)), op.name


@pytest.mark.identity
@pytest.mark.parametrize("tau", TAUS)
def test_block_kernels_equal_norm_forms_with_zero_blocks(tau):
    for scale in (1e-170, 1e-3, 1.0, 30.0, 1e160):
        r = scale * rng.standard_normal(16)
        r[rng.random(16) < 0.4] = rng.choice([0.0, -0.0, 5e-324])
        r[2:4] = r[10:12] = 0.0
        r[12:14] = -0.0
        for op, ref in kernel_pairs(0.5):
            with np.errstate(all="ignore"):
                assert identical_bits(op(tau, r), ref(tau, r)), (op.name, scale)


@pytest.mark.identity
def test_block_kernels_equal_norm_forms_at_transport_scale():
    # p = 35, the default geometry's bridge and water cells; each row mixes
    # signed zeros, NaN, infinities and blocks over the default capacity
    p, cap = 35, 5e-2
    geo = default_transport_geometry(p)
    bridge = rect_cells(p, geo["bridge"])
    water = np.concatenate([rect_cells(p, rect) for rect in geo["water"]])
    dim = 2 * p * p
    kernels = kernel_pairs(cap, bridge, water, dim)
    local = np.random.default_rng(35)
    rows = 0.1 * local.standard_normal((4, dim))
    for row in rows:
        hit = local.random(dim) < 0.05
        row[hit] = local.choice([0.0, -0.0, np.nan, np.inf, -np.inf], hit.sum())
    rows[1, 2 * bridge] = rows[1, 2 * bridge + 1] = -0.0
    assert (np.hypot(rows[0, 2 * bridge], rows[0, 2 * bridge + 1]) > cap).sum() > 100
    for tau in TAUS:
        for r in rows:
            for op, ref in kernels:
                with np.errstate(all="ignore"):
                    assert identical_bits(op(tau, r), ref(tau, r)), (op.name, tau)
                    same = r.copy()  # r may be out
                    assert identical_bits(op(tau, same, out=same), ref(tau, r)), op.name


@st.composite
def capacity_cases(draw):
    """Disjoint bridge and water sets over n blocks, each empty, single,
    unsorted, with repeats, or up to every block, and an input of special
    values: (bridge, water, cap, r)."""
    n = draw(st.integers(1, 12))
    marks = draw(st.lists(st.sampled_from("-bw"), min_size=n, max_size=n))

    def index_set(mark):
        members = [k for k, m in enumerate(marks) if m == mark]
        repeats = draw(st.lists(st.sampled_from(members), max_size=3)) if members else []
        return np.array(draw(st.permutations(members)) + repeats, dtype=np.intp)

    bridge, water = index_set("b"), index_set("w")
    cap = draw(st.sampled_from([1e-3, 0.5, 10.0, np.inf]))
    r = draw(arrays(np.float64, 2 * n, elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))))
    return bridge, water, cap, r


@pytest.mark.identity
@PROPERTY
@given(capacity_cases())
def test_capacity_equals_norm_form_on_generated_index_sets(case):
    bridge, water, cap, r = case
    op, want = project_capacity(bridge, water, cap, r.size), norm_capacity(bridge, water, cap)
    with np.errstate(all="ignore"):
        want = want(1.0, r)
        assert identical_bits(op(1.0, r), want)
        assert identical_bits(op(1.0, r, out=np.full(r.size, np.nan)), want)
        same = r.copy()  # r may be out
        assert identical_bits(op(1.0, same, out=same), want)


# ---------------------------------------------------------------------------
# every resolvent fixes its dimension when it is built


@pytest.mark.parametrize("dim", [0, -2, 2.0, "2", True, None])
def test_resolvent_dimension_must_be_a_positive_integer(dim):
    with pytest.raises(OperatorError, match="probe dimension must be a positive integer"):
        Resolvent(dim, lambda tau, r, out: None, name="probe")
    with pytest.raises(OperatorError, match="zero dimension must be a positive integer"):
        zero_operator(dim)
    assert Resolvent(np.int64(3), lambda tau, r, out: None).dim == 3


@pytest.mark.parametrize(
    "build",
    [prox_power_three_halves, prox_group_l1, lambda dim: project_capacity([0], [1], 0.3, dim)],
    ids=["power32", "group_l1", "capacity_projection"],
)
def test_blockwise_dimension_must_be_positive_and_even(build):
    for dim in (1, 7, 0, -4, 4.0, True):
        with pytest.raises(OperatorError, match="dimension must be a positive even integer"):
            build(dim)
    assert build(np.int64(8)).dim == 8


def test_resolvent_rejects_an_input_of_another_length():
    message = "resolvent 'translated_quadratic' has dimension 1, got an input of shape (5,)"
    with pytest.raises(OperatorError, match=re.escape(message)):
        prox_translated_quadratic(np.zeros(1))(1.0, np.ones(5))
    for op in make_catalog(6):
        for shape in [(4,), (8,), (6, 2), ()]:
            with pytest.raises(OperatorError, match=f"'{op.name}' has dimension 6"):
                op(1.0, np.ones(shape))
    # stacked hinges take one row of the common dimension per hinge
    hinges = stack_hinges([prox_hinge_affine(np.ones(3)).hinge for _ in range(2)], [1.0, 2.0])
    assert hinges(1.0, np.zeros((2, 3))).shape == (2, 3)
    with pytest.raises(OperatorError, match=re.escape("3, got an input of shape (2, 4)")):
        hinges(1.0, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# the grid projection against its pocketfft form


def pocketfft_grid_projection(div, p, b):
    """The grid projection as two scipy.fft transforms and two CSR products."""
    b = b - b.mean()
    line = 2.0 - 2.0 * np.cos(np.pi * np.arange(p) / p)
    eig = line[:, None] + line[None, :]
    inv_eig = np.divide(1.0, eig, out=np.zeros_like(eig), where=eig > 0)
    div_t = div.T.tocsr()

    def fn(tau, r):
        v = dctn((div @ r - b).reshape(p, p), norm="ortho")
        return r - div_t @ idctn(v * inv_eig, norm="ortho").ravel()

    return fn


def grid_case(p, seed):
    """A grid projection with its b, an input of a random scale, and its reference."""
    local = np.random.default_rng(seed)
    scale = 10.0 ** local.uniform(-3, 3)
    b = local.standard_normal(p * p) * scale * 10.0 ** local.uniform(-2, 2)
    r = local.standard_normal(2 * p * p) * scale
    div = loop_divergence_matrix(p)
    op, ref = project_grid_divergence(p, b), pocketfft_grid_projection(div, p, b)
    return div, b - b.mean(), r, op, ref


GRID_TOL = 1e-13  # relative to the largest entry


@pytest.mark.identity
@PROPERTY
@given(st.integers(3, 64), st.sampled_from([0.0, 1.0]), st.integers(0, 2**32 - 1))
def test_grid_projection_matches_pocketfft_form(p, tau, seed):
    _, _, r, op, ref = grid_case(p, seed)
    want = ref(tau, r)
    assert np.abs(op(tau, r) - want).max() <= GRID_TOL * np.abs(want).max()


@pytest.mark.identity
@PROPERTY
@given(st.integers(3, 64), st.integers(0, 2**32 - 1))
def test_grid_projection_feasible_and_idempotent(p, seed):
    div, b, r, op, _ = grid_case(p, seed)
    x = op(1.0, r)
    size = np.abs(x).max()
    assert np.abs(div @ x - b).max() <= GRID_TOL * max(size, np.abs(b).max())
    assert np.abs(op(1.0, x) - x).max() <= GRID_TOL * size


def stencil_input(rng, size):
    """Entries of magnitude 1e-8 to 1e8 with either sign, a share of them
    replaced by +-0.0, +-inf or NaN."""
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size, p=[.4, .4, .07, .07, .06])
    return np.where(rng.random(size) < 0.3, special, x)


@pytest.mark.identity
@PROPERTY
@given(st.integers(3, 64), st.integers(0, 2**32 - 1))
def test_grid_stencils_equal_csr_products_bit_for_bit(p, seed):
    rng = np.random.default_rng(seed)
    m = p * p
    div_csr = loop_divergence_matrix(p)
    div_t_csr = div_csr.T.tocsr()
    div, step = grid_stencils(p)
    for _ in range(2):  # the second call must not see the first's scratch
        r, r2, y = stencil_input(rng, 2 * m), stencil_input(rng, 2 * m), stencil_input(rng, m)
        y_before = y.copy()
        with np.errstate(invalid="ignore"):  # inf - inf in both forms
            assert identical_bits(div(r, np.empty(m)), div_csr @ r)
            want = r2 - div_t_csr @ y
            assert identical_bits(step(r2, y, np.empty(2 * m)), want)
            assert identical_bits(step(r2, y, r2), want)  # r may be out
        assert identical_bits(y, y_before)


# one resolvent from every constructor that takes a single vector of length 8
SINGLE_VECTOR = {
    "quadratic": lambda: prox_quadratic(np.eye(8), 0.5),
    "hinge": lambda: prox_hinge_affine(np.ones(8)),
    "power32": lambda: prox_power_three_halves(8),
    "group_l1": lambda: prox_group_l1(8),
    "affine_projection": lambda: project_affine(np.ones((1, 8)), [0.0]),
    "grid_divergence": lambda: project_grid_divergence(2, np.arange(4.0)),
    "capacity_projection": lambda: project_capacity([0], [1], 0.3, 8),
    "translated_quadratic": lambda: prox_translated_quadratic(np.zeros(8)),
    "zero": lambda: zero_operator(8),
}


@pytest.mark.parametrize("build", SINGLE_VECTOR.values(), ids=SINGLE_VECTOR.keys())
def test_single_vector_resolvent_rejects_rows(build):
    op = build()
    for shape in [(2, 8), (1, 8), (3, 1, 8)]:
        message = f"resolvent {op.name!r} has dimension 8, got an input of shape {shape}, not (8,)"
        with pytest.raises(OperatorError, match=re.escape(message)):
            op(1.0, np.ones(shape))


@pytest.mark.parametrize("build", SINGLE_VECTOR.values(), ids=SINGLE_VECTOR.keys())
def test_infinite_tau_rejected(build):
    # before the check, power32 and translated_quadratic gave NaN, quadratic
    # failed inside scipy and group_l1 returned zeros
    op = build()
    for tau in (np.inf, -np.inf):
        with pytest.raises(OperatorError, match=re.escape(f"resolvent {op.name!r} needs a "
                                                          f"nonnegative finite step size, got {tau}")):
            op(tau, np.ones(8))


def test_stacked_hinge_rejects_another_row_count():
    hinges = stack_hinges([prox_hinge_affine(np.ones(3)).hinge for _ in range(2)], [1.0, 2.0])
    for shape in [(3, 3), (1, 3), (3,), (1, 2, 3)]:
        message = f"resolvent 'hinge' has dimension 3, got an input of shape {shape}, not (2, 3)"
        with pytest.raises(OperatorError, match=re.escape(message)):
            hinges(1.0, np.zeros(shape))


# ---------------------------------------------------------------------------
# prox_quadratic's symmetry test against np.allclose(K, K.T, atol=1e-10)

SYMMETRY_VALUES = [0.0, -0.0, 1e-12, -1e-11, 1.0, -3.5, 1e3, -1e5, 1e300]
# the gap of K[i, j] from K[j, i] in units of allclose's bound 1e-10 + 1e-5 |K[j, i]|,
# on both sides of it; "flip" makes K[i, j] = -K[j, i], so ±0.0 pairs occur
SYMMETRY_GAPS = [0.0, 0.5, -0.999999, 1.0, -1.0, 1.000001, 2.0, 1e6, "flip"]


def gapped_matrix(values, gaps):
    k = np.array(values, dtype=float)
    for i in range(len(k)):
        for j in range(i):
            gap = gaps[i][j]
            bound = 1e-10 + 1e-5 * abs(k[j, i])
            k[i, j] = -k[j, i] if gap == "flip" else k[j, i] + gap * bound
    return k


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from(SYMMETRY_VALUES) | st.floats(-1e6, 1e6), min_size=n,
                      max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.sampled_from(SYMMETRY_GAPS), min_size=n, max_size=n),
             min_size=n, max_size=n))))
def test_symmetry_check_is_allclose_on_finite_k(case):
    k = gapped_matrix(*case)
    symmetric = bool(np.allclose(k, k.T, atol=1e-10))
    if symmetric:
        assert prox_quadratic(k, 1.0).dim == len(k)
    else:
        with pytest.raises(OperatorError, match="^K must be symmetric$"):
            prox_quadratic(k, 1.0)


@pytest.mark.parametrize("gap, symmetric", [(0.5, True), (1.000001, False)])
def test_symmetry_check_keeps_allclose_relative_term(gap, symmetric):
    # at |K| = 1e3 the relative term 1e-2 is what admits a gap of 5e-3
    k = gapped_matrix([[1.0, 1e3], [1e3, 1.0]], [[0.0, 0.0], [gap, 0.0]])
    assert np.allclose(k, k.T, atol=1e-10) is symmetric
    if symmetric:
        prox_quadratic(k, 1.0)
    else:
        with pytest.raises(OperatorError, match="^K must be symmetric$"):
            prox_quadratic(k, 1.0)
