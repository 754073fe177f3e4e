import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphdrs.operators import (
    OperatorError,
    _block_norms,
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
from graphdrs.problems import divergence_matrix

rng = np.random.default_rng(123)

K_SMALL = np.array([[2.0, 1.0], [1.0, 3.0]])


def make_catalog(dim=6):
    """One instance of every operator on a common even dimension."""
    lam = rng.standard_normal((2, dim))
    b = lam @ rng.standard_normal(dim)
    return [
        prox_quadratic(np.eye(dim) + 0.1 * np.ones((dim, dim)), 0.5),
        prox_hinge_affine(rng.standard_normal(dim), 1.0),
        prox_power_three_halves(),
        prox_group_l1(),
        project_affine(lam, b),
        project_capacity([0], [1], 0.3),
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
    op = prox_power_three_halves()
    out = op(1.0, np.array([3.0, 4.0]))
    assert np.abs(out - [1.5523542452872641, 2.0698056603830189]).max() < 1e-9
    out = op(0.5, np.array([0.3, -0.4]))
    assert np.abs(out - [0.10857426164440226, -0.14476568219253635]).max() < 1e-9
    assert np.array_equal(op(1.0, np.zeros(4)), np.zeros(4))


def test_group_l1_soft_threshold():
    op = prox_group_l1()
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


GRID_SIDES = [3, 5, 12, 35]


@pytest.mark.parametrize("p", GRID_SIDES)
def test_grid_divergence_matches_dense_projection(p):
    local = np.random.default_rng(500 + p)
    div = divergence_matrix(p)
    b = local.standard_normal(p * p)
    dense = project_affine(div, b)
    spectral = project_grid_divergence(div, p, b)
    for tau in (0.0, 1.0):
        r = local.standard_normal(2 * p * p)
        assert np.abs(spectral(tau, r) - dense(tau, r)).max() <= 1e-12


@pytest.mark.parametrize("p", GRID_SIDES)
def test_grid_divergence_feasible_idempotent_firm(p):
    local = np.random.default_rng(600 + p)
    div = divergence_matrix(p)
    b = local.standard_normal(p * p)
    b_centered = b - b.mean()
    op = project_grid_divergence(div, p, b)
    for _ in range(20):
        x, y = local.standard_normal((2, 2 * p * p)) * 3
        jx, jy = op(1.0, x), op(1.0, y)
        assert np.linalg.norm(div @ jx - b_centered) <= 1e-10
        assert np.abs(op(1.0, jx) - jx).max() <= 1e-12
        d = jx - jy
        assert float(d @ d) <= float(d @ (x - y)) + 1e-9


def test_grid_divergence_validation():
    div = divergence_matrix(4)
    with pytest.raises(OperatorError, match="length 16"):
        project_grid_divergence(div, 4, np.zeros(15))
    with pytest.raises(OperatorError):
        project_grid_divergence(div, 5, np.zeros(25))
    # right shape, wrong matrix: its Gram matrix is not the grid Laplacian
    with pytest.raises(OperatorError, match="grid divergence"):
        project_grid_divergence(2.0 * div, 4, np.arange(16.0))


def test_capacity_projection():
    op = project_capacity([0], [2], 0.5)
    r = np.array([3.0, 4.0, 0.1, 0.2, 9.0, 9.0])
    out = op(1.0, r)
    assert np.abs(np.hypot(out[0], out[1]) - 0.5) < 1e-12
    assert np.abs(out[0] / out[1] - 3.0 / 4.0) < 1e-12  # direction kept
    assert np.array_equal(out[2:4], r[2:4])  # unconstrained block untouched
    assert np.array_equal(out[4:6], np.zeros(2))  # water block zeroed
    with pytest.raises(OperatorError):
        project_capacity([0], [0], 1.0)
    for cap in (0.0, -1.0, np.nan):
        with pytest.raises(OperatorError, match="capacity"):
            project_capacity([0], [2], cap)
    # an infinite capacity is a ball that clips nothing
    assert np.array_equal(project_capacity([0], [2], np.inf)(1.0, r)[:4], r[:4])


def test_translated_quadratic_fixed_point():
    c = np.array([2.0, -1.0])
    op = prox_translated_quadratic(c, mu=3.0)
    # resolvent of mu(x - c): J(r) = (r + tau*mu*c)/(1 + tau*mu); J(c) = c
    assert np.abs(op(0.7, c) - c).max() < 1e-12
    r = np.array([1.0, 1.0])
    assert np.abs(op(2.0, r) - (r + 6.0 * c) / 7.0).max() < 1e-12
    assert op.affine_mu == 3.0


def test_negative_tau_rejected():
    op = zero_operator(2)
    with pytest.raises(OperatorError):
        op(-1.0, np.zeros(2))


@pytest.mark.parametrize(
    "op",
    [prox_group_l1(), prox_translated_quadratic(np.zeros(2)),
     prox_hinge_affine(np.array([1.0, 1.0]))],
    ids=lambda op: op.name,
)
def test_nan_tau_rejected(op):
    with pytest.raises(OperatorError, match="got nan"):
        op(float("nan"), np.ones(2))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def hinge_input(s, target):
    """A random input r with s.r at target, up to rounding."""
    r = rng.standard_normal(s.size)
    return r + ((target - s @ r) / (s @ s)) * s


@pytest.mark.parametrize("branch", ["inactive", "kink", "deep"])
@pytest.mark.parametrize("tau", [0.0, 0.4, 2.5])
def test_stacked_hinge_equals_scalar_bitwise(branch, tau):
    dim = 5
    hinges = [prox_hinge_affine(rng.standard_normal(dim), off) for off in (1.0, -0.5, 0.3, 2.0)]
    divisors = [1.0, 2.0, 3.0, 7.0]
    stacked = stack_hinges(hinges, divisors)
    rows = []
    for h, dv in zip(hinges, divisors):
        s, offset = h.hinge
        q = (tau / dv) * (s @ s)
        # p >= offset: inactive; offset - q < p < offset: kink; p <= offset - q: deep
        target = {"inactive": offset + 1.0, "kink": offset - 0.5 * q,
                  "deep": offset - q - 1.0}[branch]
        rows.append(hinge_input(s, target))
    r = np.array(rows)
    want = np.array([h(tau / dv, ri) for h, dv, ri in zip(hinges, divisors, r)])
    assert stacked.name == "hinge"
    assert np.array_equal(bits(stacked(tau, r)), bits(want))


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
    for bad in (np.inf, -np.inf, np.nan):
        r = np.ones(7)
        r[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            op(1.0, r)
    with pytest.raises(ValueError, match="dimension"):
        op(1.0, np.ones(6))


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


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def test_block_norms_equal_linalg_norm_on_special_values():
    pairs = np.array([(a, b) for a in SPECIAL for b in SPECIAL])
    with np.errstate(over="ignore"):
        assert same_bits(_block_norms(pairs), np.linalg.norm(pairs, axis=1))


block_arrays = arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(2)),
    elements=st.one_of(st.floats(), st.sampled_from(SPECIAL)),
)


@PROPERTY
@given(block_arrays)
def test_block_norms_equal_linalg_norm(blocks):
    with np.errstate(over="ignore"):
        assert same_bits(_block_norms(blocks), np.linalg.norm(blocks, axis=1))


def kernel_pairs(cap):
    bridge, water = np.array([0, 2, 3, 6]), np.array([1, 5])
    return [
        (prox_power_three_halves(), norm_power32),
        (prox_group_l1(), norm_group_l1),
        (project_capacity(bridge, water, cap), norm_capacity(bridge, water, cap)),
    ]


@PROPERTY
@given(
    arrays(np.float64, 16, elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))),
    st.sampled_from(TAUS),
    st.sampled_from([1e-3, 0.5, 10.0]),
)
def test_block_kernels_equal_norm_forms(r, tau, cap):
    for op, ref in kernel_pairs(cap):
        with np.errstate(all="ignore"):
            assert same_bits(op(tau, r), ref(tau, r)), op.name


@pytest.mark.parametrize("tau", TAUS)
def test_block_kernels_equal_norm_forms_with_zero_blocks(tau):
    for scale in (1e-170, 1e-3, 1.0, 30.0, 1e160):
        r = scale * rng.standard_normal(16)
        r[rng.random(16) < 0.4] = rng.choice([0.0, -0.0, 5e-324])
        r[2:4] = r[10:12] = 0.0
        r[12:14] = -0.0
        for op, ref in kernel_pairs(0.5):
            with np.errstate(all="ignore"):
                assert same_bits(op(tau, r), ref(tau, r)), (op.name, scale)
