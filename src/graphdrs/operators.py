"""Catalogue of maximal monotone operators exposed through their resolvents.

Every operator is a :class:`Resolvent`: a map (step tau, input r) -> output,
single-valued, everywhere defined and firmly nonexpansive.  The step is a
call-time argument because the solver uses node-dependent steps.

Every resolvent fixes its dimension, a positive integer, when it is built,
and rejects an input of shape other than (dim,), or (k, dim) for k stacked
hinges.  ``op(tau, r, out=None)`` writes into ``out`` (allocated when None),
a writeable float64 array of r's shape, and returns it; ``r`` may be
``out``, which is not checked; a call in place, as every sweep makes,
copies nothing onto itself.  Kernels keep temporaries in scratch made once,
at construction, so calls on one resolvent must not overlap.
"""

import functools
import math
import numbers

import numpy as np

from ._checks import array, integer, real
from ._compiled import load

TAU_CACHE = 16  # step sizes with kept factors; the SVM sweep's 10 sigmas fit


class OperatorError(ValueError):
    """Invalid operator construction parameters."""


class Resolvent:
    """A maximal monotone operator accessed solely through (I + tau*A)^(-1):
    fn(tau, r, out) writes J_tau(r) into out, and r may be out."""

    def __init__(self, dim, fn, name="resolvent", rows=None):
        self.dim = integer(f"{name} dimension", dim, OperatorError, "positive")
        self.name = name
        self._fn = fn
        self._shape = (dim,) if rows is None else (
            integer("rows", rows, OperatorError, "positive"), dim)  # stacked hinges

    def __call__(self, tau, r, out=None):
        if not 0 <= tau < math.inf:  # NaN fails this too
            raise OperatorError(f"resolvent {self.name!r} needs a nonnegative finite "
                                f"step size, got {tau}")
        r = np.asarray(r, dtype=float)
        if r.shape != self._shape:
            raise OperatorError(f"resolvent {self.name!r} has dimension {self.dim}, "
                                f"got an input of shape {r.shape}, not {self._shape}")
        if out is None:
            out = np.empty(r.shape)
        elif out is not r and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                   and out.shape == r.shape and out.flags.writeable):
            got = (f"{'' if out.flags.writeable else 'read-only '}{out.dtype} array of shape "
                   f"{out.shape}" if isinstance(out, np.ndarray) else type(out).__name__)
            raise OperatorError(f"resolvent {self.name!r} needs out to be a writeable float64 "
                                f"array of shape {r.shape}, got {got}")
        self._fn(tau, r, out)
        return out

    def __repr__(self):
        return f"Resolvent({self.name}, dim={self.dim})"


def _n_blocks(dim, name):
    """dim // 2, the number of 2-vector blocks of a positive even dim."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 2 or dim % 2:
        raise OperatorError(f"{name} dimension must be a positive even integer, got {dim!r}")
    return dim // 2


def _block_norms(blocks, out=None, tmp=None):
    """The norms of 2-vector blocks, bit for bit ``np.linalg.norm(blocks,
    axis=1)``, which squares and adds without rescaling, at a fifth of its
    cost for 1225 blocks (4.5 against 23.7 us, numpy 2.4); into out, with
    tmp, an (n, 2) array, holding the squares, when given."""
    sq = np.multiply(blocks, blocks, out=tmp)
    out = np.add(sq[:, 0], sq[:, 1], out=out)
    return np.sqrt(out, out=out)


def _scale_blocks(blocks, scale, out):
    """out's 2-vector blocks = blocks * scale[:, None], bit for bit, as one
    1-D multiply per column: numpy runs that broadcast through a slower
    loop.  out is an (n, 2) array or a flat one of 2 n entries."""
    flux = np.reshape(out, (-1, 2), copy=False)
    np.multiply(blocks[:, 0], scale, out=flux[:, 0])
    np.multiply(blocks[:, 1], scale, out=flux[:, 1])


def prox_quadratic(k_matrix, weight):
    """Resolvent of tau * weight * x^T K x for symmetric PSD K.

    J_tau(r) = (I + 2 tau weight K)^(-1) r; the Cholesky factor is kept for
    the last TAU_CACHE step sizes (the solver never changes tau mid-run).
    """
    lapack = load("scipy.linalg._flapack")  # lazy: its only user
    k_matrix = np.asarray(k_matrix, dtype=float)
    if k_matrix.ndim != 2 or k_matrix.shape[0] != k_matrix.shape[1]:
        raise OperatorError("K must be square")
    array("K", k_matrix, OperatorError, ndim=2)  # before symmetry, which NaN or inf fails too
    # np.allclose(K, K.T, atol=1e-10)'s own test on a finite K, at 40 % of its cost (n = 50)
    if not (np.abs(k_matrix - k_matrix.T) <= 1e-10 + 1e-5 * np.abs(k_matrix.T)).all():
        raise OperatorError("K must be symmetric")
    real("weight", weight, OperatorError, "nonnegative and finite")
    n = k_matrix.shape[0]
    eye = np.eye(n)
    potrs = lapack.dpotrs

    @functools.lru_cache(maxsize=TAU_CACHE)
    def factor(tau):
        # scipy's cho_factor: finite check, then the upper factor of a, ours to overwrite
        with np.errstate(all="ignore"):
            a = eye + 2.0 * tau * weight * k_matrix
        if not np.isfinite(a).all():
            raise OperatorError(f"resolvent 'quadratic' at step size {tau}: "
                                "I + 2 tau weight K is not finite")
        c, info = lapack.dpotrf(a, lower=False, overwrite_a=True, clean=False)
        if info > 0:
            raise np.linalg.LinAlgError(f"resolvent 'quadratic' at step size {tau}: {info}-th "
                                        "leading minor of I + 2 tau weight K is not positive "
                                        "definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        return c

    def fn(tau, r, out):
        if r is not out:  # a sweep resolves in place
            np.copyto(out, r)
        if tau == 0.0 or weight == 0.0:
            return
        # scipy's cho_solve without its wrapping or finite check (a non-finite
        # r gives a non-finite out, which the sweep reports), in place in out;
        # positional (lower=0, overwrite_b=1): keywords cost 0.3 of 2.3 us (n = 50)
        x, info = potrs(factor(tau), out, 0, 1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        if x is not out:  # potrs solved a copy of a non-contiguous out
            out[...] = x

    return Resolvent(n, fn, name="quadratic")


def prox_hinge_affine(s, offset=1.0):
    """Resolvent of tau * max(offset - s.r, 0), reduced to one dimension.

    With p = s.r and q = tau*|s|^2 the projection of p is: p itself when the
    hinge is inactive (p >= offset), p + q deep in the active region, and the
    kink value offset in between.  A call is the :func:`stack_hinges` kernel
    on its row ``.hinge`` = (s, offset), divisor 1, built on the first call.
    """
    s = array("s", s, OperatorError, finite=False)
    s_sq = float(s @ s)
    if not math.isfinite(s_sq):  # one dot tests s; an SVM builds a hinge per point
        array("s", s, OperatorError)
    real("offset", offset, OperatorError, "finite")
    if s_sq == 0.0:
        raise OperatorError("direction vector s must be nonzero")
    row, kernel = (s, float(offset)), None

    def fn(tau, r, out):  # reads the row, not res: no cycle outlives a dropped hinge
        nonlocal kernel
        if kernel is None:
            kernel = stack_hinges([row], [1.0])._fn
        kernel(tau, r[None], out[None])

    res = Resolvent(s.size, fn, name="hinge")
    res.hinge = row  # the row a plan stacks
    return res


def stack_hinges(rows, divisors):
    """Hinges of rows (s, offset), each a hinge's ``.hinge``, as one stacked call.

    Row i of ``stacked(tau, r)`` is ``prox_hinge_affine(*rows[i])(tau /
    divisors[i], r[i])`` bit for bit, as a hinge is this kernel on one row:
    each s.r is taken by ``np.matmul`` of (k, 1, d) by (k, d, 1), the BLAS
    dot of ``s @ r`` (einsum and row sums round differently), and the branch
    picked by masked writes, the first branch last.  The steps q = (tau /
    divisors) |s|^2 and offset - q are kept for the last TAU_CACHE taus.
    """
    s = np.stack([v for v, _ in rows])
    offset = np.array([off for _, off in rows])
    s_sq = np.array([float(v @ v) for v in s])
    s_row = s[:, None, :]
    divisors = np.asarray(divisors, dtype=float)
    dots, step = np.empty((len(s), 1, 1)), np.empty_like(s)
    pi, hit = np.empty(len(s)), np.empty(len(s), bool)
    p = dots[:, 0, 0]

    @functools.lru_cache(maxsize=TAU_CACHE)
    def steps(tau):
        q = (tau / divisors) * s_sq
        return q, offset - q

    def fn(tau, r, out):
        q, low = steps(tau)
        np.matmul(s_row, r[:, :, None], out=dots)
        np.copyto(pi, offset)
        np.add(p, q, out=pi, where=np.less_equal(p, low, out=hit))
        np.copyto(pi, p, where=np.greater_equal(p, offset, out=hit))
        np.divide(np.subtract(pi, p, out=pi), s_sq, out=pi)
        np.add(r, np.multiply(pi[:, None], s, out=step), out=out)

    return Resolvent(s.shape[1], fn, name="hinge", rows=len(s))


def prox_power_three_halves(dim):
    """Blockwise resolvent of tau * |block|^(3/2) over the 2-vector blocks of R^dim.

    Per block the direction is kept and the magnitude m = u^2 where u is the
    nonnegative root of u^2 + (3 tau / 2) u - |r| = 0 (closed form, exact and
    branch-free; the discriminant is always nonnegative).  The scale m / |r|
    is divided only where |r| > 0 and multiplies each block column by
    :func:`_scale_blocks`.
    """
    n = _n_blocks(dim, "power32")
    norms, u, scale, nz = np.empty(n), np.empty(n), np.empty(n), np.empty(n, bool)
    sq = np.empty((n, 2))

    def fn(tau, r, out):
        blocks = r.reshape(-1, 2)
        _block_norms(blocks, norms, sq)
        half = 0.75 * tau  # (3 tau / 2) / 2
        np.add(-half, np.sqrt(np.add(half * half, norms, out=u), out=u), out=u)
        np.multiply(u, u, out=u)
        scale.fill(0.0)
        np.divide(u, norms, out=scale, where=np.greater(norms, 0, out=nz))
        _scale_blocks(blocks, scale, out)

    return Resolvent(dim, fn, name="power32")


def prox_group_l1(dim):
    """Blockwise resolvent of tau * |block| (group soft-thresholding) on R^dim:
    the scale 1 - tau / |r|, divided only where |r| > tau and 0 elsewhere,
    multiplies each block column by :func:`_scale_blocks`."""
    n = _n_blocks(dim, "group_l1")
    norms, scale, nz = np.empty(n), np.empty(n), np.empty(n, bool)
    sq = np.empty((n, 2))

    def fn(tau, r, out):
        blocks = r.reshape(-1, 2)
        _block_norms(blocks, norms, sq)
        scale.fill(0.0)
        np.divide(tau, norms, out=scale, where=np.greater(norms, tau, out=nz))
        np.subtract(1.0, scale, out=scale, where=nz)
        _scale_blocks(blocks, scale, out)

    return Resolvent(dim, fn, name="group_l1")


def project_affine(lam, b, range_tol=1e-6):
    """Euclidean projection onto {x : lam @ x = b}; independent of tau.

    b is recentered to zero mean before projecting (the divergence data of a
    pair of probability densities must sum to zero up to discretization
    error); construction fails if the corrected b is not in the range of lam.
    """
    lam = np.asarray(lam.todense()) if hasattr(lam, "todense") else lam
    lam, b = array("lam", lam, OperatorError, ndim=2), array("b", b, OperatorError)
    real("range_tol", range_tol, OperatorError, "nonnegative and finite")
    m, n = lam.shape
    if m == 0:  # b.mean() below would warn
        raise OperatorError(f"lam must have at least one row, got shape {lam.shape}")
    if b.shape != (m,):
        raise OperatorError(f"b must have length {m}")
    b = b - b.mean()
    gram = lam @ lam.T
    gram_pinv = np.linalg.pinv(gram, rcond=1e-12)
    # range check: project the zero point and verify feasibility
    x0 = lam.T @ (gram_pinv @ b)
    resid = np.linalg.norm(lam @ x0 - b)
    if resid > range_tol * max(np.linalg.norm(b), 1e-30):
        raise OperatorError(
            f"b is not in the range of the constraint matrix (residual {resid:g})"
        )

    def fn(tau, r, out):
        np.subtract(r, lam.T @ (gram_pinv @ (lam @ r - b)), out=out)

    return Resolvent(n, fn, name="affine_projection")


def grid_stencils(p):
    """The p x p no-flux grid divergence as two stencils applied by slicing.

    A flow of length 2 p^2 holds (sx, sy) at entries (2k, 2k+1) of cell
    k = row*p + col: the flux to the right neighbour and to the one below.
    Fluxes across the outer boundary are ignored (no flux), so div has
    entries +-1 and zero column sums.  ``div(r, out)`` writes div @ r and
    ``step(r, y, out)`` writes r - div.T @ y (r may be out), each entry
    summed from zero in ascending column order: the CSR products bit for
    bit.  Both keep scratch made here, so calls must not overlap.
    """
    m = p * p
    keep = np.arange(m) % p != p - 1  # cells with a right neighbour
    hz, y0, dh, dv = np.zeros(m), np.empty(m), np.zeros(m - 1), np.empty(m - p)

    def div(r, out):
        flux = r.reshape(-1, 2)
        np.copyto(hz, flux[:, 0], where=keep)  # never -0.0 in out: hz's +0.0 is inert
        out[:p] = 0.0
        np.subtract(0.0, flux[:-p, 1], out=out[p:])
        out[1:] -= hz[:-1]
        np.add(out, hz, out=out)
        out[:-p] += flux[:-p, 1]
        return out

    def step(r, y, out):
        np.add(y, 0.0, out=y0)  # summed from zero, as CSR does; dh is +0.0 off keep
        if r is not out:  # a sweep resolves in place
            np.copyto(out, r)
        flux = np.reshape(out, (-1, 2), copy=False)
        flux[:-1, 0] -= np.subtract(y0[:-1], y0[1:], out=dh, where=keep[:-1])
        flux[:-p, 1] -= np.subtract(y0[:-p], y0[p:], out=dv)
        return out

    return div, step


def project_grid_divergence(p, b):
    """Projection onto {x : div @ x = b}, div the :func:`grid_stencils` divergence.

    The map of :func:`project_affine` (b recentered, zero mode dropped)
    without forming div: div @ div.T is the 5-point Neumann Laplacian,
    diagonalized by the orthonormal 2-D DCT-II X -> C X C^T.  C is built
    here by one DCT; a call costs four p x p matrix products (C X C^T and
    C^T X C) and the two grid stencils, and makes no FFT call and no sparse
    product.
    """
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p < 1:
        raise OperatorError(f"need an integer grid side p >= 1, got p = {p!r}")
    m = p * p
    b = array("b", b, OperatorError)
    if b.shape != (m,):
        raise OperatorError(f"need b of length {m} for grid side {p}, got shape {b.shape}")
    b = b - b.mean()
    line = 2.0 - 2.0 * np.cos(np.pi * np.arange(p) / p)
    eig = line[:, None] + line[None, :]
    inv_eig = np.divide(1.0, eig, out=np.zeros_like(eig), where=eig > 0)
    # scipy.fft.dct(np.eye(p), norm="ortho", axis=0): type 2, inorm 1, one thread
    pocketfft = load("scipy.fft._pocketfft.pypocketfft")  # lazy: only grid problems load it
    dct_mat = pocketfft.dct(np.eye(p), 2, (0,), 1, None, 1, None)
    dct_t = np.ascontiguousarray(dct_mat.T)
    div, step = grid_stencils(p)
    g, t = np.empty(m), np.empty((p, p))
    grid = g.reshape(p, p)

    def fn(tau, r, out):
        np.subtract(div(r, g), b, out=g)
        np.matmul(np.matmul(dct_mat, grid, out=t), dct_t, out=grid)
        np.multiply(grid, inv_eig, out=grid)
        np.matmul(np.matmul(dct_t, grid, out=t), dct_mat, out=grid)
        step(r, g, out)

    return Resolvent(2 * m, fn, name="affine_projection")


def _index_set(label, idx, n):
    """idx as a 1-D integer array of block indices in [0, n); an
    OperatorError names the set and its shape or its first bad entry."""
    arr = np.asarray(idx)
    if arr.ndim != 1:
        raise OperatorError(f"{label} index set must be 1-D, got shape {arr.shape}")
    # an integer array is checked whole; any other set entry by entry as
    # given, since asarray reads [1, True] as ints and [1, 2.5] as floats
    whole = isinstance(idx, np.ndarray) and arr.dtype.kind in "iu"
    for v in arr[(arr < 0) | (arr >= n)] if whole else idx:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise OperatorError(f"{label} index {v} ({type(v).__name__}) is not an integer")
        if not 0 <= v < n:
            raise OperatorError(f"{label} index {v} is outside [0, {n})")
    return arr.astype(np.intp)


def project_capacity(bridge_idx, water_idx, cap, dim):
    """Blockwise projection: water blocks to zero, bridge blocks into a ball.

    Of the 2-vector blocks of R^dim, those indexed by water_idx map to zero,
    those indexed by bridge_idx are radially clipped to norm cap, all others
    pass through; tau plays no role.  The water and bridge entries are flat
    index maps built here: a call zeroes, gathers and scatters them.
    """
    n = _n_blocks(dim, "capacity_projection")
    bridge = _index_set("bridge", bridge_idx, n)
    water = _index_set("water", water_idx, n)
    if np.intersect1d(bridge, water).size:
        raise OperatorError("bridge and water index sets overlap")
    real("capacity", cap, OperatorError)
    if not cap > 0:  # also rejects nan; inf clips nothing
        raise OperatorError(f"capacity must be positive, got {cap}")

    # flat entry maps: block k is entries 2k and 2k + 1; flat indexing costs
    # a third of 2-D row indexing
    water_at = np.column_stack((2 * water, 2 * water + 1)).ravel()
    near_at = np.column_stack((2 * bridge, 2 * bridge + 1)).ravel()
    near = np.empty(near_at.size)
    blocks = near.reshape(-1, 2)
    norms, scale = np.empty(bridge.size), np.empty(bridge.size)
    sq = np.empty((bridge.size, 2))
    over = np.empty(bridge.size, bool)

    def fn(tau, r, out):
        if r is not out:  # a sweep resolves in place
            np.copyto(out, r)
        out[water_at] = 0.0
        np.take(out, near_at, out=near, mode="clip")  # checked indices; "raise" buffers out
        if np.greater(_block_norms(blocks, norms, sq), cap, out=over).any():
            scale.fill(1.0)  # x * 1.0 is x: the others keep their bits
            np.divide(cap, norms, out=scale, where=over)
            _scale_blocks(blocks, scale, near)
            out[near_at] = near

    return Resolvent(dim, fn, name="capacity_projection")


def prox_translated_quadratic(c, mu=1.0):
    """Resolvent of the affine operator x -> mu (x - c); a test workhorse."""
    c = array("c", c, OperatorError)
    real("mu", mu, OperatorError, "positive and finite")

    def fn(tau, r, out):
        np.add(r, tau * mu * c, out=out)
        out /= 1.0 + tau * mu

    return Resolvent(c.size, fn, name="translated_quadratic")


def zero_operator(dim):
    """Resolvent of the zero operator: the identity map."""
    return Resolvent(dim, lambda tau, r, out: np.copyto(out, r), name="zero")
