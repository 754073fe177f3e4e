"""Catalogue of maximal monotone operators exposed through their resolvents.

Every operator is a :class:`Resolvent`: a map (step tau, input r) -> output,
single-valued, everywhere defined and firmly nonexpansive.  The step is a
call-time argument because the solver uses node-dependent steps.
"""

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs


class OperatorError(ValueError):
    """Invalid operator construction parameters."""


class Resolvent:
    """A maximal monotone operator accessed solely through (I + tau*A)^(-1)."""

    def __init__(self, dim, fn, name="resolvent"):
        self.dim = dim
        self.name = name
        self._fn = fn

    def __call__(self, tau, r):
        if not tau >= 0:  # NaN fails this too
            raise OperatorError(f"step size must be nonnegative, got {tau}")
        return self._fn(tau, np.asarray(r, dtype=float))

    def __repr__(self):
        return f"Resolvent({self.name}, dim={self.dim})"


def _as_blocks(r):
    if r.size % 2:
        raise OperatorError("input length must be even for 2-vector blocks")
    return r.reshape(-1, 2)


def _block_norms(blocks):
    """The norms of 2-vector blocks, bit for bit ``np.linalg.norm(blocks,
    axis=1)``, which squares and adds without rescaling, at a fifth of its cost."""
    x0, x1 = blocks[:, 0], blocks[:, 1]
    return np.sqrt(x0 * x0 + x1 * x1)


def prox_quadratic(k_matrix, weight):
    """Resolvent of tau * weight * x^T K x for symmetric PSD K.

    J_tau(r) = (I + 2 tau weight K)^(-1) r; the Cholesky factor is cached
    per step size (the solver never changes tau mid-run).
    """
    k_matrix = np.asarray(k_matrix, dtype=float)
    if k_matrix.ndim != 2 or k_matrix.shape[0] != k_matrix.shape[1]:
        raise OperatorError("K must be square")
    if not np.allclose(k_matrix, k_matrix.T, atol=1e-10):
        raise OperatorError("K must be symmetric")
    if weight < 0:
        raise OperatorError("weight must be nonnegative")
    n = k_matrix.shape[0]
    eye = np.eye(n)
    potrs = get_lapack_funcs("potrs", (eye,))
    cache = {}

    def fn(tau, r):
        if tau == 0.0 or weight == 0.0:
            return r.copy()
        if tau not in cache:
            cache[tau] = cho_factor(eye + 2.0 * tau * weight * k_matrix)
        # scipy's cho_solve without its per-call wrapping: the same finite
        # check, then the same LAPACK solve (which checks the length)
        c, lower = cache[tau]
        x, info = potrs(c, np.asarray_chkfinite(r), lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x

    return Resolvent(n, fn, name="quadratic")


def prox_hinge_affine(s, offset=1.0):
    """Resolvent of tau * max(offset - s.r, 0), reduced to one dimension.

    With p = s.r and q = tau*|s|^2 the projection of p is: p itself when the
    hinge is inactive (p >= offset), p + q deep in the active region, and the
    kink value offset in between.
    """
    s = np.asarray(s, dtype=float)
    s_sq = float(s @ s)
    if s_sq == 0.0:
        raise OperatorError("direction vector s must be nonzero")

    def fn(tau, r):
        p = float(s @ r)
        q = tau * s_sq
        if p >= offset:
            pi = p
        elif p <= offset - q:
            pi = p + q
        else:
            pi = offset
        return r + ((pi - p) / s_sq) * s

    res = Resolvent(s.size, fn, name="hinge")
    res.hinge = (s, float(offset))  # read by :func:`stack_hinges`
    return res


def stack_hinges(hinges, divisors):
    """The resolvents of several hinges as one call on stacked inputs.

    Row i of ``stacked(tau, r)`` is ``hinges[i](tau / divisors[i], r[i])``
    bit for bit: the same operations elementwise, with each s.r taken by
    ``np.matmul`` of (k, 1, d) by (k, d, 1), which calls the same BLAS dot
    as the scalar form's ``s @ r`` (einsum and row sums round differently),
    and the branch picked by ``np.where``.
    """
    s = np.stack([h.hinge[0] for h in hinges])
    offset = np.array([h.hinge[1] for h in hinges])
    s_sq = np.array([float(v @ v) for v in s])
    s_row = s[:, None, :]
    divisors = np.asarray(divisors, dtype=float)

    def fn(tau, r):
        p = np.matmul(s_row, r[:, :, None])[:, 0, 0]
        q = (tau / divisors) * s_sq
        pi = np.where(p >= offset, p, np.where(p <= offset - q, p + q, offset))
        return r + ((pi - p) / s_sq)[:, None] * s

    return Resolvent(s.shape[1], fn, name="hinge")


def prox_power_three_halves():
    """Blockwise resolvent of tau * |block|^(3/2) over 2-vector blocks.

    Per block the direction is kept and the magnitude m = u^2 where u is the
    nonnegative root of u^2 + (3 tau / 2) u - |r| = 0 (closed form, exact and
    branch-free; the discriminant is always nonnegative).
    """

    def fn(tau, r):
        blocks = _as_blocks(r)
        norms = _block_norms(blocks)
        half = 0.75 * tau  # (3 tau / 2) / 2
        u = -half + np.sqrt(half * half + norms)
        scale = np.divide(u * u, norms, out=np.zeros_like(norms), where=norms > 0)
        return (blocks * scale[:, None]).reshape(r.shape)

    return Resolvent(-1, fn, name="power32")


def prox_group_l1():
    """Blockwise resolvent of tau * |block| (group soft-thresholding)."""

    def fn(tau, r):
        blocks = _as_blocks(r)
        norms = _block_norms(blocks)
        nz = norms > tau
        scale = np.divide(tau, norms, out=np.zeros_like(norms), where=nz)
        np.subtract(1.0, scale, out=scale, where=nz)
        return (blocks * scale[:, None]).reshape(r.shape)

    return Resolvent(-1, fn, name="group_l1")


def project_affine(lam, b, range_tol=1e-6):
    """Euclidean projection onto {x : lam @ x = b}; independent of tau.

    b is recentered to zero mean before projecting (the divergence data of a
    pair of probability densities must sum to zero up to discretization
    error); construction fails if the corrected b is not in the range of lam.
    """
    lam = np.asarray(lam.todense()) if hasattr(lam, "todense") else np.asarray(lam, float)
    b = np.asarray(b, dtype=float)
    m, n = lam.shape
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

    def fn(tau, r):
        return r - lam.T @ (gram_pinv @ (lam @ r - b))

    return Resolvent(n, fn, name="affine_projection")


def project_grid_divergence(div, p, b):
    """Projection onto {x : div @ x = b} for the p x p no-flux grid divergence.

    The map of :func:`project_affine` (b recentered, zero mode dropped)
    without densifying div: div @ div.T is the 5-point Neumann Laplacian,
    which the orthonormal 2-D DCT-II diagonalizes with eigenvalues
    (2 - 2 cos(pi i / p)) + (2 - 2 cos(pi j / p)), so a call costs O(p^2 log p).
    """
    from scipy.fft import dctn, idctn  # lazy: only grid problems load it

    m = p * p
    b = np.asarray(b, dtype=float)
    if b.shape != (m,) or div.shape != (m, 2 * m):
        raise OperatorError(f"need a ({m}, {2 * m}) divergence and b of length {m}")
    b = b - b.mean()
    line = 2.0 - 2.0 * np.cos(np.pi * np.arange(p) / p)
    eig = line[:, None] + line[None, :]
    inv_eig = np.divide(1.0, eig, out=np.zeros_like(eig), where=eig > 0)
    div_t = div.T.tocsr()

    def fn(tau, r):
        v = dctn((div @ r - b).reshape(p, p), norm="ortho")
        return r - div_t @ idctn(v * inv_eig, norm="ortho").ravel()

    # the projected zero point is feasible only if div is the grid divergence
    resid = np.linalg.norm(div @ fn(0.0, np.zeros(2 * m)) - b)
    if resid > 1e-6 * max(np.linalg.norm(b), 1e-30):
        raise OperatorError(f"div is not the {p}x{p} grid divergence ({resid:g})")
    return Resolvent(2 * m, fn, name="affine_projection")


def project_capacity(bridge_idx, water_idx, cap):
    """Blockwise projection: water blocks to zero, bridge blocks into a ball.

    Blocks indexed by water_idx map to zero, blocks indexed by bridge_idx are
    radially clipped to norm cap, all other blocks pass through; tau plays no
    role.
    """
    bridge = np.asarray(bridge_idx, dtype=int)
    water = np.asarray(water_idx, dtype=int)
    if np.intersect1d(bridge, water).size:
        raise OperatorError("bridge and water index sets overlap")
    if not cap > 0:  # also rejects nan; inf clips nothing
        raise OperatorError(f"capacity must be positive, got {cap}")

    def fn(tau, r):
        blocks = _as_blocks(r).copy()
        if water.size:
            blocks[water] = 0.0
        if bridge.size:
            norms = _block_norms(blocks[bridge])
            over = norms > cap
            if np.any(over):
                idx = bridge[over]
                blocks[idx] *= (cap / norms[over])[:, None]
        return blocks.reshape(r.shape)

    return Resolvent(-1, fn, name="capacity_projection")


def prox_translated_quadratic(c, mu=1.0):
    """Resolvent of the affine operator x -> mu (x - c); a test workhorse."""
    c = np.asarray(c, dtype=float)
    if mu <= 0:
        raise OperatorError("mu must be positive")

    def fn(tau, r):
        return (r + tau * mu * c) / (1.0 + tau * mu)

    res = Resolvent(c.size, fn, name="translated_quadratic")
    # closed-form parameters, consumed by the lifted verification step
    res.affine_mu = float(mu)
    res.affine_center = c
    return res


def zero_operator(dim):
    """Resolvent of the zero operator: the identity map."""
    return Resolvent(dim, lambda tau, r: r.copy(), name="zero")
