"""Desk-scale benchmark problems: congested transport and distributed SVM.

The transport problem minimizes a congestion cost over discrete flows on a
p x p grid subject to a divergence constraint and bridge/lake restrictions;
its projection and feasibility report apply one divergence, the stencils of
operators.grid_stencils, and form no matrix.  The SVM problem is a
kernelized hinge-loss classifier split across a ring of "officials" each
serving a star of label-holding agents.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from .graphs import BilevelGraph, OrderedDigraph
from .operators import (
    grid_stencils,
    project_capacity,
    project_grid_divergence,
    prox_group_l1,
    prox_hinge_affine,
    prox_power_three_halves,
    prox_quadratic,
)

MAX_SWEEP_GRID = 64
MIN_SWEEP_GRID = 3  # the smallest grid the default transport geometry fits


# ---------------------------------------------------------------------------
# congested transport


@dataclass(frozen=True)
class TransportInstance:
    p: int
    mu: np.ndarray
    nu: np.ndarray
    bridge: np.ndarray      # cell indices
    water: np.ndarray
    cap: float

    @property
    def n_cells(self):
        return self.p * self.p


def gaussian_density(p, center, width, zero_cells=()):
    """Gaussian blob on the grid, clipped on the given cells, sum normalized to 1."""
    # NaN fails this too; an infinite width gives a uniform density
    if not real("blob width", width, ValueError) > 0:
        raise ValueError(f"blob width must be > 0, got {width}")
    rr, cc = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    dens = np.exp(-((rr - center[0]) ** 2 + (cc - center[1]) ** 2) / (2.0 * width**2))
    dens = dens.ravel()
    if len(zero_cells):
        dens[np.asarray(zero_cells, dtype=int)] = 0.0
    total = dens.sum()
    if total <= 0:
        raise ValueError("density vanishes after clipping")
    return dens / total


def rect_cells(p, rect):
    """Cell indices of an inclusive rectangle (r0, c0, r1, c1)."""
    r0, c0, r1, c1 = rect
    if not (0 <= r0 <= r1 < p and 0 <= c0 <= c1 < p):
        raise ValueError(f"rectangle {rect} outside the {p}x{p} grid")
    out = []
    for r in range(r0, r1 + 1):
        out.extend(r * p + c for c in range(c0, c1 + 1))
    return np.array(out, dtype=int)


def default_transport_geometry(p):
    """Lake strip across the middle with a wide bridge, blobs above and below."""
    strip0, strip1 = 3 * p // 7, 4 * p // 7
    # narrow side lakes: total bridge capacity stays well above the unit mass
    # that must cross, keeping the default instance comfortably feasible
    gap = max(1, p // 16)
    bridge = (strip0, gap, strip1, p - 1 - gap)
    water_left = (strip0, 0, strip1, gap - 1)
    water_right = (strip0, p - gap, strip1, p - 1)
    mu_center = (p // 5, p // 2)
    nu_center = (4 * p // 5, p // 2)
    return {
        "bridge": bridge,
        "water": (water_left, water_right),
        "mu_center": mu_center,
        "nu_center": nu_center,
        "blob_width": p / 8.0,
    }


def build_transport(p, mu_spec=None, nu_spec=None, bridge=None, water=None,
                    cap=5e-2):
    """Assemble a transport instance and its four resolvents.

    mu_spec / nu_spec are (center, width) pairs or explicit densities, p^2
    finite nonnegative entries with a positive sum, normalized to sum 1;
    bridge and water are rectangles or iterables of rectangles (defaults
    from :func:`default_transport_geometry`).  Operator order: divergence
    projection, 3/2-power prox, group-l1 prox, capacity projection.
    """
    p = integer("p", p, ValueError, "positive")
    geo = default_transport_geometry(p)
    if bridge is None:
        bridge = geo["bridge"]
    if water is None:
        water = geo["water"]

    def cells_of(spec):
        spec = list(spec)
        if spec and np.isscalar(spec[0]):
            spec = [spec]
        if not spec:
            return np.array([], dtype=int)
        return np.unique(np.concatenate([rect_cells(p, r) for r in spec]))

    bridge_cells = cells_of(bridge)
    water_cells = cells_of(water)

    def density_of(name, spec, default_center):
        if spec is None:
            return gaussian_density(p, default_center, geo["blob_width"], water_cells)
        if isinstance(spec, tuple) and len(spec) == 2:  # a density has p^2 != 2 entries
            try:
                return gaussian_density(p, spec[0], spec[1], water_cells)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        dens = np.asarray(spec, dtype=float)
        if dens.shape != (p * p,):
            raise ValueError(f"{name} must have shape ({p * p},) for grid side {p}, "
                             f"got {dens.shape}")
        bad = np.flatnonzero(~((dens >= 0) & (dens < np.inf)))
        if len(bad):
            raise ValueError(f"{name}[{bad[0]}] must be finite and nonnegative, "
                             f"got {dens[bad[0]]}")
        total = dens.sum()
        if not 0 < total < np.inf:
            raise ValueError(f"{name} must have a positive finite sum, got {total}")
        return dens / total

    mu = density_of("mu", mu_spec, geo["mu_center"])
    nu = density_of("nu", nu_spec, geo["nu_center"])
    inst = TransportInstance(
        p=p, mu=mu, nu=nu,
        bridge=bridge_cells, water=water_cells, cap=cap,
    )
    dim = 2 * p * p
    ops = [
        project_grid_divergence(p, nu - mu),
        prox_power_three_halves(dim),
        prox_group_l1(dim),
        project_capacity(bridge_cells, water_cells, cap, dim),
    ]
    return inst, ops


def objective_transport(inst, flow):
    """Congestion cost of a flow: sum of |block|^(3/2) + |block|."""
    blocks = np.asarray(flow, dtype=float).reshape(-1, 2)
    if blocks.shape[0] != inst.n_cells:
        raise ValueError("flow length does not match the grid")
    norms = np.linalg.norm(blocks, axis=1)
    return float(np.sum(norms**1.5) + np.sum(norms))


def transport_feasibility(inst, flow):
    """Constraint residuals, reported separately from the objective."""
    blocks = np.asarray(flow, dtype=float).reshape(-1, 2)
    norms = np.linalg.norm(blocks, axis=1)
    div, _ = grid_stencils(inst.p)
    div_resid = float(np.linalg.norm(div(blocks, np.empty(inst.n_cells)) - (inst.nu - inst.mu)))
    water_norm = float(norms[inst.water].max()) if inst.water.size else 0.0
    cap_excess = (
        float(max(0.0, norms[inst.bridge].max() - inst.cap))
        if inst.bridge.size
        else 0.0
    )
    return {
        "divergence_residual": div_resid,
        "water_norm": water_norm,
        "capacity_excess": cap_excess,
    }


# ---------------------------------------------------------------------------
# distributed SVM


@dataclass(frozen=True)
class SvmInstance:
    points: np.ndarray   # (n, 2)
    labels: np.ndarray   # (n,) in {-1, +1}
    kernel: np.ndarray   # (n, n) Gaussian kernel matrix
    gamma: float
    kernel_width: float
    officials: int
    per_official: int
    partition: tuple     # per official: tuple of training indices

    @property
    def n_points(self):
        return self.labels.size


def svm_dataset(n, seed=0, spread=0.6):
    """Two noisy point clusters in the plane with +-1 labels, shuffled."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack(
        [
            rng.normal(loc=(-1.0, -1.0), scale=spread, size=(half, 2)),
            rng.normal(loc=(1.0, 1.0), scale=spread, size=(n - half, 2)),
        ]
    )
    labels = np.concatenate([-np.ones(half), np.ones(n - half)])
    perm = rng.permutation(n)
    return pts[perm], labels[perm]


def gaussian_kernel(points, width):
    diff = points[:, None, :] - points[None, :, :]
    return np.exp(-np.sum(diff**2, axis=2) / (2.0 * width**2))


def svm_bilevel_graph(officials, per_official):
    """Officials ring (closed first-to-last) with per-official agent stars.

    Node order: official c, then its agents, for c = 0..C-1.  The base graph
    drops the ring-closing edge, leaving a tree.
    """
    c_count, p = officials, per_official
    if c_count < 3:
        raise ValueError("need at least 3 officials for the ring layout")
    n_nodes = c_count * (p + 1)
    off = [c * (p + 1) for c in range(c_count)]
    edges = []
    for c in range(c_count):
        edges.extend((off[c], off[c] + 1 + i) for i in range(p))
    edges.extend((off[c], off[c + 1]) for c in range(c_count - 1))
    closing = (off[0], off[-1])
    edges.append(closing)
    state = OrderedDigraph(n_nodes, edges)
    base = OrderedDigraph(n_nodes, [e for e in edges if e != closing])
    return BilevelGraph(state, base)


def build_svm(n, officials, per_official, gamma=0.1, kernel_width=1.0, seed=0):
    """Assemble the SVM instance, its n + C resolvents, and the bilevel graph.

    Official c carries the quadratic term weighted by its share of the total
    official degree; agent (c, i) carries one hinge term.
    """
    for name, v in (("n", n), ("officials", officials), ("per_official", per_official)):
        integer(name, v, ValueError)
    if officials < 1:
        raise ValueError(f"officials must be >= 1, got {officials}")
    if per_official < 1:
        raise ValueError(f"per_official must be >= 1, got {per_official}")
    if n != officials * per_official:
        raise ValueError("need n = officials * per_official")
    real("kernel width", kernel_width, ValueError, "positive and finite")
    real("gamma", gamma, ValueError, "nonnegative and finite")
    integer("seed", seed, ValueError, "non-negative")
    points, labels = svm_dataset(n, seed=seed)
    kernel = gaussian_kernel(points, kernel_width)
    partition = tuple(
        tuple(range(c * per_official, (c + 1) * per_official))
        for c in range(officials)
    )
    inst = SvmInstance(
        points=points, labels=labels, kernel=kernel, gamma=gamma,
        kernel_width=kernel_width, officials=officials,
        per_official=per_official, partition=partition,
    )
    bg = svm_bilevel_graph(officials, per_official)
    off_nodes = [c * (per_official + 1) for c in range(officials)]
    d_off = [bg.state.degree(node) for node in off_nodes]
    d_total = float(sum(d_off))
    ops = []
    for c in range(officials):
        ops.append(prox_quadratic(kernel, gamma * d_off[c] / d_total))
        for xi in partition[c]:
            ops.append(prox_hinge_affine(labels[xi] * kernel[xi], 1.0))
    return inst, ops, bg


def objective_svm(inst, alpha):
    """Hinge sum plus gamma-weighted kernel quadratic at coefficients alpha."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (inst.n_points,):
        raise ValueError("alpha length does not match the training set")
    margins = inst.labels * (inst.kernel @ alpha)
    hinge = np.maximum(1.0 - margins, 0.0).sum()
    return float(hinge + inst.gamma * alpha @ inst.kernel @ alpha)


# ---------------------------------------------------------------------------
# key = value configuration files


def load_config(path):
    """Parse a "key = value" text file; '#' starts a comment, and a key may
    appear once."""
    cfg, first = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {first[key]}")
            cfg[key], first[key] = val, lineno
    return cfg


def config_value(cfg, key, default, parse):
    """parse(cfg[key]), or default when key is absent; a value that parse
    rejects raises a ValueError that names key."""
    if key not in cfg:
        return default
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ValueError(f"{key} = {cfg[key]!r}: {exc}") from None


def _grid_ints(key, text, size, p):
    """text as size integers, each a row or column index of the p x p grid."""
    try:
        values = tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        values = ()
    if len(values) != size or not all(0 <= v < p for v in values):
        raise ValueError(f"{key} needs {size} integers in [0, {p - 1}], got {text!r}")
    return values


def transport_from_config(cfg):
    """Build a transport instance from a parsed config dict."""
    p = config_value(cfg, "p", 35, int)
    # checked before building: the instance's memory grows with p^2
    if not MIN_SWEEP_GRID <= p <= MAX_SWEEP_GRID:
        raise ValueError(f"grid size --p must satisfy p >= {MIN_SWEEP_GRID} and "
                         f"p <= {MAX_SWEEP_GRID}, got {p}")
    cap = config_value(cfg, "cap", 5e-2, float)
    geo = default_transport_geometry(p)
    width = config_value(cfg, "blob_width", geo["blob_width"], float)
    given = {key: _grid_ints(key, cfg[key], size, p) for key, size in
             (("mu_center", 2), ("nu_center", 2), ("bridge", 4)) if key in cfg}
    water = None
    if "water" in cfg:
        water = [_grid_ints("water", part, 4, p)
                 for part in cfg["water"].split(";") if part.strip()]
    return build_transport(
        p,
        mu_spec=(given.get("mu_center", geo["mu_center"]), width),
        nu_spec=(given.get("nu_center", geo["nu_center"]), width),
        bridge=given.get("bridge"),
        water=water,
        cap=cap,
    )


def svm_from_config(cfg):
    n = config_value(cfg, "n", 50, int)
    officials = config_value(cfg, "officials", 5, int)
    # no division by a bad officials count: build_svm names it
    per_official = config_value(cfg, "per_official", n // max(officials, 1), int)
    return build_svm(
        n,
        officials,
        per_official,
        gamma=config_value(cfg, "gamma", 0.1, float),
        kernel_width=config_value(cfg, "kernel_width", 1.0, float),
        seed=config_value(cfg, "seed", 0, int),
    )
