"""Centralized graph-based Douglas-Rachford engine.

One sweep evaluates each resolvent once, each node after its state
in-neighbors (the state graph is a DAG whose edges point to larger labels),
then updates the dual variables.  One step, :func:`step_general`, serves two
dual formulations, both sweeping a :class:`StepPlan` bound to the graph, the
N operators and a factorization, the N x (N-1) array Z of
:mod:`~graphdrs.factorization`:

* ``StepPlan(bg, ops, z)`` -- dual variables w in H^(N-1), any factorization Z
  (with the incidence Z of a tree base, w is indexed by base edges; the
  one-shot :func:`step_tree` builds that plan on each call);
* ``StepPlan(bg, ops)`` (z=None) -- node-local dual variables with zero sum,
  one per node, usable with any base graph (Z = I, update L x with the base
  Laplacian L).

:func:`run` takes the same z, None included.

The plan holds the state in-neighbor lists, 1/d_i, Z and the update map
(Z^T, or L) as :class:`_Csr` matrices and the level schedule of the state
DAG.  A :class:`_Csr` product sums each row from zero in stored order, one
coefficient times vector term at a time, into a buffer the caller owns.  A
sweep walks the levels, each node on the latest it can take: one below its
shallowest state out-neighbor, every sink (such as an SVM hinge agent) on
the last.  Nodes of one level never read each other, so the one level
kernel, :func:`_solve_level`, solves a level's hinge nodes, even a lone one,
in one stacked resolvent call (:func:`~graphdrs.operators.stack_hinges`) and
every other node by one :func:`node_solution`.  The message-passing
simulator runs that kernel on the estimates its agents received; the
stacked and CSR forms repeat the per-node operations elementwise, so
centralized and simulated runs agree bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import array, integer, real
from ._compiled import load
from .factorization import external_decomposition, incidence_decomposition
from .graphs import (
    BilevelGraph,
    OrderedDigraph,
    complete_digraph,
    laplacian,
    p_matrix,
    sigma_matrix,
)
from .operators import stack_hinges

csr_matvecs = load("scipy.sparse._sparsetools").csr_matvecs

THETA_CLAMP = 1e-3


class NumericalError(RuntimeError):
    """Non-finite values encountered during iteration."""


@dataclass
class SolverConfig:
    sigma: float
    theta: object = 1.0  # constant in (0, 2) or a callable k -> theta_k
    max_iter: int = 1000
    tol: float = 0.0  # stop when ||Z^T x||^2 < tol; 0 disables early stopping

    def __post_init__(self):
        real("sigma", self.sigma, ValueError, "positive and finite")
        if not callable(self.theta) and not 0.0 < real("theta", self.theta, ValueError) < 2.0:
            raise ValueError(f"constant relaxation theta must lie in (0, 2), got {self.theta}")
        integer("max_iter", self.max_iter, ValueError, "positive")
        real("tol", self.tol, ValueError, "nonnegative and finite")

    def theta_at(self, k):
        if callable(self.theta):
            theta = float(self.theta(k))
            if math.isnan(theta):  # min/max below would pass it through
                raise ValueError(f"relaxation schedule gave theta({k}) = {theta}")
            # keep user sequences bounded away from 0 and 2
            return min(max(theta, THETA_CLAMP), 2.0 - THETA_CLAMP)
        return float(self.theta)


@dataclass
class SolverState:
    w: np.ndarray  # dual variables, (N-1, dim) or (N, dim) for the node-local form
    x: np.ndarray  # solution estimates, (N, dim)
    a: np.ndarray  # extracted subgradients, (N, dim)
    k: int


@dataclass
class TraceRecord:
    k: int
    residual_sq: float
    variance: float
    subgrad_sum_norm: float
    objective: float = None


# ---------------------------------------------------------------------------
# the per-node kernel (also used by the distributed simulator)

def node_solution(op, sigma, d_i, xs_in, w_term, out):
    """One node's resolvent evaluation, written into out (returned): how a
    sweep or a simulated round solves every node but a hinge, which its
    level solves in one stacked call.

    xs_in are the already-updated estimates of the smaller-labeled state
    neighbors, ascending; w_term is the node's pre-scaled dual term
    (1/d_i)(Z w)_i.  The input is summed in out from 0.0, as a CSR row is,
    so signed zeros round as in a fresh sum (the first add, x + 0.0, rounds
    as 0.0 + x without a fill), then resolved in place.  Without inputs the
    sum is w_term + 0.0: 0.0 (2/d_i) is +0.0, and 0.0 + w rounds as w + 0.0.
    """
    if len(xs_in):
        np.add(xs_in[0], 0.0, out=out)
        for xh in xs_in[1:]:
            out += xh
        out *= 2.0 / d_i
        out += w_term
    else:
        np.add(w_term, 0.0, out=out)
    return op(sigma / d_i, out, out=out)


# ---------------------------------------------------------------------------
# step plans

class _Csr:
    """A CSR matrix whose products go into buffers the caller owns, built
    from (row, col, value) triples, each row's kept in their given order, or
    by :meth:`dense` from an array as ``scipy.sparse.csr_matrix`` builds it
    (zeros dropped, columns ascending).  A product runs the compiled loop
    that scipy's CSR ``@`` ends in: each row summed from zero, one term at a
    time in stored order.  That loop checks no bounds, so indices are
    checked here and operands in :meth:`product`.  ``rows`` holds each
    stored entry's row."""

    def __init__(self, shape, rows, cols, vals):
        rows, cols = np.asarray(rows, np.intp), np.asarray(cols, np.intp)
        if np.any((rows < 0) | (rows >= shape[0]) | (cols < 0) | (cols >= shape[1])):
            raise ValueError(f"an entry lies outside the {shape[0]}x{shape[1]} matrix")
        order = np.argsort(rows, kind="stable")
        self.shape, self.rows, self.indices = shape, rows[order], cols[order]
        self.data = np.asarray(vals, dtype=np.float64)[order]
        self.indptr = np.searchsorted(self.rows, np.arange(shape[0] + 1))

    @classmethod
    def dense(cls, m):
        rows, cols = np.nonzero(m)
        return cls(m.shape, rows, cols, m[rows, cols])

    def product(self, src, out):
        """out = self @ src, returned; src is (n_cols, k) of any layout and
        out (n_rows, k) C-contiguous, both float64."""
        src, (n_rows, n_cols) = np.ascontiguousarray(src), self.shape
        if not (src.ndim == 2 and len(src) == n_cols and out.shape == (n_rows, src.shape[1])
                and src.dtype == out.dtype == np.float64 and out.flags.c_contiguous):
            raise ValueError(f"need float64 ({n_cols}, k) and C-contiguous ({n_rows}, k) "
                             f"operands, got {src.dtype} {src.shape} and {out.dtype} {out.shape}")
        flat = out.reshape(-1)  # a view: out is C-contiguous
        flat.fill(0.0)
        csr_matvecs(n_rows, n_cols, src.shape[1], self.indptr, self.indices, self.data,
                    src.reshape(-1), flat)
        return out


class StepPlan:
    """Precomputed sparsity of one sweep, built once and read by every step.

    Holds the state in-neighbor lists, the degrees d_i and 1/d_i, Z (z_rows,
    for the dual terms Z w) and the update map (z_cols: Z^T, for Z^T x) as
    :class:`_Csr` matrices, whose products sum each row from zero in
    ascending column order, and the level schedule of the state DAG: a node
    sits one level below its shallowest out-neighbor, a sink on the last of
    longest-path + 1 levels, so one level's nodes never read each other.
    Each schedule entry, (singles, batch), holds a level's nodes as
    :func:`_solve_level` reads them, built once by :meth:`_level`: every
    node but a hinge as (resolvent, d_i, i, the rows of its in-neighbors,
    its dual-term row), and all its hinges as one batch (rows, stacked
    resolvent, _Csr in-adjacency, 2/d_i, the slice of their dual-term rows),
    or None.  The simulator builds its levels with :meth:`_level` too, over
    the rows of its own operand buffer.  The dual-term rows (z_rows, inv_d
    and w_term) are in schedule order, ``order``: each level's single nodes,
    then its hinges next to each other, so a batch adds its dual terms from
    one slice of w_term; each row keeps its stored terms, so its product
    keeps its bits.  1/d_i (inv_d) and each batch's 2/d_i are full (rows,
    dim) arrays, not columns: numpy multiplies by a full-shape operand faster
    than by a broadcast one, to the same bits.
    Without z the duals are node-local: Z = I and the update map z_cols is
    the base Laplacian L.  A plan belongs to its graph, Z and the N >= 2
    operators ops (a lone node has no degree to scale by), which must all
    fix one dimension, dim.

    The plan owns one workspace of (N, dim) arrays: a step writes (1/d) Z w
    into w_term, node order[t]'s in row t, the hinge input sums into scratch
    and tests x in finite; the run loop's diagnostics then reuse scratch.  So
    a plan serves one step at a time.
    """

    def __init__(self, bg, ops, z=None):
        n = self.n_nodes = bg.n_nodes
        if n < 2:
            raise ValueError(f"need a network of at least 2 nodes, got {n}")
        if len(ops) != n:
            raise ValueError(f"need {n} operators, got {len(ops)}")
        self.bg, self.ops = bg, tuple(ops)
        self.dim = ops[0].dim
        for i, op in enumerate(ops):
            if op.dim != self.dim:
                raise ValueError(f"node {i} (resolvent {op.name!r}) has dimension "
                                 f"{op.dim}, but an earlier resolvent fixes {self.dim}")
        if z is None:
            self.z, to_duals = np.eye(n), laplacian(bg.base)
        else:
            z = np.asarray(z, dtype=float)
            if z.shape != (n, n - 1):
                raise ValueError(f"Z must be {n}x{n - 1}, got {z.shape}")
            self.z, to_duals = array("Z", z, ValueError, ndim=2), z.T
        self.w_shape = (self.z.shape[1], self.dim)  # the duals': one row per column of Z
        self.in_nbrs = [bg.state.in_neighbors(i) for i in range(n)]
        height = [0] * n  # longest state path from each node to a sink
        for i in reversed(range(n)):
            outs = bg.state.out_neighbors(i)
            height[i] = 1 + max((height[j] for j in outs), default=-1)
        self.levels = [[] for _ in range(max(height) + 1)]
        for i, h in enumerate(height):
            self.levels[-1 - h].append(i)
        self.is_hinge = [getattr(op, "hinge", None) is not None for op in self.ops]
        by_kind = self.is_hinge.__getitem__  # stable: a level's singles, then its hinges
        self.order = [i for nodes in self.levels for i in sorted(nodes, key=by_kind)]
        self.term_row = np.argsort(self.order).tolist()
        self.z_rows, self.z_cols = _Csr.dense(self.z[self.order]), _Csr.dense(to_duals)
        degrees = bg.state.degrees()
        self.degrees = degrees.tolist()
        self.inv_d = np.repeat(1.0 / degrees[self.order, None], self.dim, axis=1)
        self.schedule = [self._level(nodes, lambda i, h: h, n) for nodes in self.levels]
        self.w_term = np.empty((n, self.dim))
        self.scratch = np.empty_like(self.w_term)
        self.finite = np.empty_like(self.w_term, bool)

    def _level(self, nodes, read, n_cols):
        """The schedule entry of the level nodes over a read layout of
        n_cols rows: node i reads in-neighbour h at row read(i, h), for the
        sweep x's own row h of N.  The hinge in-adjacency stores each row's
        terms in ascending h."""
        hinges = [i for i in nodes if self.is_hinge[i]]
        singles = [(self.ops[i], self.degrees[i], i, [read(i, h) for h in self.in_nbrs[i]],
                    self.term_row[i]) for i in nodes if not self.is_hinge[i]]
        if not hinges:
            return singles, None
        rows = [row for row, i in enumerate(hinges) for _ in self.in_nbrs[i]]
        cols = [read(i, h) for i in hinges for h in self.in_nbrs[i]]
        d = np.array([self.degrees[i] for i in hinges], dtype=float)
        into = _Csr((len(hinges), n_cols), rows, cols, np.ones(len(cols)))
        first = self.term_row[hinges[0]]  # the level's hinge rows are adjacent
        return singles, (np.array(hinges), stack_hinges([self.ops[i].hinge for i in hinges], d),
                         into, np.repeat((2.0 / d)[:, None], self.dim, axis=1),
                         slice(first, first + len(hinges)))


def _check_finite(x, ops, k, finite):
    if not np.isfinite(x, out=finite).all():
        # failure path only: name the lowest-labelled non-finite node, where
        # the failure started, as its in-neighbors have smaller labels
        i = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        name = getattr(ops[i], "name", repr(ops[i]))
        raise NumericalError(
            f"non-finite solution estimate at iteration {k}: node {i} "
            f"(resolvent {name!r})"
        )


def _solve_level(singles, batch, sigma, src, w_term, x, scratch):
    """Solve one schedule entry into its rows of x: each single (op, d_i,
    i, rows, t) by :func:`node_solution` from src's rows and dual-term row
    t, the batch's hinges by one product of their in-adjacency over src,
    into scratch, plus their slice of dual-term rows, and one stacked call;
    w_term holds (1/d) Z w in the plan's row order.  The sweep's src is x;
    the simulator's is its operand buffer, over whose rows
    :meth:`StepPlan._level` built the entry."""
    for op, d_i, i, rows, t in singles:
        node_solution(op, sigma, d_i, [src[k] for k in rows], w_term[t], x[i])
    if batch is not None:
        rows, hinges, into, two_over_d, terms = batch
        r = into.product(src, scratch[: len(two_over_d)])
        r *= two_over_d
        r += w_term[terms]
        x[rows] = hinges(sigma, r, out=r)


def _sweep(plan, sigma, w, k):
    """The N resolvent calls of one sweep, level by level; returns x.

    A level's hinge nodes are one stacked call, every other node one
    :func:`node_solution`; both give the bits of the per-node form.
    """
    if w.shape != plan.w_shape:  # one column would broadcast into w_term
        raise ValueError(f"duals w must be {plan.w_shape[0]} rows of {plan.dim} columns, "
                         f"got shape {w.shape}")
    w_term = plan.z_rows.product(w, plan.w_term)
    w_term *= plan.inv_d
    x = np.empty_like(w_term)
    for singles, batch in plan.schedule:
        _solve_level(singles, batch, sigma, x, w_term, x, plan.scratch)
    _check_finite(x, plan.ops, k, plan.finite)
    return x


def step_general(plan, sigma, theta, w, k=0):
    """One sweep over plan; returns (x, w_new, update), fresh arrays that
    no later step on the plan overwrites.

    The update is Z^T x, or L x for a node-local plan.
    """
    x = _sweep(plan, sigma, w, k)
    update = plan.z_cols.product(x, np.empty((plan.z_cols.shape[0], plan.dim)))
    w_new = np.multiply(theta, update)
    return x, np.subtract(w, w_new, out=w_new), update


def step_tree(bg, ops, sigma, theta, w_edges, k=0):
    """One sweep with edge-indexed dual variables (tree base graphs).

    w_edges rows follow the base edge-list order.  This is the general step
    with the incidence factorization, whose plan is built on each call: a
    loop should hold that :class:`StepPlan` and call :func:`step_general`.
    """
    plan = StepPlan(bg, ops, incidence_decomposition(bg.base))
    x, w_new, _ = step_general(plan, sigma, theta, w_edges, k)
    return x, w_new


# ---------------------------------------------------------------------------
# diagnostics

def state_variance(x, xbar=None, dev=None):
    """Mean squared deviation of the estimates from their average xbar (taken
    when None), with dev, when given, as the (N, dim) scratch buffer."""
    dev = np.subtract(x, x.mean(axis=0) if xbar is None else xbar, out=dev)
    dev *= dev
    return float(np.add.reduce(np.add.reduce(dev, axis=1)) / len(x))


def _subgradient_map(bg, sigma):
    """(Z w, x) -> a, the formula of :func:`compute_subgradients`, with the
    graph matrices built once; also 1^T M for M = L + Sigma + P, the state
    graph's in-degree minus out-degree, so that sum_i a_i = (1^T Z w - 1^T M x)
    / sigma."""
    lap = laplacian(bg.base)
    sp = sigma_matrix(bg.base) + p_matrix(bg)
    return (lambda zw, x: (zw - lap @ x - sp @ x) / sigma), (lap + sp).sum(axis=0)


def compute_subgradients(bg, z, sigma, w, x):
    """Subgradients a_i in A_i x_i, solved from the defining linear relation.

    a = (Z w - L x - (Sigma + P) x) / sigma with L, Sigma from the base
    Laplacian and P from the state edges outside the base; w is the dual
    iterate that produced x.
    """
    return _subgradient_map(bg, sigma)[0](np.asarray(z) @ w, x)


def _initial_dual(plan, w0):
    """w0 as a float array, or zeros when None, checked to be one row per
    column of Z by the plan's dim, and node-local duals to sum to zero."""
    shape = plan.w_shape
    node_local = shape[0] == plan.n_nodes
    if w0 is None:
        return np.zeros(shape)
    w = np.array(w0, dtype=float)
    if w.shape != shape:
        rows = "N" if node_local else "N-1"
        raise ValueError(f"w0 must have shape ({rows}, dim) = {shape}, got {w.shape}")
    array("w0", w, ValueError, ndim=2)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if node_local and np.abs(w.sum(axis=0)).max(initial=0.0) > 1e-9 * scale:
        raise ValueError("node-local duals must sum to zero")
    return w


def _iterate(plan, cfg, w, objective):
    """The run loop of both formulations; returns (SolverState, traces).

    The residual ||Z^T x||^2 comes from the step's update: its squared norm,
    or <x, L x> for node-local duals.  Each sweep sums the subgradients of x
    as two row vectors applied to w and x; the full a is built once, for the
    last sweep.  The diagnostics work in the plan's scratch buffer.
    """
    subgradients, m_sum = _subgradient_map(plan.bg, cfg.sigma)
    z_sum = plan.z.sum(axis=0)
    node_local = len(z_sum) == plan.n_nodes
    scratch, traces = plan.scratch, []
    for k in range(cfg.max_iter):
        w_in = w
        x, w, u = step_general(plan, cfg.sigma, cfg.theta_at(k), w_in, k)
        prod = np.multiply(x if node_local else u, u, out=scratch[: len(u)])
        residual_sq = float(np.add.reduce(prod, axis=None))
        a_sum = np.matmul(z_sum, w_in, out=scratch[0])
        a_sum -= np.matmul(m_sum, x, out=scratch[1])
        a_sum /= cfg.sigma
        subgrad_sum_norm = math.sqrt(a_sum.dot(a_sum))  # np.linalg.norm's 1-D form
        xbar = np.add.reduce(x, axis=0) / len(x)  # x.mean(axis=0) bit for bit
        obj = None if objective is None else float(objective(xbar))
        variance = state_variance(x, xbar, scratch)
        traces.append(TraceRecord(k, residual_sq, variance, subgrad_sum_norm, obj))
        if cfg.tol > 0 and residual_sq < cfg.tol:
            break
    a = subgradients(plan.z @ w_in, x)
    return SolverState(w=w, x=x, a=a, k=k + 1), traces


def run(bg, z, ops, cfg, w0=None, objective=None):
    """Iterate the general method with factorization z, or the node-local
    form when z is None; returns (SolverState, [TraceRecord]).

    Node-local duals w0 must sum to zero; sweeps keep the sum.  Stops after
    the update once residual^2 < tol (tol = 0 runs max_iter sweeps exactly).
    Non-convergence is not an error: inspect the trace.
    """
    plan = StepPlan(bg, ops, z)
    return _iterate(plan, cfg, _initial_dual(plan, w0), objective)


# ---------------------------------------------------------------------------
# named special cases

def make_classical_drs():
    """N = 2, single edge: the textbook Douglas-Rachford method."""
    g = OrderedDigraph(2, [(0, 1)])
    return BilevelGraph(g, g)


def make_ryu(n):
    """Complete state graph with a star base rooted at the last node."""
    if integer("n", n, ValueError) < 3:
        raise ValueError("need n >= 3")
    base = OrderedDigraph(n, [(i, n - 1) for i in range(n - 1)])
    return BilevelGraph(complete_digraph(n), base)


def make_malitsky_tam(n):
    """Sequential tree base, state closed by the (first, last) edge."""
    if integer("n", n, ValueError) < 3:
        raise ValueError("need n >= 3")
    chain = [(i, i + 1) for i in range(n - 1)]
    return BilevelGraph(
        OrderedDigraph(n, chain + [(0, n - 1)]), OrderedDigraph(n, chain)
    )


def make_three_op_complete():
    """Complete state and base on 3 nodes with the fixed factorization.

    Returns (bilevel graph, Z); Z is the explicit closed-form choice used in
    the three-operator examples.
    """
    g = complete_digraph(3)
    zt = np.array(
        [
            [math.sqrt(2.0), -math.sqrt(0.5), -math.sqrt(0.5)],
            [0.0, math.sqrt(1.5), -math.sqrt(1.5)],
        ]
    )
    return BilevelGraph(g, g), external_decomposition(zt.T)


def tree_decomposition(bg):
    """Incidence factorization of a tree base graph."""
    return incidence_decomposition(bg.base)

