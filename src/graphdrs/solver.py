"""Centralized graph-based Douglas-Rachford engine.

One sweep evaluates each resolvent once, each node after its state
in-neighbors (the state graph is a DAG whose edges point to larger labels),
then updates the dual variables.  Three equivalent formulations are provided:

* :func:`step_general` -- dual variables w in H^(N-1), any factorization Z;
* :func:`step_tree` -- dual variables indexed by base edges (tree bases,
  equal to the general step with the incidence factorization);
* :func:`step_wtilde` -- node-local dual variables with zero sum, one per
  node, usable with any base graph.

Each sweeps one :class:`StepPlan`: the state in-neighbor lists, 1/d_i, Z
and the update map as CSR matrices and the level schedule of the state DAG;
``StepPlan(bg)`` is the node-local form (Z = I).  A caller holds its plan and
calls :func:`step_general`; the other two steps build a plan per call.  A
CSR product sums each row from zero in ascending column order, the order
:func:`node_dual_term` uses.  A sweep walks
the levels; nodes of one level never read each other, so a level's hinge
nodes are one stacked resolvent call (:func:`~graphdrs.operators.stack_hinges`)
and every other node is one :func:`node_solution`.  The per-node arithmetic
lives in small shared kernels (:func:`node_solution`,
:func:`node_dual_term`, :func:`tree_w_update`, :func:`wtilde_node_update`)
that the message-passing simulator reuses verbatim; the stacked and CSR
forms repeat their operations elementwise, so centralized and simulated
runs agree bit for bit.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
        reals = ("sigma", "tol") if callable(self.theta) else ("sigma", "theta", "tol")
        for name in reals:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {v!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not callable(self.theta) and not 0.0 < float(self.theta) < 2.0:
            raise ValueError("constant relaxation must lie in (0, 2)")
        it = self.max_iter
        if isinstance(it, bool) or not isinstance(it, numbers.Integral) or it < 1:
            raise ValueError(f"max_iter must be a positive integer, got {it!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")

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
# shared per-node kernels (also used by the distributed simulator)

def node_solution(op, sigma, d_i, xs_in, w_term, out):
    """One resolvent evaluation of the sweep, written into out (returned).

    xs_in are the already-updated estimates of the smaller-labeled state
    neighbors, ascending; w_term is the node's pre-scaled dual term
    (1/d_i)(Z w)_i (see :func:`node_dual_term`).  Both callers must pass
    identical orderings for bit-equal results.
    """
    acc = np.zeros(out.shape)
    for xh in xs_in:
        acc += xh
    acc *= 2.0 / d_i
    acc += w_term
    out[...] = op(sigma / d_i, acc)
    return out


def node_dual_term(d_i, w_terms, dim):
    """(1/d_i)(Z w)_i from (coefficient, dual vector) pairs in column order.

    Accumulates from zero in column order, as the step's CSR product does,
    so one node's term equals its row of the whole-array form bit for bit.
    """
    acc = np.zeros(dim)
    for coeff, wv in w_terms:
        acc = acc + coeff * wv
    return (1.0 / d_i) * acc


def tree_w_update(w_edge, theta, x_i, x_h):
    """Dual update along a base edge (h, i) of a tree base graph."""
    return w_edge + theta * (x_i - x_h)


def wtilde_node_update(wt_i, theta, dprime_i, x_i, neighbor_xs):
    """Node-local dual update: one Laplacian row applied to the estimates."""
    acc = np.zeros_like(x_i)
    for xj in neighbor_xs:
        acc = acc + xj
    return wt_i - theta * (dprime_i * x_i - acc)


# ---------------------------------------------------------------------------
# step plans

class StepPlan:
    """Precomputed sparsity of one sweep, built once and read by every step.

    Holds the state in-neighbor lists, the degrees d_i and 1/d_i, Z (for
    the dual terms Z w) and Z^T (for Z^T x) as CSR matrices, whose products
    sum each row from zero in ascending column order as
    :func:`node_dual_term` does, and the level schedule of the state DAG: a
    node's level is one above its deepest in-neighbor, so the nodes of one
    level never read each other.  Without z the duals are node-local: Z = I,
    z_cols is the base adjacency A and the update is L x = D x - A x, D
    being base_degrees (None when z is given).
    """

    def __init__(self, bg, z=None):
        n = self.n_nodes = bg.n_nodes
        if z is None:
            lap = laplacian(bg.base)
            self.base_degrees = lap.diagonal()[:, None]
            self.z, to_duals = np.eye(n), np.diag(lap.diagonal()) - lap
        else:
            z = np.asarray(z, dtype=float)
            if z.shape != (n, n - 1):
                raise ValueError(f"Z must be {n}x{n - 1}, got {z.shape}")
            self.base_degrees, self.z, to_duals = None, z, z.T
        self.z_rows, self.z_cols = sparse.csr_matrix(self.z), sparse.csr_matrix(to_duals)
        self.in_nbrs = [bg.state.in_neighbors(i) for i in range(n)]
        degrees = bg.state.degrees()
        self.degrees = degrees.tolist()
        self.inv_d = 1.0 / degrees[:, None]
        depth = []
        for nbrs in self.in_nbrs:
            depth.append(1 + max((depth[h] for h in nbrs), default=-1))
        self.levels = [[] for _ in range(max(depth) + 1)]
        for i, level in enumerate(depth):
            self.levels[level].append(i)
        self._ops = self._schedule = None

    def schedule(self, ops):
        """Per level: the nodes solved one by one, and the level's hinge
        nodes as (rows, stacked resolvent, CSR in-adjacency, 2/d_i), or
        None when the level has fewer than two.  Kept for the last ops."""
        ops = tuple(ops)
        if ops != self._ops:
            self._schedule = [self._level(nodes, ops) for nodes in self.levels]
            self._ops = ops
        return self._schedule

    def _level(self, nodes, ops):
        hinges = [i for i in nodes if getattr(ops[i], "hinge", None) is not None]
        if len(hinges) < 2:
            return nodes, None
        into = np.zeros((len(hinges), self.n_nodes))
        for row, i in enumerate(hinges):
            into[row, self.in_nbrs[i]] = 1.0
        d = np.array([self.degrees[i] for i in hinges], dtype=float)
        contiguous = hinges[-1] - hinges[0] == len(hinges) - 1
        batch = (
            slice(hinges[0], hinges[-1] + 1) if contiguous else np.array(hinges),
            stack_hinges([ops[i] for i in hinges], d),
            sparse.csr_matrix(into),
            (2.0 / d)[:, None],
        )
        return [i for i in nodes if i not in hinges], batch


def _check_finite(x, ops, k):
    if not np.all(np.isfinite(x)):
        # failure path only: name the first offending node in sweep order
        i = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        name = getattr(ops[i], "name", repr(ops[i]))
        raise NumericalError(
            f"non-finite solution estimate at iteration {k}: node {i} "
            f"(resolvent {name!r})"
        )


def _sweep(plan, ops, sigma, w, k):
    """The N resolvent calls of one sweep, level by level; returns x.

    A level's hinge nodes are one stacked call, every other node one
    :func:`node_solution`; both give the bits of the per-node form.
    """
    n = plan.n_nodes
    if len(ops) != n:
        raise ValueError(f"need {n} operators, got {len(ops)}")
    schedule = plan.schedule(ops)
    w_term = plan.inv_d * (plan.z_rows @ w)
    x = np.empty_like(w_term)
    for nodes, batch in schedule:
        for i in nodes:
            xs_in = [x[h] for h in plan.in_nbrs[i]]
            node_solution(ops[i], sigma, plan.degrees[i], xs_in, w_term[i], x[i])
        if batch is not None:
            rows, hinges, into, two_over_d = batch
            x[rows] = hinges(sigma, two_over_d * (into @ x) + w_term[rows])
    _check_finite(x, ops, k)
    return x


def _step(plan, ops, sigma, theta, w, k):
    """The step behind every public step; returns (x, w_new, update).

    Private so that no public step calls another: the benchmark's layer
    trace counts each public step call as one sweep.
    """
    x = _sweep(plan, ops, sigma, w, k)
    update = plan.z_cols @ x
    if plan.base_degrees is not None:
        update = plan.base_degrees * x - update
    return x, w - theta * update, update


def step_general(plan, ops, sigma, theta, w, k=0):
    """One sweep over plan; returns (x, w_new, update).

    The update is Z^T x, or L x for a node-local plan.
    """
    return _step(plan, ops, sigma, theta, w, k)


def step_tree(bg, ops, sigma, theta, w_edges, k=0):
    """One sweep with edge-indexed dual variables (tree base graphs).

    w_edges rows follow the base edge-list order.  This is the general step
    with the incidence factorization, whose plan is built on each call: a
    loop should hold that :class:`StepPlan` and call :func:`step_general`.
    """
    plan = StepPlan(bg, incidence_decomposition(bg.base).z)
    x, w_new, _ = _step(plan, ops, sigma, theta, w_edges, k)
    return x, w_new


def _check_zero_sum(wt):
    scale = max(1.0, float(np.abs(wt).max(initial=0.0)))
    if np.abs(wt.sum(axis=0)).max(initial=0.0) > 1e-9 * scale:
        raise ValueError("node-local duals must sum to zero")


def step_wtilde(bg, ops, sigma, theta, wt, k=0):
    """One sweep of the node-local dual formulation; returns (x, wt_new).

    The plan, ``StepPlan(bg)``, is built on each call: a loop should hold
    it and call :func:`step_general`.
    """
    _check_zero_sum(wt)
    x, wt_new, _ = _step(StepPlan(bg), ops, sigma, theta, wt, k)
    return x, wt_new


# ---------------------------------------------------------------------------
# diagnostics

def state_variance(x):
    """Mean squared deviation of the estimates from their average."""
    dev = x - x.mean(axis=0)
    dev *= dev
    return float(np.mean(np.sum(dev, axis=1)))


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


def _infer_dim(ops):
    """The first dimension a resolvent fixes."""
    for op in ops:
        if op.dim > 0:
            return op.dim
    raise ValueError(
        "cannot infer the ambient dimension: every resolvent is dimension-free"
    )


def _initial_dual(ops, w0, n_rows, name, rows):
    """w0 as a float array, or zeros when None, checked to be (n_rows, dim):
    dim is the first one a resolvent fixes, else w0's last."""
    if w0 is None:
        return np.zeros((n_rows, _infer_dim(ops)))
    w = np.array(w0, dtype=float)
    dim = next((op.dim for op in ops if op.dim > 0), w.shape[-1] if w.ndim else None)
    if w.shape != (n_rows, dim):
        raise ValueError(
            f"{name} must have shape ({rows}, dim) = {(n_rows, dim)}, got {w.shape}"
        )
    return w


def _iterate(bg, plan, ops, cfg, w, objective):
    """The run loop of both formulations; returns (SolverState, traces).

    The residual ||Z^T x||^2 comes from the step's update: its squared norm,
    or <x, L x> for node-local duals.  Each sweep sums the subgradients of x
    as two row vectors applied to w and x; the full a is built once, for the
    last sweep.
    """
    subgradients, m_sum = _subgradient_map(bg, cfg.sigma)
    z_sum, node_local = plan.z.sum(axis=0), plan.base_degrees is not None
    traces = []
    for k in range(cfg.max_iter):
        w_in = w
        x, w, u = step_general(plan, ops, cfg.sigma, cfg.theta_at(k), w_in, k)
        residual_sq = float(np.sum((x if node_local else u) * u))
        a_sum = (z_sum @ w_in - m_sum @ x) / cfg.sigma
        obj = None
        if objective is not None:
            obj = float(objective(x.mean(axis=0)))
        traces.append(
            TraceRecord(
                k=k,
                residual_sq=residual_sq,
                variance=state_variance(x),
                subgrad_sum_norm=float(np.linalg.norm(a_sum)),
                objective=obj,
            )
        )
        if cfg.tol > 0 and residual_sq < cfg.tol:
            break
    a = subgradients(plan.z @ w_in, x)
    return SolverState(w=w, x=x, a=a, k=k + 1), traces


def run(bg, decomp, ops, cfg, w0=None, objective=None):
    """Iterate the general method; returns (SolverState, [TraceRecord]).

    Stops after the update once residual^2 < tol (tol = 0 runs max_iter
    sweeps exactly).  Non-convergence is not an error: inspect the trace.
    """
    w = _initial_dual(ops, w0, bg.n_nodes - 1, "w0", "N-1")
    plan = StepPlan(bg, decomp.z if hasattr(decomp, "z") else decomp)
    return _iterate(bg, plan, ops, cfg, w, objective)


def run_wtilde(bg, ops, cfg, wt0=None, objective=None):
    """Iterate the node-local dual formulation; returns (SolverState, traces).

    The residual ||Z^T x||^2 is computed factorization-free as <x, L x>.
    wt0 must sum to zero; sweeps keep the sum.
    """
    wt = _initial_dual(ops, wt0, bg.n_nodes, "wt0", "N")
    _check_zero_sum(wt)
    return _iterate(bg, StepPlan(bg), ops, cfg, wt, objective)


# ---------------------------------------------------------------------------
# unreduced (lifted) iteration, for verification at test scale

MAX_LIFTED_NODES = 6


def _affine_terms(ops):
    if not all(hasattr(op, "affine_mu") for op in ops):
        raise TypeError("the lifted step requires translated quadratic operators")
    return [(op.affine_mu, op.affine_center) for op in ops]


def _lifted_system(bg, z, affine_ops, sigma):
    n = bg.n_nodes
    terms = _affine_terms(affine_ops)
    if n > MAX_LIFTED_NODES:
        raise ValueError(f"lifted assembly limited to {MAX_LIFTED_NODES} nodes")
    lap = laplacian(bg.base)
    sp = sigma_matrix(bg.base) + p_matrix(bg)
    eye = np.eye(n - 1)
    m_mat = np.block([[lap, z], [z.T, eye]])
    a_lin = np.block(
        [[sp + sigma * np.diag([mu for mu, _ in terms]), -z],
         [z.T, np.zeros((n - 1, n - 1))]]
    )
    dim = terms[0][1].size
    offset = np.zeros((2 * n - 1, dim))
    for i, (mu, c) in enumerate(terms):
        offset[i] = sigma * mu * c
    return m_mat, a_lin, offset


def lifted_ppp_step(bg, decomp, affine_ops, cfg, u, k=0):
    """One step of the unreduced iteration on H^(2N-1), dense solve.

    u rows are (x_1..x_N, v_1..v_{N-1}).  Affine operators only.
    """
    z = decomp.z
    m_mat, a_lin, offset = _lifted_system(bg, z, affine_ops, cfg.sigma)
    rhs = m_mat @ u + offset
    t_u = np.linalg.solve(m_mat + a_lin, rhs)
    return u + cfg.theta_at(k) * (t_u - u)


def lifted_reduce(decomp, u):
    """Project a lifted iterate to the reduced dual: w = Z^T x + v."""
    z = decomp.z
    n = z.shape[0]
    return z.T @ u[:n] + u[n:]


def lifted_resolvent_w(bg, decomp, affine_ops, sigma, w):
    """Apply the lifted resolvent to an embedded dual and reduce it back.

    Equals one reduced fixed-point application w -> w - Z^T x(w), which the
    tests verify against :func:`step_general`.
    """
    z = decomp.z
    m_mat, a_lin, offset = _lifted_system(bg, z, affine_ops, sigma)
    n = z.shape[0]
    cw = np.vstack([z @ w, w])
    u = np.linalg.solve(m_mat + a_lin, cw + offset)
    return z.T @ u[:n] + u[n:]


# ---------------------------------------------------------------------------
# named special cases

def make_classical_drs():
    """N = 2, single edge: the textbook Douglas-Rachford method."""
    g = OrderedDigraph(2, [(0, 1)])
    return BilevelGraph(g, g)


def make_ryu(n):
    """Complete state graph with a star base rooted at the last node."""
    if n < 3:
        raise ValueError("need n >= 3")
    base = OrderedDigraph(n, [(i, n - 1) for i in range(n - 1)])
    return BilevelGraph(complete_digraph(n), base)


def make_malitsky_tam(n):
    """Sequential tree base, state closed by the (first, last) edge."""
    if n < 3:
        raise ValueError("need n >= 3")
    chain = [(i, i + 1) for i in range(n - 1)]
    return BilevelGraph(
        OrderedDigraph(n, chain + [(0, n - 1)]), OrderedDigraph(n, chain)
    )


def make_three_op_complete():
    """Complete state and base on 3 nodes with the fixed factorization.

    Returns (bilevel graph, decomposition); the decomposition is the
    explicit closed-form choice used in the three-operator examples.
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


# ---------------------------------------------------------------------------
# trace serialization

TRACE_HEADER = "iter,residual_sq,variance,subgrad_sum_norm,objective"


def _fmt(v):
    return "" if v is None else format(v, ".17g")


def write_trace(records, fh):
    """Write TraceRecords as CSV with 17 significant digits."""
    fh.write(TRACE_HEADER + "\n")
    for r in records:
        fh.write(
            f"{r.k},{_fmt(r.residual_sq)},{_fmt(r.variance)},"
            f"{_fmt(r.subgrad_sum_norm)},{_fmt(r.objective)}\n"
        )
