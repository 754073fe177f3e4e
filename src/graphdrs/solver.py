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
(Z^T, or L) as CSR matrices and the level schedule of the state DAG.  A CSR
product sums each row from zero in ascending column order, the order the
per-row kernel :func:`row_sum` uses.  A sweep walks the levels, each node on
the latest it can take: one below its shallowest state out-neighbor, every
sink (such as an SVM hinge agent) on the last.  Nodes of one level never
read each other, so a level's hinge nodes are one stacked resolvent call
(:func:`~graphdrs.operators.stack_hinges`) and every other node is one
:func:`node_solution`.  The per-node arithmetic lives in small shared
kernels (:func:`node_solution`, :func:`row_sum`, :func:`node_dual_term`)
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
    identical orderings for bit-equal results.  The input is summed in out
    from 0.0, so signed zeros round as in a fresh sum, and resolved in place.
    """
    out.fill(0.0)
    for xh in xs_in:
        out += xh
    out *= 2.0 / d_i
    out += w_term
    return op(sigma / d_i, out, out=out)


def row_sum(terms, dim):
    """Sum of coefficient * vector over (coefficient, vector) terms, added
    from zero one at a time in column order, as a CSR product sums its row;
    a +-1 coefficient adds or subtracts the vector, exactly +-1.0 * vector.

    Row i of Z w (:func:`node_dual_term`) and row c of the update map (Z^T
    x, or L x: the simulator's dual update) are this sum, so one row equals
    its row of the whole-array form bit for bit.
    """
    acc = np.zeros(dim)
    for coeff, v in terms:
        if coeff == 1.0:
            acc += v
        elif coeff == -1.0:
            acc -= v
        else:
            acc += coeff * v
    return acc


def node_dual_term(d_i, w_terms, dim):
    """(1/d_i)(Z w)_i from (coefficient, dual vector) pairs in column order."""
    acc = row_sum(w_terms, dim)
    return np.multiply(1.0 / d_i, acc, out=acc)


# ---------------------------------------------------------------------------
# step plans

class StepPlan:
    """Precomputed sparsity of one sweep, built once and read by every step.

    Holds the state in-neighbor lists, the degrees d_i and 1/d_i, Z (z_rows,
    for the dual terms Z w) and the update map (z_cols: Z^T, for Z^T x) as
    CSR matrices, whose products sum each row from zero in ascending column
    order as :func:`row_sum` does, and the level schedule of the state DAG: a
    node sits one level below its shallowest out-neighbor, a sink on the
    last of longest-path + 1 levels, so one level's nodes never read each
    other.  Without z the duals are node-local: Z = I and the update map
    z_cols is the base Laplacian L.  A plan belongs to its graph, Z and the N
    operators ops; dim is the first dimension a resolvent fixes, which
    every other fixed one must equal (None when all are dimension-free).
    """

    def __init__(self, bg, ops, z=None):
        n = self.n_nodes = bg.n_nodes
        if len(ops) != n:
            raise ValueError(f"need {n} operators, got {len(ops)}")
        self.bg, self.ops = bg, tuple(ops)
        self.dim = next((op.dim for op in ops if op.dim > 0), None)
        for i, op in enumerate(ops):
            if op.dim > 0 and op.dim != self.dim:
                raise ValueError(f"node {i} (resolvent {op.name!r}) has dimension "
                                 f"{op.dim}, but an earlier resolvent fixes {self.dim}")
        if z is None:
            self.z, to_duals = np.eye(n), laplacian(bg.base)
        else:
            z = np.asarray(z, dtype=float)
            if z.shape != (n, n - 1):
                raise ValueError(f"Z must be {n}x{n - 1}, got {z.shape}")
            self.z, to_duals = z, z.T
        self.z_rows, self.z_cols = sparse.csr_matrix(self.z), sparse.csr_matrix(to_duals)
        self.in_nbrs = [bg.state.in_neighbors(i) for i in range(n)]
        degrees = bg.state.degrees()
        self.degrees = degrees.tolist()
        self.inv_d = 1.0 / degrees[:, None]
        height = [0] * n  # longest state path from each node to a sink
        for i in reversed(range(n)):
            outs = bg.state.out_neighbors(i)
            height[i] = 1 + max((height[j] for j in outs), default=-1)
        self.levels = [[] for _ in range(max(height) + 1)]
        for i, h in enumerate(height):
            self.levels[-1 - h].append(i)
        # per level: the nodes solved one by one, and the level's hinge nodes
        # as (rows, stacked resolvent, CSR in-adjacency, 2/d_i), or None
        # when the level has fewer than two
        self.schedule = [self._level(nodes) for nodes in self.levels]
        self._workspaces = {}

    def workspace(self, dim):
        """(w_term, scratch, finite), two float and one bool (N, dim) array
        made on first use per dim: a step writes (1/d) Z w into w_term, stacks
        hinge inputs in scratch and tests x in finite; the run loop's
        diagnostics then reuse scratch.  So a plan serves one step at a time."""
        if dim not in self._workspaces:
            buf = np.empty((self.n_nodes, dim))
            self._workspaces[dim] = buf, np.empty_like(buf), np.empty_like(buf, bool)
        return self._workspaces[dim]

    def _level(self, nodes):
        hinges = [i for i in nodes if getattr(self.ops[i], "hinge", None) is not None]
        if len(hinges) < 2:
            return nodes, None
        into = np.zeros((len(hinges), self.n_nodes))
        for row, i in enumerate(hinges):
            into[row, self.in_nbrs[i]] = 1.0
        d = np.array([self.degrees[i] for i in hinges], dtype=float)
        batch = (
            np.array(hinges),
            stack_hinges([self.ops[i] for i in hinges], d),
            sparse.csr_matrix(into),
            (2.0 / d)[:, None],
        )
        return [i for i in nodes if i not in hinges], batch


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


def _sweep(plan, sigma, w, k):
    """The N resolvent calls of one sweep, level by level; returns x.

    A level's hinge nodes are one stacked call, every other node one
    :func:`node_solution`; both give the bits of the per-node form.
    """
    w_term, scratch, finite = plan.workspace(w.shape[1])
    np.multiply(plan.inv_d, plan.z_rows @ w, out=w_term)
    x = np.empty_like(w_term)
    for nodes, batch in plan.schedule:
        for i in nodes:
            xs_in = [x[h] for h in plan.in_nbrs[i]]
            node_solution(plan.ops[i], sigma, plan.degrees[i], xs_in, w_term[i], x[i])
        if batch is not None:
            rows, hinges, into, two_over_d = batch
            r = np.multiply(two_over_d, into @ x, out=scratch[: len(two_over_d)])
            r += w_term[rows]
            x[rows] = hinges(sigma, r, out=r)
    _check_finite(x, plan.ops, k, finite)
    return x


def step_general(plan, sigma, theta, w, k=0):
    """One sweep over plan; returns (x, w_new, update), fresh arrays that
    no later step on the plan overwrites.

    The update is Z^T x, or L x for a node-local plan.
    """
    x = _sweep(plan, sigma, w, k)
    update = plan.z_cols @ x
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


def _infer_dim(plan):
    """The plan's dimension, which its resolvents fix."""
    if plan.dim is None:
        raise ValueError(
            "cannot infer the ambient dimension: every resolvent is dimension-free"
        )
    return plan.dim


def _initial_dual(plan, w0):
    """w0 as a float array, or zeros when None, checked to be one row per
    column of Z by dim (the plan's, else w0's last), and node-local duals
    to sum to zero."""
    n_rows = plan.z.shape[1]
    node_local = n_rows == plan.n_nodes
    if w0 is None:
        return np.zeros((n_rows, _infer_dim(plan)))
    w = np.array(w0, dtype=float)
    dim = plan.dim or (w.shape[-1] if w.ndim else None)
    if w.shape != (n_rows, dim):
        rows = "N" if node_local else "N-1"
        raise ValueError(
            f"w0 must have shape ({rows}, dim) = {(n_rows, dim)}, got {w.shape}"
        )
    if not np.isfinite(w).all():
        bad = tuple(np.argwhere(~np.isfinite(w))[0].tolist())
        raise ValueError(f"w0{list(bad)} must be finite, got {w[bad]}")
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
    traces = []
    for k in range(cfg.max_iter):
        w_in = w
        x, w, u = step_general(plan, cfg.sigma, cfg.theta_at(k), w_in, k)
        scratch = plan.workspace(x.shape[1])[1]
        prod = np.multiply(x if node_local else u, u, out=scratch[: len(u)])
        residual_sq = float(np.add.reduce(prod, axis=None))
        a_sum = np.matmul(z_sum, w_in, out=scratch[0])
        a_sum -= np.matmul(m_sum, x, out=scratch[1])
        subgrad_sum_norm = float(np.linalg.norm(np.divide(a_sum, cfg.sigma, out=a_sum)))
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


def lifted_ppp_step(bg, z, affine_ops, cfg, u, k=0):
    """One step of the unreduced iteration on H^(2N-1), dense solve.

    u rows are (x_1..x_N, v_1..v_{N-1}).  Affine operators only.
    """
    m_mat, a_lin, offset = _lifted_system(bg, z, affine_ops, cfg.sigma)
    rhs = m_mat @ u + offset
    t_u = np.linalg.solve(m_mat + a_lin, rhs)
    return u + cfg.theta_at(k) * (t_u - u)


def lifted_reduce(z, u):
    """Project a lifted iterate to the reduced dual: w = Z^T x + v."""
    n = z.shape[0]
    return z.T @ u[:n] + u[n:]


def lifted_resolvent_w(bg, z, affine_ops, sigma, w):
    """Apply the lifted resolvent to an embedded dual and reduce it back.

    Equals one reduced fixed-point application w -> w - Z^T x(w), which the
    tests verify against :func:`step_general`.
    """
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

