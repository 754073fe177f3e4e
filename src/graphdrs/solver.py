"""Centralized graph-based Douglas-Rachford engine.

One sweep evaluates each resolvent once, in ascending node order (forced by
the topological structure of the state graph), then updates the dual
variables.  Three equivalent formulations are provided:

* :func:`step_general` -- dual variables w in H^(N-1), any factorization Z;
* :func:`step_tree` -- dual variables indexed by base edges (tree bases,
  equal to the general step with the incidence factorization);
* :func:`step_wtilde` -- node-local dual variables with zero sum, one per
  node, usable with any base graph.

The per-node arithmetic lives in small shared kernels (:func:`node_solution`,
:func:`tree_w_update`, :func:`wtilde_node_update`) that the message-passing
simulator reuses verbatim, so centralized and simulated runs agree bit for
bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .factorization import external_decomposition, incidence_decomposition
from .graphs import BilevelGraph, OrderedDigraph, laplacian, p_matrix, sigma_matrix

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
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not callable(self.theta) and not 0.0 < float(self.theta) < 2.0:
            raise ValueError("constant relaxation must lie in (0, 2)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")

    def theta_at(self, k):
        if callable(self.theta):
            # keep user sequences bounded away from 0 and 2
            return min(max(float(self.theta(k)), THETA_CLAMP), 2.0 - THETA_CLAMP)
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

def node_solution(op, sigma, d_i, xs_in, w_terms, dim):
    """One resolvent evaluation of the sweep.

    xs_in are the already-updated estimates of the smaller-labeled state
    neighbors, ascending; w_terms are (coefficient, dual vector) pairs in a
    fixed order.  Both callers must pass identical orderings for bit-equal
    results.
    """
    acc = np.zeros(dim)
    for xh in xs_in:
        acc = acc + xh
    wacc = np.zeros(dim)
    for coeff, wv in w_terms:
        wacc = wacc + coeff * wv
    u = (2.0 / d_i) * acc + (1.0 / d_i) * wacc
    return op(sigma / d_i, u)


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
    """Precomputed sparsity pattern of one solver configuration."""

    def __init__(self, bg, z):
        self.bg = bg
        self.z = np.asarray(z, dtype=float)
        n = bg.n_nodes
        if self.z.shape != (n, n - 1):
            raise ValueError(f"Z must be {n}x{n - 1}, got {self.z.shape}")
        self.in_nbrs = [bg.state.in_neighbors(i) for i in range(n)]
        self.degrees = bg.state.degrees()
        # per node: nonzero (column, coefficient) pairs of Z, ascending column
        self.wcols = [
            [(j, self.z[i, j]) for j in range(n - 1) if self.z[i, j] != 0.0]
            for i in range(n)
        ]
        # per column: nonzero (row, coefficient) pairs, ascending row
        self.xrows = [
            [(i, self.z[i, j]) for i in range(n) if self.z[i, j] != 0.0]
            for j in range(n - 1)
        ]


def _check_finite(x, k):
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"non-finite solution estimate at iteration {k}")


def step_general(plan, ops, sigma, theta, w, k=0):
    """One sweep of the general method; returns (x, w_new, z_t_x)."""
    bg = plan.bg
    n = bg.n_nodes
    dim = w.shape[1]
    if len(ops) != n:
        raise ValueError(f"need {n} operators, got {len(ops)}")
    xs = [None] * n
    for i in range(n):
        xs[i] = node_solution(
            ops[i],
            sigma,
            plan.degrees[i],
            [xs[h] for h in plan.in_nbrs[i]],
            [(coeff, w[j]) for j, coeff in plan.wcols[i]],
            dim,
        )
    x = np.array(xs)
    _check_finite(x, k)
    ztx = np.empty_like(w)
    w_new = np.empty_like(w)
    for j in range(n - 1):
        acc = np.zeros(dim)
        for i, coeff in plan.xrows[j]:
            acc = acc + coeff * xs[i]
        ztx[j] = acc
        w_new[j] = w[j] - theta * acc
    return x, w_new, ztx


def step_tree(bg, ops, sigma, theta, w_edges, k=0):
    """One sweep with edge-indexed dual variables (tree base graphs).

    w_edges rows follow the base edge-list order.  Produces the same x and,
    bit for bit, the same duals as :func:`step_general` with the incidence
    factorization.
    """
    if not bg.base.is_tree():
        raise ValueError("step_tree requires a tree base graph")
    n = bg.n_nodes
    dim = w_edges.shape[1]
    edges = bg.base.edges
    xs = [None] * n
    for i in range(n):
        w_terms = []
        for e, (h, j) in enumerate(edges):
            if h == i:
                w_terms.append((1.0, w_edges[e]))
            elif j == i:
                w_terms.append((-1.0, w_edges[e]))
        xs[i] = node_solution(
            ops[i],
            sigma,
            bg.state.degree(i),
            [xs[h] for h in bg.state.in_neighbors(i)],
            w_terms,
            dim,
        )
    x = np.array(xs)
    _check_finite(x, k)
    w_new = np.empty_like(w_edges)
    for e, (h, i) in enumerate(edges):
        w_new[e] = tree_w_update(w_edges[e], theta, xs[i], xs[h])
    return x, w_new


def step_wtilde(bg, ops, sigma, theta, wt, k=0):
    """One sweep of the node-local dual formulation; returns (x, wt_new)."""
    n = bg.n_nodes
    dim = wt.shape[1]
    scale = max(1.0, float(np.abs(wt).max(initial=0.0)))
    if np.abs(wt.sum(axis=0)).max(initial=0.0) > 1e-9 * scale:
        raise ValueError("node-local duals must sum to zero")
    xs = [None] * n
    for i in range(n):
        xs[i] = node_solution(
            ops[i],
            sigma,
            bg.state.degree(i),
            [xs[h] for h in bg.state.in_neighbors(i)],
            [(1.0, wt[i])],
            dim,
        )
    x = np.array(xs)
    _check_finite(x, k)
    wt_new = np.empty_like(wt)
    for i in range(n):
        wt_new[i] = wtilde_node_update(
            wt[i],
            theta,
            bg.base.degree(i),
            xs[i],
            [xs[j] for j in bg.base.adjacency(i)],
        )
    return x, wt_new


# ---------------------------------------------------------------------------
# diagnostics

def state_variance(x):
    """Mean squared deviation of the estimates from their average."""
    xbar = x.mean(axis=0)
    return float(np.mean(np.sum((x - xbar) ** 2, axis=1)))


def compute_subgradients(bg, z, sigma, w, x):
    """Subgradients a_i in A_i x_i, solved from the defining linear relation.

    a = (Z w - L x - (Sigma + P) x) / sigma with L, Sigma from the base
    Laplacian and P from the state edges outside the base; w is the dual
    iterate that produced x.
    """
    lap = laplacian(bg.base)
    sp = sigma_matrix(bg.base) + p_matrix(bg)
    return (np.asarray(z) @ w - lap @ x - sp @ x) / sigma


def _infer_dim(ops, w0):
    if w0 is not None:
        return w0.shape[-1]
    for op in ops:
        if op.dim > 0:
            return op.dim
    raise ValueError("cannot infer the ambient dimension; pass w0 explicitly")


def run(bg, decomp, ops, cfg, w0=None, objective=None):
    """Iterate the general method; returns (SolverState, [TraceRecord]).

    Stops after the update once residual^2 < tol (tol = 0 runs max_iter
    sweeps exactly).  Non-convergence is not an error: inspect the trace.
    """
    z = decomp.z if hasattr(decomp, "z") else np.asarray(decomp, dtype=float)
    n = bg.n_nodes
    dim = _infer_dim(ops, w0)
    plan = StepPlan(bg, z)
    lap = laplacian(bg.base)
    sp = sigma_matrix(bg.base) + p_matrix(bg)
    w = np.zeros((n - 1, dim)) if w0 is None else np.array(w0, dtype=float)
    traces = []
    x = np.zeros((n, dim))
    a = np.zeros((n, dim))
    k = 0
    for k in range(cfg.max_iter):
        w_prev = w
        x, w, ztx = step_general(plan, ops, cfg.sigma, cfg.theta_at(k), w_prev, k)
        residual_sq = float(np.sum(ztx**2))
        a = (z @ w_prev - lap @ x - sp @ x) / cfg.sigma
        obj = None
        if objective is not None:
            obj = float(objective(x.mean(axis=0)))
        traces.append(
            TraceRecord(
                k=k,
                residual_sq=residual_sq,
                variance=state_variance(x),
                subgrad_sum_norm=float(np.linalg.norm(a.sum(axis=0))),
                objective=obj,
            )
        )
        if cfg.tol > 0 and residual_sq < cfg.tol:
            break
    return SolverState(w=w, x=x, a=a, k=k + 1), traces


def run_wtilde(bg, ops, cfg, wt0=None, objective=None):
    """Iterate the node-local dual formulation; returns (SolverState, traces).

    The residual ||Z^T x||^2 is computed factorization-free as <x, L x>.
    """
    n = bg.n_nodes
    dim = _infer_dim(ops, wt0)
    lap = laplacian(bg.base)
    sp = sigma_matrix(bg.base) + p_matrix(bg)
    wt = np.zeros((n, dim)) if wt0 is None else np.array(wt0, dtype=float)
    traces = []
    x = np.zeros((n, dim))
    a = np.zeros((n, dim))
    k = 0
    for k in range(cfg.max_iter):
        wt_prev = wt
        x, wt = step_wtilde(bg, ops, cfg.sigma, cfg.theta_at(k), wt_prev, k)
        residual_sq = float(np.sum(x * (lap @ x)))
        a = (wt_prev - lap @ x - sp @ x) / cfg.sigma
        obj = None
        if objective is not None:
            obj = float(objective(x.mean(axis=0)))
        traces.append(
            TraceRecord(
                k=k,
                residual_sq=residual_sq,
                variance=state_variance(x),
                subgrad_sum_norm=float(np.linalg.norm(a.sum(axis=0))),
                objective=obj,
            )
        )
        if cfg.tol > 0 and residual_sq < cfg.tol:
            break
    return SolverState(w=wt, x=x, a=a, k=k + 1), traces


# ---------------------------------------------------------------------------
# unreduced (lifted) iteration, for verification at test scale

MAX_LIFTED_NODES = 6


def _affine_terms(ops):
    terms = []
    for op in ops:
        if isinstance(op, tuple) and len(op) == 2:
            mu, c = op
        elif hasattr(op, "affine_mu"):
            mu, c = op.affine_mu, op.affine_center
        else:
            raise TypeError(
                "the lifted step requires affine operators given as (mu, center)"
            )
        terms.append((float(mu), np.asarray(c, dtype=float)))
    return terms


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

def _complete(n):
    return OrderedDigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_classical_drs():
    """N = 2, single edge: the textbook Douglas-Rachford method."""
    g = OrderedDigraph(2, [(0, 1)])
    return BilevelGraph(g, g)


def make_ryu(n):
    """Complete state graph with a star base rooted at the last node."""
    if n < 3:
        raise ValueError("need n >= 3")
    base = OrderedDigraph(n, [(i, n - 1) for i in range(n - 1)])
    return BilevelGraph(_complete(n), base)


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
    g = _complete(3)
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


def write_trace(records, fh, comments=()):
    """Write TraceRecords as CSV with 17 significant digits."""
    for line in comments:
        fh.write(f"# {line}\n")
    fh.write(TRACE_HEADER + "\n")
    for r in records:
        fh.write(
            f"{r.k},{_fmt(r.residual_sq)},{_fmt(r.variance)},"
            f"{_fmt(r.subgrad_sum_norm)},{_fmt(r.objective)}\n"
        )
