"""References that the tests compare the library against.

Each is written from the problem data (edge lists, Z, the affine terms of
the operators) rather than from the structures the library builds, so a
test that compares the two checks something:

* :func:`same_bits` and :func:`identical_bits`, the two bit-level
  comparisons, and :func:`round_bytes`, a simulator run's rounds as bytes;
* :func:`loop_divergence_matrix`, the grid divergence as a CSR matrix built
  cell by cell, the oracle for ``operators.grid_stencils``;
* :func:`scalar_hinge`, the hinge resolvent with a kernel of its own on one
  vector, the oracle for ``operators.stack_hinges``;
* :func:`row_sum` and :func:`node_dual_term`, a CSR product's row and a
  node's dual term summed term by term;
* :func:`reference_sweep`, one sweep node by node in label order, each hinge
  through :func:`scalar_hinge`;
* the paper's lifted iteration on H^(2N-1) with affine operators
  x -> mu_i (x - c_i), given as (mu_i, c_i) pairs, by dense solves:
  :func:`lifted_ppp_step`, :func:`lifted_reduce` and
  :func:`lifted_resolvent_w`;
* :func:`reference_rounds`, the simulator's rounds with every agent taking
  its own turn in label order, :func:`shifted_estimates`, a channel that
  shifts every estimate it carries, and :func:`message_stats`, the message
  counts of a simulator log;
* :func:`loop_sigma_matrix`, the skew-symmetric coupling matrix entry by
  entry.
"""

import numpy as np
from scipy import sparse

from graphdrs.graphs import laplacian, p_matrix, sigma_matrix
from graphdrs.operators import Resolvent
from graphdrs.solver import node_solution


# ---------------------------------------------------------------------------
# bit-level comparisons


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def same_bits(a, b):
    """Equal bit for bit, -0.0 against 0.0 included; NaNs only by position."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        bits(np.where(nan, 0.0, a)), bits(np.where(nan, 0.0, b))
    )


def identical_bits(a, b):
    """Same shape and every bit equal, NaN payloads included."""
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def round_bytes(rounds):
    """A simulator's (x, sent) rounds as bytes: per round, x and each message's
    round, src, dst, kind and payload, in log order; equal bytes mean equal
    bits and order."""
    return [(x.tobytes(), [(m.round, m.src, m.dst, m.kind, m.payload.tobytes()) for m in sent])
            for x, sent in rounds]


# ---------------------------------------------------------------------------
# the transport grid


def loop_divergence_matrix(p):
    """The grid divergence as a CSR matrix built cell by cell, entry by entry:
    the oracle for operators.grid_stencils."""
    n = p * p
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for r in range(p):
        for c in range(p):
            k = r * p + c
            if c < p - 1:
                add(k, 2 * k, 1.0)
                add(k + 1, 2 * k, -1.0)
            if r < p - 1:
                add(k, 2 * k + 1, 1.0)
                add(k + p, 2 * k + 1, -1.0)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, 2 * n))


# ---------------------------------------------------------------------------
# the hinge


def scalar_hinge(s, offset):
    """The resolvent of tau * max(offset - s.r, 0) on one vector in scalar
    arithmetic: p = s.r, then p, p + tau |s|^2 or offset by branch.  The
    oracle that ``operators.stack_hinges`` equals bit for bit."""
    s_sq = float(s @ s)
    step = np.empty_like(s)

    def fn(tau, r, out):
        p = float(s @ r)
        q = tau * s_sq
        if p >= offset:
            pi = p
        elif p <= offset - q:
            pi = p + q
        else:
            pi = offset
        np.add(r, np.multiply((pi - p) / s_sq, s, out=step), out=out)

    return Resolvent(s.size, fn, name="hinge")


def scalar_ops(ops):
    """ops with every hinge replaced by its :func:`scalar_hinge`."""
    return [scalar_hinge(*op.hinge) if hasattr(op, "hinge") else op for op in ops]


# ---------------------------------------------------------------------------
# sweeps


def row_sum(terms, dim):
    """Sum of coefficient * vector over (coefficient, vector) terms, added
    from zero one at a time in column order, as a CSR product sums its row;
    a +-1 coefficient adds or subtracts the vector, exactly +-1.0 * vector."""
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


def reference_sweep(bg, z, ops, sigma, w):
    """x of one sweep, node by node in label order through node_solution,
    each hinge through its :func:`scalar_hinge`."""
    n, dim = bg.n_nodes, w.shape[1]
    d = bg.state.degrees().tolist()
    ops = scalar_ops(ops)
    x = np.zeros((n, dim))
    for i in range(n):
        terms = [(z[i, c], w[c]) for c in np.flatnonzero(z[i])]
        xs_in = [x[h] for h in bg.state.in_neighbors(i)]
        node_solution(ops[i], sigma, d[i], xs_in, node_dual_term(d[i], terms, dim), x[i])
    return x


def lifted_system(bg, z, terms, sigma):
    """(M, A, offset) of the lifted step u -> (M + A)^-1 (M u + offset):
    M = [[L, Z], [Z^T, I]] is the degenerate preconditioner, and u -> A u -
    offset the lifted operator, for the affine operators x -> mu_i (x - c_i)
    given as terms (mu_i, c_i), one per node."""
    n = bg.n_nodes
    lap = laplacian(bg.base)
    sp = sigma_matrix(bg.base) + p_matrix(bg)
    m_mat = np.block([[lap, z], [z.T, np.eye(n - 1)]])
    a_lin = np.block(
        [[sp + sigma * np.diag([mu for mu, _ in terms]), -z],
         [z.T, np.zeros((n - 1, n - 1))]]
    )
    offset = np.zeros((2 * n - 1, terms[0][1].size))
    for i, (mu, c) in enumerate(terms):
        offset[i] = sigma * mu * c
    return m_mat, a_lin, offset


def lifted_ppp_step(bg, z, terms, sigma, theta, u):
    """One relaxed step of the unreduced iteration on H^(2N-1), dense solve.

    u rows are (x_1..x_N, v_1..v_{N-1}).
    """
    m_mat, a_lin, offset = lifted_system(bg, z, terms, sigma)
    t_u = np.linalg.solve(m_mat + a_lin, m_mat @ u + offset)
    return u + theta * (t_u - u)


def lifted_reduce(z, u):
    """Project a lifted iterate to the reduced dual: w = Z^T x + v."""
    n = z.shape[0]
    return z.T @ u[:n] + u[n:]


def lifted_resolvent_w(bg, z, terms, sigma, w):
    """Apply the lifted resolvent to an embedded dual and reduce it back:
    one reduced fixed-point application w -> w - Z^T x(w)."""
    m_mat, a_lin, offset = lifted_system(bg, z, terms, sigma)
    u = np.linalg.solve(m_mat + a_lin, np.vstack([z @ w, w]) + offset)
    return lifted_reduce(z, u)


# ---------------------------------------------------------------------------
# the simulator


def message_stats(log):
    """Counts per round, per directed edge, and total payload bytes."""
    per_round = {}
    per_edge = {}
    total_bytes = 0
    for msg in log:
        per_round[msg.round] = per_round.get(msg.round, 0) + 1
        key = (msg.src, msg.dst)
        per_edge[key] = per_edge.get(key, 0) + 1
        total_bytes += msg.payload.nbytes
    return {
        "total": len(log),
        "per_round": per_round,
        "per_edge": per_edge,
        "payload_bytes": total_bytes,
    }


def reference_rounds(sim, n):
    """NetworkSim.rounds with one turn per agent, in label order: the agent
    pops its duals and estimates, solves through node_solution (a hinge
    through its :func:`scalar_hinge`), sends its estimate and updates the
    rows it owns by row_sum.  It owns row c of the update map (plan.z_cols:
    Z^T, or L) when it is the last nonzero row of Z's column c; it updates
    in its own turn when it holds every estimate its rows read, and else
    after the round's last agent, once it has received the rest late.
    Yields (x, sent) per round, sent in send order, round 1's after round
    0's dual initialization; sends go through sim._send and receives
    through sim._recv, on sim's channels.  Unlike the other oracles it reads
    its channel lists off the library (sim._agents), so it checks the turn
    schedule and the arithmetic; the message tests check the channels
    against the edge lists."""
    sim.channels = {}
    sim._sent = []
    plan, dim, sigma = sim.plan, sim.plan.dim, sim.cfg.sigma
    recv, send, ops = sim._recv, sim._send, scalar_ops(plan.ops)
    duals, agents = sim._agents()
    update = plan.z_cols.toarray()
    w = sim.w = [np.zeros(dim) for _ in duals]
    for c, (o, w_out) in enumerate(duals):
        send(0, o, w_out, "w", w[c])

    def apply(rnd, theta, i, held, rows):
        for c, row, w_out in rows:
            w[c] = w[c] - theta * row_sum(((a, held[j]) for a, j in row), dim)
            send(rnd, i, w_out, "w", w[c])

    for rnd in range(1, n + 1):
        theta = sim.cfg.theta_at(rnd - 1)
        x = np.empty((plan.n_nodes, dim))
        deferred = []
        for i, d_i, w_in, x_in, x_out in agents:
            w_terms = [(a, w[c] if ch is None else recv(rnd, i, o, ch, "w"))
                       for a, c, o, ch in w_in]
            held = {h: recv(rnd, i, h, ch, "x") for h, ch in x_in}
            node_solution(ops[i], sigma, d_i, list(held.values()),
                          node_dual_term(d_i, w_terms, dim), x[i])
            held[i] = x[i]
            send(rnd, i, x_out, "x", x[i])
            rows = [(c, [(update[c, j], j) for j in np.flatnonzero(update[c]).tolist()], w_out)
                    for c, (o, w_out) in enumerate(duals) if o == i]
            late = sorted({j for _, row, _ in rows for _, j in row} - held.keys())
            if late:
                deferred.append((i, held, late, rows))
            else:
                apply(rnd, theta, i, held, rows)
        for i, held, late, rows in deferred:
            for j in late:
                held[j] = recv(rnd, i, j, sim._channel(j, i), "x")
            apply(rnd, theta, i, held, rows)
        yield x, sim._sent
        sim._sent = []


def shifted_estimates(sim):
    """A _send for sim that replaces every estimate by a fresh, shifted copy:
    an agent that reads the sender's array instead of its message then
    computes something else."""
    def send(rnd, src, outs, kind, payload):
        type(sim)._send(sim, rnd, src, outs, kind, payload + 0.25 if kind == "x" else payload)
    return send


# ---------------------------------------------------------------------------
# graph matrices


def loop_sigma_matrix(base):
    """The skew-symmetric coupling matrix entry by entry: the lower triangle
    of the base Laplacian, its negation above the diagonal."""
    lap = laplacian(base)
    n = base.n_nodes
    sig = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            sig[i, j] = lap[i, j]
            sig[j, i] = -lap[i, j]
    return sig
