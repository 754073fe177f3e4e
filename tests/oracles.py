"""References that the tests compare the library against.

Each is written from the problem data (edge lists, Z, the affine terms of
the operators) rather than from the structures the library builds, so a
test that compares the two checks something:

* :func:`same_bits` and :func:`identical_bits`, the two bit-level
  comparisons, and :func:`round_bytes`, a simulator run's rounds and log as
  bytes;
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
  its own turn in label order over deque channels of its own,
  :func:`sent_rows`, a send call as one payload row per slot,
  :func:`shifted_estimates`, a send step that shifts every estimate it
  carries, :func:`simulated_and_reference`, a library run and a reference
  run as bytes, and :func:`message_stats`, the message counts of a
  simulator log;
* :func:`malitsky_tam_step`, Malitsky and Tam's minimal-lifting splitting
  as their paper states it;
* :func:`loop_sigma_matrix`, the skew-symmetric coupling matrix entry by
  entry.
"""

from collections import deque
from operator import attrgetter

import numpy as np
from scipy import sparse

from graphdrs.graphs import laplacian, p_matrix, sigma_matrix
from graphdrs.operators import Resolvent
from graphdrs.simulate import Message, NetworkSim, ProtocolError
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


def round_bytes(xs, log):
    """A simulator run as bytes, one entry per round: its x and each
    message's round, src, dst, kind and payload in log order, round 0's dual
    initialization with round 1's; equal bytes mean equal bits and order."""
    sent = [[] for _ in xs]
    for m in log:
        sent[max(m.round, 1) - 1].append((m.round, m.src, m.dst, m.kind, m.payload.tobytes()))
    return [(x.tobytes(), s) for x, s in zip(xs, sent)]


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


def reference_rounds(sim, n, shift=0.0):
    """NetworkSim.rounds with one turn per agent, in label order, over
    in-order channels of its own, one deque per (src, dst, kind), read off
    sim's bg.state, bg.base and Z.

    Dual row c belongs to the last nonzero row of Z's column c, which sends
    it to the column's other nonzero rows and owns row c of the update map
    (Z^T on a tree base, else the base Laplacian L).  An agent pops its
    duals and estimates, solves through node_solution (a hinge through its
    :func:`scalar_hinge`), sends its estimate to its state out-neighbours
    and then to every other owner of an update row that reads it, and
    updates the rows it owns by row_sum: in its own turn when it holds every
    estimate they read, and else after the round's last agent, once it has
    received the rest late.  A channel carries each estimate plus shift (a
    nonzero shift shows an agent that reads the sender's array instead of
    its message); the log keeps the sender's array.

    Yields (x, w, sent) per round: its estimates, its duals and its
    messages by sender label, each sender's in send order, round 1's after
    round 0's dual initialization."""
    bg, z, cfg = sim.bg, sim.plan.z, sim.cfg
    n_nodes, dim, sigma = bg.n_nodes, sim.plan.dim, cfg.sigma
    ops, d = scalar_ops(sim.plan.ops), bg.state.degrees().tolist()
    update = z.T if sim.protocol == "tree" else laplacian(bg.base)
    owner = [np.flatnonzero(col)[-1] for col in z.T]
    readers = [sorted({owner[c] for c in np.flatnonzero(update[:, i])}
                      - {i, *bg.state.out_neighbors(i)}) for i in range(n_nodes)]
    channels, sent = {}, []

    def send(rnd, src, dst, kind, payload):
        carried = payload + shift if kind == "x" and shift else payload
        channels.setdefault((src, dst, kind), deque()).append(carried)
        sent.append(Message(rnd, src, dst, kind, payload))

    def recv(rnd, dst, src, kind):
        if not channels.get((src, dst, kind)):
            raise ProtocolError(f"agent {dst} at round {rnd}: missing {kind} message from {src}")
        return channels[src, dst, kind].popleft()

    def send_dual(rnd, c):
        for h in np.flatnonzero(z[:, c])[:-1]:
            send(rnd, owner[c], h, "w", w[c])

    def apply(rnd, theta, held, rows):
        for c in rows:
            terms = [(update[c, j], held[j]) for j in np.flatnonzero(update[c])]
            w[c] = w[c] - theta * row_sum(terms, dim)
            send_dual(rnd, c)

    w = [np.zeros(dim) for _ in owner]
    for c in range(len(owner)):
        send_dual(0, c)
    init = sent[:]  # round 0's, logged with round 1's
    for rnd in range(1, n + 1):
        sent.clear()
        theta = cfg.theta_at(rnd - 1)
        x = np.empty((n_nodes, dim))
        deferred = []
        for i in range(n_nodes):
            w_terms = [(z[i, c], w[c] if owner[c] == i else recv(rnd, i, owner[c], "w"))
                       for c in np.flatnonzero(z[i])]
            held = {h: recv(rnd, i, h, "x") for h in bg.state.in_neighbors(i)}
            node_solution(ops[i], sigma, d[i], list(held.values()),
                          node_dual_term(d[i], w_terms, dim), x[i])
            held[i] = x[i]
            for j in bg.state.out_neighbors(i) + readers[i]:
                send(rnd, i, j, "x", x[i])
            rows = [c for c, o in enumerate(owner) if o == i]
            late = sorted({j for c in rows for j in np.flatnonzero(update[c])} - held.keys())
            if late:
                deferred.append((i, held, late, rows))
            else:
                apply(rnd, theta, held, rows)
        for i, held, late, rows in deferred:
            for j in late:
                held[j] = recv(rnd, i, j, "x")
            apply(rnd, theta, held, rows)
        yield x, np.array(w), init + sorted(sent, key=attrgetter("src"))  # stable
        init = []


def sent_rows(sim, slots, payload):
    """A _send call of sim's run as (slot array, one payload row per slot):
    slots may be a slice, and one payload row may go onto every slot."""
    slots = np.arange(len(sim.sends))[slots]
    return slots, np.broadcast_to(payload, (len(slots), sim.plan.dim))


def shifted_estimates(shift):
    """A NetworkSim._send that writes every estimate plus shift onto its
    slot: an agent that reads the sender's array instead of its message then
    computes something else."""
    def send(self, rnd, slots, payload):
        ids, _ = sent_rows(self, slots, payload)
        is_x = np.array([self.sends[s][2] == "x" for s in ids.tolist()], dtype=bool)
        NetworkSim._send(self, rnd, slots, np.where(is_x[:, None], payload + shift, payload))
    return send


def simulated_and_reference(bg, ops, cfg, protocol, n, shift=0.0):
    """(round_bytes, last duals) of NetworkSim.run, its log rebuilt from the
    send table, and of :func:`reference_rounds`, both with estimates shifted
    by shift in transit, each taken after its whole run, so a payload
    written after it was sent shows too."""
    shifted = type("ShiftedNetworkSim", (NetworkSim,), {"_send": shifted_estimates(shift)})
    result = (shifted if shift else NetworkSim)(bg, ops, cfg, protocol).run(n)
    rounds = list(reference_rounds(NetworkSim(bg, ops, cfg, protocol), n, shift))
    log = [m for _, _, sent in rounds for m in sent]
    return ((round_bytes(result.x_history, result.log), result.w),
            (round_bytes([x for x, _, _ in rounds], log), rounds[-1][1]))


# ---------------------------------------------------------------------------
# resolvent splittings from their papers


def malitsky_tam_step(ops, gamma, lam, z):
    """One step of the minimal-lifting resolvent splitting of Malitsky & Tam,
    "Resolvent splitting for sums of monotone operators with minimal
    lifting" (Math. Program. 2023), for A_1 + ... + A_n with resolvents
    J_i = ops[i](gamma, .), the n - 1 rows of z and relaxation lam in (0, 1):

        x_1 = J_1(z_1),
        x_i = J_i(z_i + x_{i-1} - z_{i-1})      for 1 < i < n,
        x_n = J_n(x_1 + x_{n-1} - z_{n-1}),
        z+  = z + lam (x_2 - x_1, ..., x_n - x_{n-1}).

    Returns (x, z+)."""
    n = len(ops)
    x = [ops[0](gamma, z[0])]
    for i in range(1, n - 1):
        x.append(ops[i](gamma, z[i] + x[i - 1] - z[i - 1]))
    x.append(ops[n - 1](gamma, x[0] + x[n - 2] - z[n - 2]))
    x = np.array(x)
    return x, z + lam * (x[1:] - x[:-1])


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
