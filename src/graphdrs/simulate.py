"""Deterministic message-passing simulation of the distributed protocols.

A protocol is the centralized sweep executed node by node, read off the
:class:`StepPlan` of its form: incidence Z on a tree base (tree), or the
node-local Z = I (general).  Agent i applies row i of Z to the duals it
holds.  Dual row c belongs to the last nonzero row of Z's column c (the head
of tree edge c, or node c), which applies row c of the update map (Z^T, or
the base Laplacian L) to the estimates it holds and sends the result to the
column's other nonzero rows.  An agent sends its estimate to its state
out-neighbours, then to every other owner of an update row that reads it
(its base in-neighbours, for node-local duals), which receives it late.

A round is a sweep, then one dual update, as the centralized step is.  A
run holds what its agents read in one operand buffer, each row keyed
(holder, kind, index): the duals w, the duals received at the round's start
(each was sent at the end of the round before), each level's received
estimates, x, and the estimates received late.  The plan's own maps,
remapped once onto those rows in their stored term order, do the sums: the
dual-term map, scaled by 1/d_i, gives every agent's dual term, each level
runs the sweep's level kernel, :func:`~graphdrs.solver._solve_level`, on
the rows its agents received, and the update map gives every new dual row,
sent by one scatter.  A level's turn receives its block by one gather,
solves, and sends its estimates in one call: a lone sender's row onto its
run of slots, else a scatter; an empty receive or send makes no slot call.
No dual row is read in the round that sends it, and a product keeps each
map's term order, so simulated and centralized iterates are bit-identical.

The traffic does not depend on the data: every round the same senders send
to the same receivers in the same order.  So the simulator reads its send
table off the plan once, when it is built: (src, dst, kind, payload row) per
message of a round, in log order (by sender label: each sender's estimates,
then its duals); round 0 sends the dual initialization.  Each row of the
table is also a slot, the row of a run's (slots, dim) buffer for its (src,
dst, kind) channel, with a flag that marks an unread message: a receive from
an empty slot, or a send onto a full one, raises :class:`ProtocolError`.
:meth:`NetworkSim.rounds`, the protocol loop, yields each round's fresh
estimates and duals and keeps none, so its memory does not grow with the
rounds; :meth:`NetworkSim.run` collects it and rebuilds the message log from
the send table, each payload a view of its round's x or w row, which the
simulator never writes again.  :func:`write_message_log` writes the table as
CSV, one block per round.  Each run starts from a fresh network with a slot
buffer of its own, so runs, even interleaved ones, share no message, and a
second run repeats the first.
"""

import copy
import numbers
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .factorization import incidence_decomposition
from .solver import StepPlan, _check_finite, _Csr, _solve_level
from .solver import node_solution  # noqa: F401 -- bench/test_tracing.py checks this alias


class ProtocolError(RuntimeError):
    """A protocol step referenced a value that is not locally available."""


@dataclass(slots=True)
class Message:
    round: int
    src: int
    dst: int
    kind: str  # x | w
    payload: np.ndarray  # a row of its round's fresh x or w, never written again


@dataclass
class SimResult:
    x_history: np.ndarray  # (rounds, N, dim), collected from NetworkSim.rounds
    w: np.ndarray  # last duals, (E', dim) for tree or (N, dim) for general
    log: list  # every Message of the run, rebuilt from the send table in log order


def _terms(m):
    """(row, col) of each stored term of the _Csr m, in stored order."""
    return zip(m.rows.tolist(), m.indices.tolist())


def _round_count(n):
    """n as an int, if it is a non-negative integer (not a bool)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"rounds must be a non-negative integer, got {n!r}")
    return int(n)


class NetworkSim:
    """Synchronous event loop over one slot buffer per run.

    Agent i runs ops[i] and talks only along the bilevel graph: estimates
    over state edges and reversed base edges, duals over base edges.  Its
    channels, degrees and dimension come from plan, the :class:`StepPlan` of
    the protocol's centralized form (incidence Z for tree, node-local for
    general), which the protocol name only chooses.

    The send table, ``sends``, read off the plan when the simulator is
    built, lists a round's messages as (src, dst, kind, payload row) in log
    order, and ``init`` round 0's slots, the dual initialization, in send
    order.  Row s of the table is also the channel of slot s: a run is a
    copy of the simulator with a (slots, dim) buffer ``buf`` of its own,
    whose flag ``full[s]`` says whether slot s holds a message nobody has
    read.  Every send of a run goes through :meth:`_send`.  A round
    receives its duals at its start, so the level turns carry only
    estimates.
    """

    def __init__(self, bg, ops, cfg, protocol="tree"):
        if protocol not in ("tree", "general"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if protocol == "tree" and not bg.base.is_tree():
            raise ValueError("tree protocol requires a tree base graph")
        z = incidence_decomposition(bg.base) if protocol == "tree" else None
        self.plan = StepPlan(bg, ops, z)
        self.bg = bg
        self.cfg = cfg
        self.protocol = protocol
        self._layout(*self._tables())

    # -- the slot buffer ----------------------------------------------------

    def _send(self, rnd, slots, payload):
        """Write payload onto slots, each of which must have been read: a row
        per slot, or one row onto a run of slots given as a slice."""
        full = self.full[slots]
        if np.count_nonzero(full):  # one unread; cheaper than full.any()
            s = np.arange(len(self.full))[slots][full.argmax()]
            src, dst, kind, _ = self.sends[s]
            raise ProtocolError(f"agent {src} at round {rnd}: unread {kind} message to {dst}")
        self.buf[slots] = payload
        self.full[slots] = True

    def _recv(self, rnd, slots, out):
        """Gather the messages on slots into out, in order, emptying them; each must be there."""
        full = self.full[slots]
        if np.count_nonzero(full) < len(full):  # one missing
            src, dst, kind, _ = self.sends[slots[full.argmin()]]
            raise ProtocolError(
                f"agent {dst} at round {rnd}: missing {kind} message from {src}"
            )
        self.full[slots] = False
        self.buf.take(slots, axis=0, out=out, mode="clip")  # no temporary; slots checked

    # -- the protocol -------------------------------------------------------

    def _tables(self):
        """Read off the plan: the send table and round 0's slots (stored on
        self), each dual row's owner, the slot of each channel, and each
        agent's estimate receivers, in send order."""
        plan, state, z = self.plan, self.bg.state, self.plan.z

        def nonzero(v):
            return np.flatnonzero(v).tolist()

        owner = [nonzero(col)[-1] for col in z.T]
        readers = [set() for _ in range(plan.n_nodes)]  # owners of update rows reading x_j
        for c, j in _terms(plan.z_cols):
            readers[j].add(owner[c])
        outs = [state.out_neighbors(i) for i in range(plan.n_nodes)]
        outs = [js + sorted(readers[i] - {i, *js}) for i, js in enumerate(outs)]
        duals = [(o, h, "w", c) for c, (o, col) in enumerate(zip(owner, z.T))
                 for h in nonzero(col)[:-1]]
        estimates = [(i, j, "x", i) for i, js in enumerate(outs) for j in js]
        # stable: each sender's estimates, then its duals
        self.sends = sorted(estimates + duals, key=itemgetter(0))
        slot = {send[:3]: s for s, send in enumerate(self.sends)}
        self.init = [slot[send[:3]] for send in duals]
        return owner, slot, outs

    def _layout(self, owner, slot, outs):
        """Build the run's operand layout and the maps over it: a row is
        keyed (holder, kind, index), the agent holding the dual row or
        estimate index, in the blocks the module docstring lists; a received
        block's slots come from its keys.  remap carries a plan _Csr, row r
        held by holders[r], onto those rows in its stored term order."""
        plan = self.plan
        at = {}  # the operand row of each key

        def hold(keys):
            lo = len(at)
            at.update((key, lo + k) for k, key in enumerate(keys))
            return slice(lo, len(at))

        def received(keys):  # (rows, receive slots): a dual comes from its owner
            return hold(keys), np.array([slot[owner[c] if kind == "w" else c, i, kind]
                                         for i, kind, c in keys], dtype=int)

        hold([(o, "w", c) for c, o in enumerate(owner)])
        self._dual_block = received([(i, "w", c) for i, c in _terms(plan.z_rows) if owner[c] != i])
        levels = []
        for singles, batch in plan.schedule:
            ids = [i for _, _, i, _ in singles] + ([] if batch is None else batch[0].tolist())
            levels.append((ids, *received([(i, "x", h) for i in ids for h in plan.in_nbrs[i]])))
        self._x_rows = hold([(i, "x", i) for i in range(plan.n_nodes)])
        needs = {(owner[c], "x", j) for c, j in _terms(plan.z_cols)}
        self._late = received(sorted(needs - at.keys()))

        def remap(m, holders, kind):
            cols = [at[holders[r], kind, c] for r, c in _terms(m)]
            return _Csr((m.shape[0], len(at)), m.rows, cols, m.data)

        self._dual_terms = remap(plan.z_rows, range(plan.n_nodes), "w")
        self._update_map = remap(plan.z_cols, owner, "x")
        self._turns = []
        for (singles, batch), (ids, rows, recv_slots) in zip(plan.schedule, levels):
            singles = [(op, d_i, i, [at[i, "x", h] for h in nbrs]) for op, d_i, i, nbrs in singles]
            if batch is not None:
                hinge_rows, hinges, into, two_over_d = batch
                batch = hinge_rows, hinges, remap(into, hinge_rows.tolist(), "x"), two_over_d
            send_slots = [slot[i, j, "x"] for i in ids for j in outs[i]]
            senders = [i for i in ids if outs[i]]
            if len(senders) == 1:  # a sender's estimates are adjacent in the table
                send_slots, send_rows = slice(send_slots[0], send_slots[-1] + 1), senders[0]
            elif senders:
                send_slots = np.array(send_slots, dtype=int)
                send_rows = np.array([i for i in ids for _ in outs[i]], dtype=int)
            else:
                send_rows = None
            self._turns.append((rows, recv_slots, singles, batch, send_slots, send_rows))

    def rounds(self, n):
        """Simulate n sweeps on a fresh network, yielding (x, w) per round:
        its fresh (N, dim) estimates and (rows, dim) duals, which the
        simulator never writes again.  n must be a non-negative integer.
        The run is a copy of the simulator with a slot buffer of its own.
        A round's messages are the rows of self.sends, and round 0's, the
        dual initialization, its rows self.init; no message is an object of
        its own.  A round receives every dual at its start, and its turns
        carry only estimates.  Non-finite estimates raise the centralized
        step's :class:`NumericalError` before the update."""
        n = _round_count(n)
        run = copy.copy(self)
        run.buf = np.empty((len(self.sends), self.plan.dim))
        run.full = np.zeros(len(self.sends), dtype=bool)
        return run._rounds(n)

    def _rounds(self, n):
        plan, dim, sigma, update = self.plan, self.plan.dim, self.cfg.sigma, self._update_map
        (dual_rows, dual_recv), (late_rows, late) = self._dual_block, self._late
        n_w = update.shape[0]
        operand = np.empty((update.shape[1], dim))
        w_term, scratch = np.empty((plan.n_nodes, dim)), np.empty((plan.n_nodes, dim))
        dual_slots = np.array(self.init, dtype=int)
        dual_sent = np.array([self.sends[s][3] for s in self.init], dtype=int)
        # round 0: owners initialize their duals and send them out
        w = np.zeros((n_w, dim))
        if len(dual_slots):
            self._send(0, dual_slots, w[dual_sent])
        for rnd in range(1, n + 1):
            theta = self.cfg.theta_at(rnd - 1)
            if len(dual_recv):
                self._recv(rnd, dual_recv, operand[dual_rows])
            operand[:n_w] = w
            self._dual_terms.product(operand, w_term)
            w_term *= plan.inv_d
            x = np.empty((plan.n_nodes, dim))
            for rows, recv_slots, singles, batch, send_slots, send_rows in self._turns:
                if len(recv_slots):  # a level reads earlier levels
                    self._recv(rnd, recv_slots, operand[rows])
                _solve_level(singles, batch, sigma, operand, w_term, x, scratch)
                if send_rows is not None:
                    self._send(rnd, send_slots, x[send_rows])
            _check_finite(x, plan.ops, rnd - 1, plan.finite)
            operand[self._x_rows] = x
            if len(late):
                self._recv(rnd, late, operand[late_rows])
            new = update.product(operand, np.empty((n_w, dim)))
            w = np.subtract(w, np.multiply(theta, new, out=new), out=new)
            if len(dual_slots):
                self._send(rnd, dual_slots, w[dual_sent])
            yield x, w

    def run(self, rounds):
        """Collect :meth:`rounds`: the estimates into x_history, and the
        messages into self.log, rebuilt from the send table, each payload a
        view of its round's fresh x or w row."""
        kept = list(self.rounds(rounds))
        x_history = np.empty((rounds, self.plan.n_nodes, self.plan.dim))
        w = np.zeros((self.plan.z.shape[1], self.plan.dim))  # round 0's duals
        self.log = [Message(0, *self.sends[s][:3], w[self.sends[s][3]]) for s in self.init]
        for rnd, (x, w) in enumerate(kept, 1):
            x_history[rnd - 1] = x
            self.log += [Message(rnd, src, dst, kind, (x if kind == "x" else w)[row])
                         for src, dst, kind, row in self.sends]
        return SimResult(x_history, w.copy(), self.log)

    def total_messages(self, rounds):
        """The messages a run of rounds sends, round 0's included."""
        return len(self.init) + _round_count(rounds) * len(self.sends)


def run_tree_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="tree").run(rounds)


def run_general_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="general").run(rounds)


def write_message_log(sim, rounds, fh):
    """CSV export of sim's run of rounds with 1-based node labels:
    round,from,to,kind.  Round 0's dual initialization, then each round's
    send table stamped with the round number, written as one block."""
    rounds = _round_count(rounds)
    rows = [f"{{0}},{src + 1},{dst + 1},{kind}\n" for src, dst, kind, _ in sim.sends]
    fh.write("round,from,to,kind\n")
    fh.write("".join(rows[s] for s in sim.init).format(0))
    parts = "".join(rows).split("{0}")
    for rnd in range(1, rounds + 1):
        fh.write(str(rnd).join(parts))
