"""Deterministic message-passing simulation of the distributed protocols.

A protocol is the centralized sweep executed node by node, read off the
:class:`StepPlan` of its form: incidence Z on a tree base (tree), or the
node-local Z = I (general).  Agent i applies row i of Z to the duals it
holds.  Dual row c belongs to the last nonzero row of Z's column c (the head
of tree edge c, or node c), which applies row c of the update map (Z^T, or
the base Laplacian L) to the estimates it holds and sends the result to the
column's other nonzero rows.  An agent sends its estimate to its state
out-neighbours, then to every other owner of an update row that reads it
(its base in-neighbours, for node-local duals), which receives it late.  A
round is a sweep, then one dual update, as the centralized step is; no dual
row is read in the round that sends it.

Each message has a slot, one per channel, and a receiver reads it in place
on its slot's row: a slot is rewritten only by the next send on its
channel, and the flag check orders that send after the read.  A receive
from an empty slot, or a send onto a full one, raises
:class:`ProtocolError`.  The traffic does not depend on the data, so one
send table, read off the plan when the simulator is built, lists every
round's messages in log order: by sender label, each sender's estimates,
then its duals; round 0 sends the dual initialization.  One set of dual
slots serves a round's dual sends and the next round's receive.  The
agents solve with the sweep's own level kernel and the plan's own maps,
each product in stored term order, so simulated and centralized iterates
are bit-identical.
"""

import copy
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ._checks import integer
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


class _Slots(np.ndarray):
    """A slot set of the send or turn tables: an index array carrying its
    slots' bit mask, ``bits``, made once; an array derived from it carries
    none, so its mask is computed on the call."""


def _slots(slots):
    """slots as a :class:`_Slots`, its mask made now."""
    table = np.array(slots, dtype=np.intp).view(_Slots)
    table.bits = _bits(table.tolist())
    return table


def _bits(slots):
    """The bit mask of an iterable of slot numbers: bit s for slot s."""
    return sum(1 << s for s in set(slots))


class NetworkSim:
    """Synchronous event loop over one operand buffer and slot mask per run.

    ``plan`` is the :class:`StepPlan` of the protocol's centralized form,
    which the protocol name only chooses.  ``sends`` lists a round's
    messages as (src, dst, kind, payload row) in log order, row s being the
    channel of slot s, and ``init`` the dual slots: round 0's sends, then
    every round's dual sends and the next round's receive.  A run is a
    copy of the simulator with an operand buffer of its own, whose slot
    block ``buf`` holds slot s in row s, and an int ``held`` whose bit s is
    set while slot s holds an unread message (``full`` decodes it).  Every
    send goes through :meth:`_send` and every receive through :meth:`_recv`.
    """

    def __init__(self, bg, ops, cfg, protocol="tree"):
        if protocol not in ("tree", "general"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if protocol == "tree" and not bg.base.is_tree():
            raise ValueError("tree protocol requires a tree base graph")
        z = incidence_decomposition(bg.base) if protocol == "tree" else None
        self.plan = StepPlan(bg, ops, z)
        self.bg, self.cfg, self.protocol = bg, cfg, protocol
        self._tables()

    # -- the slot flags -----------------------------------------------------

    def _mask(self, slots):
        """The bit mask of slots: a table set's own, a slice's run of bits,
        or one computed from any other index set."""
        bits = getattr(slots, "bits", None)
        if bits is not None:
            return bits
        if isinstance(slots, slice):
            run = range(len(self.sends))[slots]
            if run.step == 1:
                return ((1 << len(run)) - 1) << run.start
        return _bits(self._slot_list(slots))

    def _slot_list(self, slots):
        """slots, any index set over the slots, as a list of slot numbers in order."""
        return np.arange(len(self.sends))[slots].tolist()

    def _send(self, rnd, slots, payload):
        """Write payload onto slots, each of which must have been read: a row
        per slot, or one row onto a run of slots given as a slice."""
        bits = self._mask(slots)
        if self.held & bits:  # one unread
            s = next(s for s in self._slot_list(slots) if self.held >> s & 1)
            src, dst, kind, _ = self.sends[s]
            raise ProtocolError(f"agent {src} at round {rnd}: unread {kind} message to {dst}")
        self.buf[slots] = payload
        self.held |= bits

    def _recv(self, rnd, slots):
        """Empty slots, each of which must hold a message: its receiver reads
        it in place, from the slot's row of the operand buffer."""
        bits = self._mask(slots)
        if (self.held & bits) != bits:  # one missing
            s = next(s for s in self._slot_list(slots) if not self.held >> s & 1)
            src, dst, kind, _ = self.sends[s]
            raise ProtocolError(f"agent {dst} at round {rnd}: missing {kind} message from {src}")
        self.held ^= bits  # all set: clears them

    @property
    def full(self):
        """A run's slot flags as a bool array, decoded from its mask."""
        return np.array([self.held >> s & 1 for s in range(len(self.sends))], dtype=bool)

    # -- the protocol -------------------------------------------------------

    def _tables(self):
        """Read the protocol off the plan in one pass: the send table, the
        dual slots, each turn's slot sets and the run's operand layout, with
        the maps over it.
        Column c of Z is row c of one _Csr of Z^T, its nonzero rows
        ascending: the last owns dual row c, the others receive it.  An
        operand row is keyed (holder, kind, index), the agent holding the
        dual row or estimate index, in three blocks: the owned duals, the
        slots, each the key its receiver reads, and x.  remap carries a plan
        _Csr, row r held by holders[r], onto those rows in its stored term
        order; the dual terms' row r is held by plan.order[r].  Each level's
        entry is the plan's, built over them."""
        plan, n = self.plan, self.plan.n_nodes
        zt = _Csr.dense(plan.z.T)
        owner = zt.indices[zt.indptr[1:] - 1].tolist()
        # the update map's reads of estimates held elsewhere: their owners
        # receive them, late unless a level reads them first
        needs = {(owner[c], "x", j) for c, j in _terms(plan.z_cols) if owner[c] != j}
        outs = [self.bg.state.out_neighbors(i) for i in range(n)]
        for o, _, j in sorted(needs):
            if o not in outs[j]:
                outs[j].append(o)
        duals = [(owner[c], h, "w", c) for c, h in _terms(zt) if h != owner[c]]
        estimates = [(i, j, "x", i) for i, js in enumerate(outs) for j in js]
        # stable: each sender's estimates, then its duals
        self.sends = sorted(estimates + duals, key=itemgetter(0))
        slot = {(dst, kind, row): s for s, (_, dst, kind, row) in enumerate(self.sends)}
        # tree dual row c has one receiver, so init lists the rows in order
        self.init = _slots([slot[dst, "w", c] for _, dst, _, c in duals])

        x0 = len(owner) + len(self.sends)  # the blocks: owned duals | slots | x
        self._slot_rows, self._x_rows = slice(len(owner), x0), slice(x0, x0 + n)
        at = {(o, "w", c): c for c, o in enumerate(owner)}
        at.update(((i, "x", i), x0 + i) for i in range(n))
        at.update((key, len(owner) + s) for key, s in slot.items())  # read in place

        def remap(m, holders, kind):
            cols = [at[holders[r], kind, c] for r, c in _terms(m)]
            return _Csr((m.shape[0], len(at)), m.rows, cols, m.data)

        self._dual_terms = remap(plan.z_rows, plan.order, "w")
        self._update_map = remap(plan.z_cols, owner, "x")
        self._turns, level_keys = [], set()
        for nodes in plan.levels:
            keys = [(i, "x", h) for i in nodes for h in plan.in_nbrs[i]]
            level_keys.update(keys)
            singles, batch = plan._level(nodes, lambda i, h: at[i, "x", h], len(at))
            senders = [i for i in nodes for _ in outs[i]]  # of each send, in slot order
            send_slots = [slot[j, "x", i] for i in nodes for j in outs[i]]
            if len(set(senders)) == 1:  # a sender's estimates are adjacent in the table
                send_slots, send_rows = slice(send_slots[0], send_slots[-1] + 1), senders[0]
            elif senders:
                send_slots, send_rows = _slots(send_slots), np.array(senders)
            else:
                send_rows = None
            recv_slots = _slots([slot[k] for k in keys])
            self._turns.append((recv_slots, singles, batch, send_slots, send_rows))
        self._late = _slots([slot[k] for k in sorted(needs - level_keys)])

    def rounds(self, n):
        """Simulate n sweeps on a fresh network, yielding (x, w) per round:
        its fresh (N, dim) estimates and (rows, dim) duals, which the
        simulator never writes again.  n must be a non-negative integer.
        The run is a copy of the simulator with an operand buffer and a slot
        mask of its own.  A round's messages are the rows of self.sends, and
        round 0's, the dual initialization, its rows self.init; no message
        is an object of its own.  A round receives every dual at its start,
        from the slots it was sent onto, and its turns carry only estimates.
        Non-finite estimates raise the centralized step's
        :class:`NumericalError` before the update."""
        n = integer("rounds", n, ValueError, "non-negative")
        run = copy.copy(self)
        run.operand = np.empty((self._update_map.shape[1], self.plan.dim))
        run.buf, run.held = run.operand[self._slot_rows], 0
        return run._rounds(n)

    def _rounds(self, n):
        plan, dim, sigma, update = self.plan, self.plan.dim, self.cfg.sigma, self._update_map
        operand, late, init = self.operand, self._late, self.init
        w_term, scratch = np.empty((plan.n_nodes, dim)), np.empty((plan.n_nodes, dim))
        # round 0: owners initialize their duals and send them out, row c onto init[c]
        w = np.zeros((update.shape[0], dim))
        if len(init):
            self._send(0, init, w)
        for rnd in range(1, n + 1):
            theta = self.cfg.theta_at(rnd - 1)
            if len(init):  # the duals sent at the end of the last round
                self._recv(rnd, init)
            operand[:len(w)] = w
            self._dual_terms.product(operand, w_term)
            w_term *= plan.inv_d
            x = np.empty((plan.n_nodes, dim))
            for recv_slots, singles, batch, send_slots, send_rows in self._turns:
                if len(recv_slots):  # a level reads earlier levels
                    self._recv(rnd, recv_slots)
                _solve_level(singles, batch, sigma, operand, w_term, x, scratch)
                if send_rows is not None:
                    self._send(rnd, send_slots, x[send_rows])
            _check_finite(x, plan.ops, rnd - 1, plan.finite)
            operand[self._x_rows] = x
            if len(late):
                self._recv(rnd, late)
            new = update.product(operand, np.empty_like(w))
            w = np.subtract(w, np.multiply(theta, new, out=new), out=new)
            if len(init):
                self._send(rnd, init, w)
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
        rounds = integer("rounds", rounds, ValueError, "non-negative")
        return len(self.init) + rounds * len(self.sends)


def run_tree_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="tree").run(rounds)


def run_general_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="general").run(rounds)


def write_message_log(sim, rounds, fh):
    """CSV export of sim's run of rounds with 1-based node labels:
    round,from,to,kind.  Round 0's dual initialization, then each round's
    send table stamped with the round number, written as one block."""
    rounds = integer("rounds", rounds, ValueError, "non-negative")
    rows = [f"{{0}},{src + 1},{dst + 1},{kind}\n" for src, dst, kind, _ in sim.sends]
    fh.write("round,from,to,kind\n")
    fh.write("".join(rows[s] for s in sim.init).format(0))
    parts = "".join(rows).split("{0}")
    for rnd in range(1, rounds + 1):
        fh.write(str(rnd).join(parts))
