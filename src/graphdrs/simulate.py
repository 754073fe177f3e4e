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

A round is a sweep, then one dual update, as the centralized step is.  Every
dual a round reads was sent at the end of the round before, so the round
starts by receiving them: one gather takes every dual message into the run's
dual block, beside a copy of the owners' own rows, and one
:class:`~graphdrs.solver._Csr` product over the block, then one scaling by
1/d_i, gives every agent's dual term, as the centralized sweep does.  The
round then walks the plan's levels; any topological order of the state DAG
is causally consistent.  A level's agents take one turn, which carries only
estimates: one gather reads their estimate messages into the turn's block of
the run's operand buffer, each single agent solves from its own rows of the
block, the level's hinges from one input-sum product in one stacked call,
and one send writes the level's estimates: a lone sender's row onto its run
of slots, else a scatter.  A turn with nothing to receive or send makes no
slot call.  Then x and the owners' late estimates fill the buffer's tail,
one product of the update map over the buffer gives every new dual row, and
one scatter sends them; no dual row is read in the round that sends it.
Each map lists its terms in the centralized step's sum order, which a
product keeps, so simulated and centralized iterates are bit-identical.

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
from .solver import StepPlan, _check_finite, _Csr, node_solution


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
        owner, slot, agents = self._tables()
        held = []
        self._turns = [self._turn(nodes, batch, agents, held)
                       for nodes, batch in self.plan.schedule]
        self._dual_recv, self._dual_terms = self._duals(owner, slot)
        self._late, self._update_map = self._update(owner, slot, held)

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
        self), each dual row's owner, the slot of each channel, and per agent
        (its estimate receive slots, its estimate send slots)."""
        plan, state, z = self.plan, self.bg.state, self.plan.z

        def nonzero(v):
            return np.flatnonzero(v).tolist()

        owner = [nonzero(col)[-1] for col in z.T]
        readers = [set() for _ in range(plan.n_nodes)]  # owners of update rows reading x_j
        for c, j in zip(plan.z_cols.rows.tolist(), plan.z_cols.indices.tolist()):
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
        agents = [([slot[h, i, "x"] for h in plan.in_nbrs[i]], [slot[i, j, "x"] for j in js])
                  for i, js in enumerate(outs)]
        return owner, slot, agents

    def _duals(self, owner, slot):
        """The dual receive slots (by receiver, then dual row) and the map
        from the dual block, the duals w and then the received ones, to
        every agent's dual term Z w, built once: agent i's term c reads
        w_c where i owns it, else its message from c's owner.  The map keeps
        z_rows' term order, so it sums as the centralized sweep does."""
        z, n_w = self.plan.z_rows, len(owner)
        recv, cols = [], []
        for i, c in zip(z.rows.tolist(), z.indices.tolist()):
            if owner[c] == i:
                cols.append(c)
            else:
                cols.append(n_w + len(recv))
                recv.append(slot[owner[c], i, "w"])
        terms = _Csr((z.shape[0], n_w + len(recv)), z.rows, cols, z.data)
        return np.array(recv, dtype=int), terms

    def _turn(self, nodes, batch, agents, held):
        """A level's turn, built once: its single agents, then its batch's
        hinges, even a lone one, gather their estimate messages into the
        turn's block of the operand buffer (held gains each row's (agent,
        sender)).  A single agent solves from its own rows of the block,
        which :func:`node_solution` sums from zero in order; the hinges from
        one product of their in-adjacency over theirs.  The level's
        estimates then go out in one send: a lone sender's row onto its run
        of slots (a sender's estimates are adjacent in the table), else a
        scatter of their rows.  An empty receive or send makes no slot call."""
        plan, sigma = self.plan, self.cfg.sigma
        ids = nodes + ([] if batch is None else batch[0].tolist())
        start, spans = len(held), []
        for i in ids:
            spans.append((i, len(held), len(held) + len(plan.in_nbrs[i])))
            held += [(i, h) for h in plan.in_nbrs[i]]
        stop = len(held)
        singles = [(plan.ops[i], plan.degrees[i], i, lo, hi) for i, lo, hi in spans[:len(nodes)]]
        recv_slots = np.array([s for i in ids for s in agents[i][0]], dtype=int)
        send_slots = [s for i in ids for s in agents[i][1]]
        senders = [i for i in ids if agents[i][1]]
        if len(senders) == 1:
            send_slots, send_rows = slice(send_slots[0], send_slots[-1] + 1), senders[0]
        elif senders:
            send_slots = np.array(send_slots, dtype=int)
            send_rows = np.array([i for i in ids for _ in agents[i][1]], dtype=int)
        else:
            send_rows = None
        if batch is not None:  # hinge r sums its consecutive rows of the block's tail
            rows, hinges, _, two_over_d = batch
            mid = spans[len(nodes)][1]
            counts = [hi - lo for _, lo, hi in spans[len(nodes):]]
            into = _Csr((len(rows), stop - mid), np.repeat(np.arange(len(rows)), counts),
                        np.arange(stop - mid), np.ones(stop - mid))
            r_buf = np.empty((len(rows), plan.dim))

        def turn(run, rnd, x, w_term, operand):
            if len(recv_slots):
                run._recv(rnd, recv_slots, operand[start:stop])
            for op, d_i, i, lo, hi in singles:
                node_solution(op, sigma, d_i, operand[lo:hi], w_term[i], x[i])
            if batch is not None:
                r = into.product(operand[mid:stop], r_buf)
                r *= two_over_d
                r += w_term[rows]
                x[rows] = hinges(sigma, r, out=r)
            if send_rows is not None:
                run._send(rnd, send_slots, x[send_rows])
        return turn

    def _update(self, owner, slot, held):
        """The late receive slots (by receiver, then sender) and the update
        map (Z^T, or L) over the operand buffer, whose rows are the turns'
        estimate blocks (held), x and the late receives, built once: row
        c's term j reads x_j where c's owner holds it, received in its turn,
        its own or late.  The map keeps each row's terms in z_cols' order,
        so it sums as the centralized step does."""
        u = self.plan.z_cols
        needs = [(owner[c], j) for c, j in zip(u.rows.tolist(), u.indices.tolist())]
        own = [(i, i) for i in range(self.plan.n_nodes)]
        late = sorted(set(needs) - set(held) - set(own))
        at = {key: col for col, key in enumerate(held + own + late)}
        update = _Csr((len(owner), len(at)), u.rows, [at[key] for key in needs], u.data)
        return np.array([slot[j, i, "x"] for i, j in late], dtype=int), update

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
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"rounds must be a non-negative integer, got {n!r}")
        run = copy.copy(self)
        run.buf = np.empty((len(self.sends), self.plan.dim))
        run.full = np.zeros(len(self.sends), dtype=bool)
        return run._rounds(int(n))

    def _rounds(self, n):
        plan, dim, late, update = self.plan, self.plan.dim, self._late, self._update_map
        n_w, dual_recv = update.shape[0], self._dual_recv
        duals = np.empty((self._dual_terms.shape[1], dim))  # w, then the received duals
        w_term = np.empty((plan.n_nodes, dim))
        operand = np.empty((update.shape[1], dim))
        tail = len(operand) - plan.n_nodes - len(late)  # x, then the late receives
        x_rows, late_rows = operand[tail:tail + plan.n_nodes], operand[tail + plan.n_nodes:]
        dual_slots = np.array(self.init, dtype=int)
        dual_rows = np.array([self.sends[s][3] for s in self.init], dtype=int)
        # round 0: owners initialize their duals and send them out
        w = np.zeros((n_w, dim))
        if len(dual_slots):
            self._send(0, dual_slots, w[dual_rows])
        for rnd in range(1, n + 1):
            theta = self.cfg.theta_at(rnd - 1)
            if len(dual_recv):
                self._recv(rnd, dual_recv, duals[n_w:])
            duals[:n_w] = w
            self._dual_terms.product(duals, w_term)
            w_term *= plan.inv_d
            x = np.empty((plan.n_nodes, dim))
            for turn in self._turns:  # a level reads earlier levels
                turn(self, rnd, x, w_term, operand)
            _check_finite(x, plan.ops, rnd - 1, plan.finite)
            x_rows[...] = x
            if len(late):
                self._recv(rnd, late, late_rows)
            new = update.product(operand, np.empty((n_w, dim)))
            w = np.subtract(w, np.multiply(theta, new, out=new), out=new)
            if len(dual_slots):
                self._send(rnd, dual_slots, w[dual_rows])
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
        return len(self.init) + rounds * len(self.sends)


def run_tree_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="tree").run(rounds)


def run_general_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="general").run(rounds)


def write_message_log(sim, rounds, fh):
    """CSV export of sim's run of rounds with 1-based node labels:
    round,from,to,kind.  Round 0's dual initialization, then each round's
    send table stamped with the round number, written as one block."""
    rows = [f"{{0}},{src + 1},{dst + 1},{kind}\n" for src, dst, kind, _ in sim.sends]
    fh.write("round,from,to,kind\n")
    fh.write("".join(rows[s] for s in sim.init).format(0))
    parts = "".join(rows).split("{0}")
    for rnd in range(1, rounds + 1):
        fh.write(str(rnd).join(parts))
