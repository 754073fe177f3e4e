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

A round is a sweep, then one dual update, as the centralized step is.  It
walks the plan's levels; any topological order of the state DAG is causally
consistent.  A level's agents take one turn: one gather reads their messages,
then their owned duals, into the turn's block of the run's operand buffer,
a :class:`~graphdrs.solver._Csr` product over the block and one stacked
call for the level's hinges solve, and one scatter sends their estimates.
Then x and the owners' late estimates fill the buffer's tail, one product
of the update map over the buffer gives every new dual row, and one scatter
sends them; no dual row is read in the round that sends it.  Each map lists
its terms in the centralized step's sum order, which a product keeps, so
simulated and centralized iterates are bit-identical.

The traffic does not depend on the data: every round the same senders send
to the same receivers in the same order.  So a run reads its send table off
the plan once: (src, dst, kind, payload row) per message of a round, in log
order (by sender label: each sender's estimates, then its duals); round 0
sends the dual initialization.  Each row of the table is also a slot, the
row of the run's (slots, dim) buffer for its (src, dst, kind) channel, with
a flag that marks an unread message: a receive from an empty slot, or a send
onto a full one, raises :class:`ProtocolError`.
:meth:`NetworkSim.rounds`, the protocol loop, yields each round's fresh
estimates and duals and keeps none, so its memory does not grow with the
rounds; :meth:`NetworkSim.run` collects it and rebuilds the message log from
the send table, each payload a view of its round's x or w row, which the
simulator never writes again.  :func:`write_message_log` writes the table as
CSV, one block per round.  A run starts from a fresh network, so a second
run repeats the first.
"""

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
    """Synchronous event loop over one slot buffer.

    Agent i runs ops[i] and talks only along the bilevel graph: estimates
    over state edges and reversed base edges, duals over base edges.  Its
    channels, degrees and dimension come from plan, the :class:`StepPlan` of
    the protocol's centralized form (incidence Z for tree, node-local for
    general), which the protocol name only chooses.

    A run's send table, ``sends``, lists a round's messages as (src, dst,
    kind, payload row) in log order; row s is also the channel of slot s,
    row s of the (slots, dim) buffer ``buf``, whose flag ``full[s]`` says
    whether it holds a message nobody has read.  ``init`` lists round 0's
    slots, the dual initialization, in send order.
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

    # -- the slot buffer ----------------------------------------------------

    def _send(self, rnd, slots, payload):
        """Write payload's rows onto slots, each of which must have been read."""
        full = self.full[slots]
        if full.any():
            src, dst, kind, _ = self.sends[slots[full.argmax()]]
            raise ProtocolError(f"agent {src} at round {rnd}: unread {kind} message to {dst}")
        self.buf[slots] = payload
        self.full[slots] = True

    def _recv(self, rnd, slots, out):
        """Gather the messages on slots into out, in order, emptying them; each must be there."""
        full = self.full[slots]
        if not full.all():
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
        (its row of Z as (coefficient, dual row, slot or None if owned), its
        estimate receive slots, its estimate send slots)."""
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
        agents = [(
            [(float(z[i, c]), c, None if owner[c] == i else slot[owner[c], i, "w"])
             for c in nonzero(z[i])],
            [slot[h, i, "x"] for h in plan.in_nbrs[i]],
            [slot[i, j, "x"] for j in js],
        ) for i, js in enumerate(outs)]
        return owner, slot, agents

    def _turn(self, nodes, batch, agents, held):
        """A level's turn, built once per run: its single agents, then its
        batch's hinges, even a lone one, gather their messages, then their
        owned duals, into the turn's block of the operand buffer (held gains
        each row's (agent, key)).  One map, built from the terms in sum order,
        gives the dual terms and input sums in a buffer kept for the run.
        The level's estimates then go out in one scatter."""
        plan, sigma = self.plan, self.cfg.sigma
        ids = nodes + ([] if batch is None else batch[0].tolist())
        k, s = len(ids), len(nodes)
        recv, own, triples, sends = {}, {}, [], []
        for m, i in enumerate(ids):
            w_in, x_in, x_out = agents[i]
            recv.update(((i, ("w", c)), slot) for _, c, slot in w_in if slot is not None)
            own.update(((i, ("w", c)), c) for _, c, slot in w_in if slot is None)
            recv.update(((i, h), slot) for h, slot in zip(plan.in_nbrs[i], x_in))
            triples += [(m, (i, ("w", c)), a) for a, c, _ in w_in]  # dual terms
            triples += [(k + m, (i, h), 1.0) for h in plan.in_nbrs[i]]  # input sums
            sends += [(slot, i) for slot in x_out]
        at = {key: col for col, key in enumerate([*recv, *own])}
        start, n_recv, stop = len(held), len(recv), len(held) + len(at)
        held += list(at)
        rows, cols, vals = zip(*((r, at[key], a) for r, key, a in triples))
        terms = _Csr((2 * k, len(at)), rows, cols, vals)
        recv_slots, own_rows = (np.array(list(d.values()), dtype=int) for d in (recv, own))
        send_slots, send_rows = np.reshape(sends, (-1, 2)).astype(int).T
        inv_d, p = plan.inv_d[ids], np.empty((2 * k, plan.dim))

        def turn(rnd, x, w, operand):
            block = operand[start:stop]
            self._recv(rnd, recv_slots, block[:n_recv])
            w.take(own_rows, axis=0, out=block[n_recv:], mode="clip")  # in range by construction
            terms.product(block, p)  # dual terms, input sums
            w_term = np.multiply(inv_d, p[:k], out=p[:k])
            for m, i in enumerate(nodes):  # 0.0 + an input sum is that sum
                node_solution(plan.ops[i], sigma, plan.degrees[i], [p[k + m]], w_term[m], x[i])
            if batch is not None:
                rows, hinges, _, two_over_d = batch
                r = np.multiply(two_over_d, p[k + s:], out=p[k + s:])
                r += w_term[s:]
                x[rows] = hinges(sigma, r, out=r)
            self._send(rnd, send_slots, x[send_rows])
        return turn

    def _update(self, owner, slot, held):
        """The late receive slots (by receiver, then sender) and the update
        map (Z^T, or L) over the operand buffer, whose rows are the turns'
        blocks (held), x and the late receives, built once per run: row c's
        term j reads x_j where c's owner holds it, gathered in its turn, its
        own or late.  The map keeps each row's terms in z_cols' order, so
        it sums as the centralized step does."""
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
        simulator never writes again.  A round's messages are the rows of
        self.sends, and round 0's, the dual initialization, its rows
        self.init; no message is an object of its own.  Non-finite estimates
        raise the centralized step's :class:`NumericalError` before the update."""
        plan, dim = self.plan, self.plan.dim
        owner, slot, agents = self._tables()
        self.buf = np.empty((len(self.sends), dim))
        self.full = np.zeros(len(self.sends), dtype=bool)
        held = []
        turns = [self._turn(nodes, batch, agents, held) for nodes, batch in plan.schedule]
        late, update = self._update(owner, slot, held)
        operand = np.empty((update.shape[1], dim))
        tail = len(held)  # x, then the late receives
        x_rows, late_rows = operand[tail:tail + plan.n_nodes], operand[tail + plan.n_nodes:]
        dual_slots = np.array(self.init, dtype=int)
        dual_rows = np.array([self.sends[s][3] for s in self.init], dtype=int)
        # round 0: owners initialize their duals and send them out
        w = np.zeros((len(owner), dim))
        self._send(0, dual_slots, w[dual_rows])
        for rnd in range(1, n + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = np.empty((plan.n_nodes, dim))
            for turn in turns:  # a level reads earlier levels
                turn(rnd, x, w, operand)
            _check_finite(x, plan.ops, rnd - 1, plan.finite)
            x_rows[...] = x
            self._recv(rnd, late, late_rows)
            new = update.product(operand, np.empty((len(owner), dim)))
            w = np.subtract(w, np.multiply(theta, new, out=new), out=new)
            self._send(rnd, dual_slots, w[dual_rows])
            yield x, w

    def run(self, rounds):
        """Collect :meth:`rounds`: the estimates into x_history, and the
        messages into self.log, rebuilt from the send table, each payload a
        view of its round's fresh x or w row."""
        x_history = np.empty((rounds, self.plan.n_nodes, self.plan.dim))
        w = np.zeros((self.plan.z.shape[1], self.plan.dim))  # round 0's duals
        kept = list(self.rounds(rounds))
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
