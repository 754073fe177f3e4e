"""Deterministic message-passing simulation of the distributed protocols.

A protocol is the centralized sweep executed node by node, read off the
:class:`StepPlan` of its form: incidence Z on a tree base (tree), or the
node-local Z = I (general).  Agent i applies row i of Z to the duals it
holds.  Dual row c belongs to the last nonzero row of Z's column c (the head
of tree edge c, or node c), which applies row c of the update map (Z^T, or
the base Laplacian L) to the estimates it holds and sends the result to the
column's other nonzero rows.  An agent sends its estimate to its state
out-neighbours, then to every other owner of an update row that reads it
(its base in-neighbours, for node-local duals).  It updates its rows in its
own turn when it holds their estimates by then (always, on a tree), and
otherwise after the round's last agent.

A round walks the plan's levels, as the centralized sweep does; any
topological order of the state DAG is causally consistent.  A level's agents
take one turn, a CSR product over the messages they pop and one stacked call
for its hinges, with the kernels and summation order of the centralized sweep:
over in-order reliable channels, simulated and centralized iterates are
bit-identical.  A round logs messages by sender label, then deferred updates.
A run reads each agent's (peer, channel) receive and send lists off the plan
once, with one deque per directed pair, so a round looks up no channel.
:meth:`NetworkSim.rounds`, the protocol loop, yields one round at a time and
keeps none, so its memory does not grow with the rounds; :meth:`NetworkSim.run`
collects it.  A channel carries the sender's array, not a copy: a row of the
round's fresh estimates, or a dual row, rebound on each update by its owner.
A run starts from a fresh network, so a second run repeats the first.
"""

from collections import deque
from dataclasses import dataclass
from itertools import count
from operator import attrgetter

import numpy as np
from scipy import sparse

from .factorization import incidence_decomposition
from .solver import StepPlan, node_solution


class ProtocolError(RuntimeError):
    """A protocol step referenced a value that is not locally available."""


@dataclass(slots=True)
class Message:
    round: int
    src: int
    dst: int
    kind: str  # x | w
    payload: np.ndarray  # the sender's array, which it never writes again


@dataclass
class SimResult:
    x_history: np.ndarray  # (rounds, N, dim), collected from NetworkSim.rounds
    w: np.ndarray  # last duals, (E', dim) for tree or (N, dim) for general
    log: list  # every Message of the run, each round's by sender, deferred updates last


class NetworkSim:
    """Synchronous event loop over per-pair in-order channels.

    Agent i runs ops[i] and talks only along the bilevel graph: estimates
    over state edges and reversed base edges, duals over base edges.  Its
    channels, degrees and dimension come from plan, the :class:`StepPlan` of
    the protocol's centralized form (incidence Z for tree, node-local for
    general), which the protocol name only chooses.
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

    # -- channel primitives -------------------------------------------------

    def _channel(self, src, dst):
        """The in-order channel src -> dst, created on first use."""
        chan = self.channels.get((src, dst))
        if chan is None:
            chan = self.channels[src, dst] = deque()
        return chan

    def _send(self, rnd, src, outs, kind, payload):
        """Send payload itself, not a copy, down each (dst, channel) of outs."""
        sent = self._sent
        for dst, chan in outs:
            msg = Message(rnd, src, dst, kind, payload)
            chan.append(msg)
            sent.append(msg)

    @staticmethod
    def _recv(rnd, dst, src, chan, kind):
        if not chan:
            raise ProtocolError(
                f"agent {dst} at round {rnd}: missing {kind} message from {src}"
            )
        msg = chan.popleft()
        if msg.kind != kind:
            raise ProtocolError(
                f"agent {dst} at round {rnd}: expected {kind} from {src}, "
                f"got {msg.kind}"
            )
        return msg.payload

    # -- the protocol -------------------------------------------------------

    def _agents(self):
        """Read off the plan: each dual row's (owner, dual sends), and per
        agent (i, d_i, its row of Z as (coefficient, dual row, owner,
        channel or None if owned), estimate receives, estimate sends, late
        estimate receives, owned rows as (c, update row, dual sends))."""
        plan, chan = self.plan, self._channel
        z, update = plan.z, plan.z_cols.toarray()

        def nonzero(v):
            return np.flatnonzero(v).tolist()

        owner = [nonzero(col)[-1] for col in z.T]
        duals = [(o, [(h, chan(o, h)) for h in nonzero(col)[:-1]])
                 for o, col in zip(owner, z.T)]
        agents = []
        for i in range(plan.n_nodes):
            x_in, outs = plan.in_nbrs[i], self.bg.state.out_neighbors(i)
            readers = {owner[c] for c in nonzero(update[:, i])} - {i, *outs}
            owned = [c for c, o in enumerate(owner) if o == i]
            late = {j for c in owned for j in nonzero(update[c])} - {i, *x_in}
            agents.append((
                i,
                plan.degrees[i],
                [(float(z[i, c]), c, owner[c], None if owner[c] == i else chan(owner[c], i))
                 for c in nonzero(z[i])],
                [(h, chan(h, i)) for h in x_in],
                [(j, chan(i, j)) for j in outs + sorted(readers)],
                [(j, chan(j, i)) for j in sorted(late)],
                [(c, [(float(update[c, j]), j) for j in nonzero(update[c])], duals[c][1])
                 for c in owned],
            ))
        return duals, agents

    def _turn(self, nodes, batch, agents, w):
        """A level's turn, built once per run: its single agents, then its
        batch's hinges, even a lone one, pop their messages in label order
        into one stack.  One CSR map sums its rows from zero in term order, as
        the sweep's products do, into dual terms, input sums, and row updates
        less their last term."""
        plan, recv, send, sigma = self.plan, self._recv, self._send, self.cfg.sigma
        ids = nodes + ([] if batch is None else batch[0].tolist())
        members, k, s = [agents[i] for i in ids], len(ids), len(nodes)
        maps, updates, col = [None] * 2 * k, [], 0
        for m, (i, _, w_in, x_in, _, late, owned) in enumerate(members):
            at = dict(zip([("w", c) for _, c, *_ in w_in] + [h for h, _ in x_in], count(col)))
            maps[m] = [(at["w", c], a) for a, c, *_ in w_in]  # dual terms
            maps[k + m] = [(at[h], 1.0) for h, _ in x_in]  # input sums
            col += len(at)
            for c, row, w_out in [] if late else owned:  # row[-1] is (a, i)
                maps.append([(at[j], a) for a, j in row[:-1]])
                updates.append((i, c, w_out, at["w", c], row[-1][0]))  # its dual is a term
        rca = np.reshape([(r, c, a) for r, row in enumerate(maps) for c, a in row], (-1, 3)).T
        terms = sparse.csr_matrix((rca[2], rca[:2].astype(int)), shape=(len(maps), col))
        owners, old = np.array([(u[0], u[3]) for u in updates], dtype=int).reshape(-1, 2).T
        a_own = np.array([u[4] for u in updates])[:, None]
        inv_d = plan.inv_d[ids]

        def turn(rnd, theta, x, deferred):
            popped = []
            for i, _, w_in, x_in, _, x_late, owned in members:
                popped += [w[c] if ch is None else recv(rnd, i, o, ch, "w") for _, c, o, ch in w_in]
                held = {h: recv(rnd, i, h, ch, "x") for h, ch in x_in}
                popped += held.values()
                if x_late:
                    deferred.append((i, held | {i: x[i]}, x_late, owned))
            stack = np.concatenate(popped).reshape(col, -1)  # freed with the turn
            p = terms @ stack  # dual terms, input sums, update sums
            w_term = np.multiply(inv_d, p[:k], out=p[:k])
            for m, i in enumerate(nodes):  # 0.0 + an input sum is that sum
                node_solution(plan.ops[i], sigma, plan.degrees[i], [p[k + m]], w_term[m], x[i])
            if batch is not None:
                rows, hinges, _, two_over_d = batch
                r = np.multiply(two_over_d, p[k + s:2 * k], out=p[k + s:2 * k])
                r += w_term[s:]
                x[rows] = hinges(sigma, r, out=r)
            for i, _, _, _, x_out, _, _ in members:
                send(rnd, i, x_out, "x", x[i])
            new = np.multiply(a_own, x[owners])  # a fresh array, whose rows become the new duals
            new += p[2 * k:]
            np.subtract(stack[old], np.multiply(theta, new, out=new), out=new)
            for (i, c, w_out, _, _), row in zip(updates, new):
                w[c] = row
                send(rnd, i, w_out, "w", row)
        return turn

    def rounds(self, n):
        """Simulate n sweeps on a fresh network, yielding (x, sent) per round:
        its fresh (N, dim) estimates and its messages (round 1's after round
        0's dual initialization) by sender label, each sender's in send order,
        then the late dual updates.  The duals are self.w."""
        self.channels = {}
        plan, dim = self.plan, self.plan.dim
        duals, agents = self._agents()
        # round 0: owners initialize their duals and send them out
        self._sent = []
        w = self.w = [np.zeros(dim) for _ in duals]
        for c, (o, w_out) in enumerate(duals):
            self._send(0, o, w_out, "w", w[c])
        turns = [self._turn(nodes, batch, agents, w) for nodes, batch in plan.schedule]
        for rnd in range(1, n + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x, deferred = np.empty((plan.n_nodes, dim)), []
            sent, self._sent = self._sent, []  # round 1's starts with round 0's
            for turn in turns:  # a level's agents read only earlier levels
                turn(rnd, theta, x, deferred)
            self._sent = sent + sorted(self._sent, key=attrgetter("src"))  # stable
            for i, held, x_late, rows in sorted(deferred):  # by label (labels differ)
                held |= {j: self._recv(rnd, i, j, ch, "x") for j, ch in x_late}
                for c, row, w_out in rows:
                    acc = np.zeros(dim)  # +0.0, then a * x_j by column: a CSR row's bits
                    for a, j in row:
                        acc += a * held[j]
                    w[c] = w[c] - theta * acc
                    self._send(rnd, i, w_out, "w", w[c])
            yield x, self._sent
            self._sent = []

    def run(self, rounds):
        """Collect :meth:`rounds`: estimates into x_history, messages into self.log."""
        x_history = np.empty((rounds, self.plan.n_nodes, self.plan.dim))
        self.log = []
        for k, (x, sent) in enumerate(self.rounds(rounds)):
            x_history[k] = x
            self.log += sent
        return SimResult(x_history, np.reshape(self.w, (-1, self.plan.dim)), self.log)


def run_tree_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="tree").run(rounds)


def run_general_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="general").run(rounds)


def write_message_log(log, fh):
    """CSV export with 1-based node labels: round,from,to,kind."""
    fh.write("round,from,to,kind\n")
    for msg in log:
        fh.write(f"{msg.round},{msg.src + 1},{msg.dst + 1},{msg.kind}\n")
