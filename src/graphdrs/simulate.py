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
consistent.  A level's agents take one turn: they pop their messages, solve
by a CSR product over them and one stacked call for the level's hinges, and
send their estimates.  Then the owners receive their late estimates, and one
CSR product of the update map gives every new dual row, which its owner
sends; no dual row is popped in the round that sends it.  Sums follow the
centralized step's kernels and order: over in-order reliable channels,
simulated and centralized iterates are bit-identical.  A round logs its
messages by sender label.  A run reads each agent's (peer, channel) receive
and send lists off the plan once, with one deque per directed pair, so a
round looks up no channel.
:meth:`NetworkSim.rounds`, the protocol loop, yields one round at a time and
keeps none, so its memory does not grow with the rounds; :meth:`NetworkSim.run`
collects it.  A channel carries the sender's array, not a copy: a row of the
round's fresh estimates, or a row of the round's fresh duals.
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
    log: list  # every Message of the run, each round's by sender label


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
        channel or None if owned), estimate receives, estimate sends)."""
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
            agents.append((
                i,
                plan.degrees[i],
                [(float(z[i, c]), c, owner[c], None if owner[c] == i else chan(owner[c], i))
                 for c in nonzero(z[i])],
                [(h, chan(h, i)) for h in x_in],
                [(j, chan(i, j)) for j in outs + sorted(readers)],
            ))
        return duals, agents

    def _turn(self, nodes, batch, agents, held):
        """A level's turn, built once per run: its single agents, then its
        batch's hinges, even a lone one, pop their messages in label order
        into one stack, which it returns (held gains each column's (agent,
        key)).  One CSR map sums its rows from zero in term order, as the
        sweep's products do, into dual terms and input sums."""
        plan, recv, send, sigma = self.plan, self._recv, self._send, self.cfg.sigma
        ids = nodes + ([] if batch is None else batch[0].tolist())
        members, k, s = [agents[i] for i in ids], len(ids), len(nodes)
        maps, start = [None] * 2 * k, len(held)
        for m, (i, _, w_in, x_in, _) in enumerate(members):
            keys = [("w", c) for _, c, *_ in w_in] + [h for h, _ in x_in]
            at = dict(zip(keys, count(len(held) - start)))
            maps[m] = [(at["w", c], a) for a, c, *_ in w_in]  # dual terms
            maps[k + m] = [(at[h], 1.0) for h, _ in x_in]  # input sums
            held += [(i, key) for key in keys]
        rca = np.reshape([(r, c, a) for r, row in enumerate(maps) for c, a in row], (-1, 3)).T
        terms = sparse.csr_matrix((rca[2], rca[:2].astype(int)), shape=(2 * k, len(held) - start))
        inv_d = plan.inv_d[ids]

        def turn(rnd, x, w):
            popped = []
            for i, _, w_in, x_in, _ in members:
                popped += [w[c] if ch is None else recv(rnd, i, o, ch, "w") for _, c, o, ch in w_in]
                popped += [recv(rnd, i, h, ch, "x") for h, ch in x_in]
            stack = np.concatenate(popped).reshape(len(popped), -1)
            p = terms @ stack  # dual terms, input sums
            w_term = np.multiply(inv_d, p[:k], out=p[:k])
            for m, i in enumerate(nodes):  # 0.0 + an input sum is that sum
                node_solution(plan.ops[i], sigma, plan.degrees[i], [p[k + m]], w_term[m], x[i])
            if batch is not None:
                rows, hinges, _, two_over_d = batch
                r = np.multiply(two_over_d, p[k + s:], out=p[k + s:])
                r += w_term[s:]
                x[rows] = hinges(sigma, r, out=r)
            for i, _, _, _, x_out in members:
                send(rnd, i, x_out, "x", x[i])
            return stack
        return turn

    def _update(self, duals, held):
        """The late receives (agent, j, channel) and the update map (Z^T, or
        L) over the round's turn stacks, x and late receives, built once per
        run: row c's term j reads x_j where c's owner holds it, popped in its
        turn (held), its own or late.  Those hold smaller, own and larger
        labels, so each row's columns ascend in term order."""
        u = self.plan.z_cols.tocoo()
        needs = [(duals[c][0], j) for c, j in zip(u.row.tolist(), u.col.tolist())]
        own = [(i, i) for i in range(self.plan.n_nodes)]
        late = sorted(set(needs) - set(held) - set(own))
        at = {key: col for col, key in enumerate(held + own + late)}
        update = sparse.csr_matrix((u.data, (u.row, [at[key] for key in needs])),
                                   shape=(len(duals), len(at)))
        return [(i, j, self._channel(j, i)) for i, j in late], update

    def rounds(self, n):
        """Simulate n sweeps on a fresh network, yielding (x, sent) per round:
        its fresh (N, dim) estimates and its messages (round 1's after round
        0's dual initialization) by sender label, each sender's in send order.
        self.w is the round's fresh (rows, dim) duals."""
        self.channels = {}
        plan, dim = self.plan, self.plan.dim
        duals, agents = self._agents()
        held = []
        turns = [self._turn(nodes, batch, agents, held) for nodes, batch in plan.schedule]
        late, update = self._update(duals, held)
        # round 0: owners initialize their duals and send them out
        self._sent = []
        w = self.w = np.zeros((len(duals), dim))
        for c, (o, w_out) in enumerate(duals):
            self._send(0, o, w_out, "w", w[c])
        for rnd in range(1, n + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = np.empty((plan.n_nodes, dim))
            sent, self._sent = self._sent, []  # round 1's starts with round 0's
            stacks = [turn(rnd, x, w) for turn in turns]  # a level reads earlier levels
            late_x = [self._recv(rnd, i, j, ch, "x") for i, j, ch in late]
            new = update @ np.vstack([*stacks, x, *late_x])  # a fresh array
            w = self.w = np.subtract(w, np.multiply(theta, new, out=new), out=new)
            for c, (o, w_out) in enumerate(duals):
                self._send(rnd, o, w_out, "w", w[c])
            self._sent = sent + sorted(self._sent, key=attrgetter("src"))  # stable
            yield x, self._sent
            self._sent = []

    def run(self, rounds):
        """Collect :meth:`rounds`: estimates into x_history, messages into self.log."""
        x_history = np.empty((rounds, self.plan.n_nodes, self.plan.dim))
        self.log = []
        for k, (x, sent) in enumerate(self.rounds(rounds)):
            x_history[k] = x
            self.log += sent
        return SimResult(x_history, self.w.copy(), self.log)


def run_tree_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="tree").run(rounds)


def run_general_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="general").run(rounds)


def write_message_log(log, fh):
    """CSV export with 1-based node labels: round,from,to,kind."""
    fh.write("round,from,to,kind\n")
    for msg in log:
        fh.write(f"{msg.round},{msg.src + 1},{msg.dst + 1},{msg.kind}\n")
