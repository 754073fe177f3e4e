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

Agents execute in ascending label order within a synchronous round (the only
causally consistent sequential schedule), exchange value copies over
in-order reliable channels, and invoke the very same per-node kernels as the
centralized solver, so simulated and centralized iterates are bit-identical.
A run reads each agent's (peer, channel) receive and send lists off the plan
once, with one deque per directed pair, so a round looks up no channel.
Every message of a run, payload included, stays in its log; the round
estimates are written into a preallocated (rounds, N, dim) history.  The
duals are a list of per-row arrays, each updated only by its owner; a run
returns them stacked, rows as in the centralized duals.  Each run starts
from a fresh network, so a second run on one simulator repeats the first.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .factorization import incidence_decomposition
from .solver import StepPlan, _infer_dim, node_dual_term, node_solution, row_sum


class ProtocolError(RuntimeError):
    """A protocol step referenced a value that is not locally available."""


@dataclass(slots=True)
class Message:
    round: int
    src: int
    dst: int
    kind: str  # x | w
    payload: np.ndarray


@dataclass
class SimResult:
    x_history: np.ndarray  # (rounds, N, dim)
    w: np.ndarray  # last duals, (E', dim) for tree or (N, dim) for general
    log: list


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
        self.dim = _infer_dim(self.plan)
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
        """Send a copy of payload down each (dst, channel) of outs."""
        log = self.log
        for dst, chan in outs:
            msg = Message(rnd, src, dst, kind, payload.copy())
            chan.append(msg)
            log.append(msg)

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

    def run(self, rounds):
        """Simulate rounds sweeps on a fresh network: new duals, channels and log."""
        self.channels = {}
        self.log = []
        plan, dim, sigma = self.plan, self.dim, self.cfg.sigma
        recv, send = self._recv, self._send
        duals, agents = self._agents()
        # round 0: owners initialize their duals and send them out
        w = [np.zeros(dim) for _ in duals]
        for c, (o, w_out) in enumerate(duals):
            send(0, o, w_out, "w", w[c])

        def update(rnd, theta, i, held, rows):
            for c, row, w_out in rows:
                w[c] = w[c] - theta * row_sum(((a, held[j]) for a, j in row), dim)
                send(rnd, i, w_out, "w", w[c])

        x_history = np.empty((rounds, plan.n_nodes, dim))
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = x_history[rnd - 1]
            deferred = []
            for i, d_i, w_in, x_in, x_out, x_late, rows in agents:
                w_terms = [(a, w[c] if ch is None else recv(rnd, i, o, ch, "w"))
                           for a, c, o, ch in w_in]
                held = {h: recv(rnd, i, h, ch, "x") for h, ch in x_in}
                node_solution(plan.ops[i], sigma, d_i, list(held.values()),
                              node_dual_term(d_i, w_terms, dim), x[i])
                held[i] = x[i]
                send(rnd, i, x_out, "x", x[i])
                if x_late:
                    deferred.append((i, held, x_late, rows))
                else:
                    update(rnd, theta, i, held, rows)
            for i, held, x_late, rows in deferred:
                for j, ch in x_late:
                    held[j] = recv(rnd, i, j, ch, "x")
                update(rnd, theta, i, held, rows)
        return SimResult(x_history, np.reshape(w, (-1, dim)), self.log)


def run_tree_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="tree").run(rounds)


def run_general_protocol(bg, ops, cfg, rounds):
    return NetworkSim(bg, ops, cfg, protocol="general").run(rounds)


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


def write_message_log(log, fh):
    """CSV export with 1-based node labels: round,from,to,kind."""
    fh.write("round,from,to,kind\n")
    for msg in log:
        fh.write(f"{msg.round},{msg.src + 1},{msg.dst + 1},{msg.kind}\n")
