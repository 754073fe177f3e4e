"""Deterministic message-passing simulation of the distributed protocols.

Agents execute in ascending label order within a synchronous round (the only
causally consistent sequential schedule), exchange value copies over
in-order reliable channels, and invoke the very same per-node kernels as the
centralized solver, so simulated and centralized iterates are bit-identical.

The bilevel graph is the protocol: an agent receives estimates only along
state edges and duals only along base edges.  A run reads each agent's
(peer, channel) receive and send lists off the graph once, with one deque per
directed pair, so a round looks up no channel.  Every message of a run,
payload included, stays in its log; the round estimates are written into a
preallocated (rounds, N, dim) history.  The duals are a list of per-row
arrays, one row per base edge (tree) or node (general), each updated only by
its owner; a run returns them stacked, rows as in the centralized duals.
Each run starts from a fresh network, so a second run on one simulator
repeats the first.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .factorization import incidence_decomposition
from .solver import (
    StepPlan,
    _infer_dim,
    node_dual_term,
    node_solution,
    tree_w_update,
    wtilde_node_update,
)


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
    over state edges, duals over base edges.  Its in-neighbours, degrees and
    dimension come from plan, the :class:`StepPlan` of the protocol's
    centralized form (incidence Z for tree, node-local for general).
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

    # -- protocols ----------------------------------------------------------

    def run(self, rounds):
        """Simulate rounds sweeps on a fresh network: new duals, channels and log."""
        self.channels = {}
        self.log = []
        protocol = self._run_tree if self.protocol == "tree" else self._run_general
        x_history, w = protocol(rounds)
        return SimResult(x_history, np.reshape(w, (-1, self.dim)), self.log)

    def _run_tree(self, rounds):
        """Agent i owns the duals of its base in-edges (h, i), receives those
        of its base out-edges (i, j) and the estimates of its state
        in-neighbours, and sends its estimate to its state out-neighbours and
        each owned dual back to h.  Returns (x_history, duals by edge)."""
        bg, plan, dim = self.bg, self.plan, self.dim
        sigma = self.cfg.sigma
        recv, send, chan = self._recv, self._send, self._channel
        edge_id = {e: k for k, e in enumerate(bg.base.edges)}
        # per agent, built once: dual receives (peer, channel) in Z's column
        # order, estimate receives (peer, channel), owned duals as
        # (h, edge, [(h, channel to h)]) and estimate sends (dst, channel)
        agents = [
            (
                i,
                plan.degrees[i],
                [(j, chan(j, i)) for j in bg.base.out_neighbors(i)],
                [(h, chan(h, i)) for h in plan.in_nbrs[i]],
                [(h, edge_id[(h, i)], [(h, chan(i, h))])
                 for h in bg.base.in_neighbors(i)],
                [(j, chan(i, j)) for j in bg.state.out_neighbors(i)],
            )
            for i in range(bg.n_nodes)
        ]
        # round 0: owners initialize their duals and push them upstream
        w = [np.zeros(dim) for _ in bg.base.edges]
        for e, (h, i) in enumerate(bg.base.edges):
            send(0, i, [(h, chan(i, h))], "w", w[e])
        x_history = np.empty((rounds, bg.n_nodes, dim))
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = x_history[rnd - 1]
            for i, d_i, w_in, x_in, owned, x_out in agents:
                w_terms = [(-1.0, w[e]) for _, e, _ in owned]
                w_terms += [(1.0, recv(rnd, i, j, c, "w")) for j, c in w_in]
                peer_x = {h: recv(rnd, i, h, c, "x") for h, c in x_in}
                node_solution(
                    plan.ops[i], sigma, d_i, list(peer_x.values()),
                    node_dual_term(d_i, w_terms, dim), x[i],
                )
                for h, e, _ in owned:
                    w[e] = tree_w_update(w[e], theta, x[i], peer_x[h])
                send(rnd, i, x_out, "x", x[i])
                for _, e, to_h in owned:
                    send(rnd, i, to_h, "w", w[e])
        return x_history, w

    def _run_general(self, rounds):
        """Phase 1: agent i receives its state in-neighbours' estimates and
        sends its own to its state out-neighbours, then to its base
        in-neighbours.  Phase 2: it receives its base out-neighbours'
        estimates and updates its node-local dual over all base neighbours.
        Returns (x_history, duals by node)."""
        bg, plan, dim = self.bg, self.plan, self.dim
        sigma = self.cfg.sigma
        recv, send, chan = self._recv, self._send, self._channel
        # per agent, built once: phase-1 and phase-2 receives (peer, channel),
        # estimate sends (dst, channel) and the base neighbours of the update
        agents = [
            (
                i,
                plan.degrees[i],
                [(h, chan(h, i)) for h in plan.in_nbrs[i]],
                [(j, chan(j, i)) for j in bg.base.out_neighbors(i)],
                [(j, chan(i, j))
                 for j in bg.state.out_neighbors(i) + bg.base.in_neighbors(i)],
                bg.base.adjacency(i),
            )
            for i in range(bg.n_nodes)
        ]
        wt = [np.zeros(dim) for _ in range(bg.n_nodes)]
        x_history = np.empty((rounds, bg.n_nodes, dim))
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = x_history[rnd - 1]
            received = []  # per agent: the estimates it holds this round
            for i, d_i, x_in, _, x_out, _ in agents:
                peer_x = {h: recv(rnd, i, h, c, "x") for h, c in x_in}
                node_solution(
                    plan.ops[i], sigma, d_i, list(peer_x.values()),
                    node_dual_term(d_i, [(1.0, wt[i])], dim), x[i],
                )
                send(rnd, i, x_out, "x", x[i])
                received.append(peer_x)
            for (i, _, _, phase2, _, base_adj), peer_x in zip(agents, received):
                for j, c in phase2:
                    peer_x[j] = recv(rnd, i, j, c, "x")
                wt[i] = wtilde_node_update(
                    wt[i], theta, len(base_adj), x[i], [peer_x[j] for j in base_adj],
                )
        return x_history, wt


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
