"""Deterministic message-passing simulation of the distributed protocols.

Agents execute in ascending label order within a synchronous round (the only
causally consistent sequential schedule), exchange value copies over
in-order reliable channels, and invoke the very same per-node kernels as the
centralized solver, so simulated and centralized iterates are bit-identical.

A run builds its channel tables once: one deque per directed pair, and per
agent the (peer, channel) lists it receives from and sends to, so a round
looks up no channel and no protocol-table entry.  Every message, payload
included, stays in the log; the round estimates are written into a
preallocated (rounds, N, dim) history.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .solver import node_dual_term, node_solution, tree_w_update, wtilde_node_update


class ProtocolError(RuntimeError):
    """A protocol step referenced a value that is not locally available."""


@dataclass(slots=True)
class Message:
    round: int
    src: int
    dst: int
    kind: str  # x | w | wtilde
    payload: np.ndarray


@dataclass
class Agent:
    id: int
    resolvent: object
    owned_w: dict = field(default_factory=dict)   # tree: base-edge index -> vector
    wtilde: np.ndarray = None                     # general protocol
    x: np.ndarray = None
    peer_x: dict = field(default_factory=dict)    # last received estimates
    peer_w: dict = field(default_factory=dict)    # last received duals, by edge


@dataclass
class SimResult:
    x_history: np.ndarray  # (rounds, N, dim)
    agents: list
    log: list


def tree_protocol_table(bg):
    """Per-agent receive sets of the tree protocol.

    Dual variables along base edges (h, i) are owned by agent i; agent i
    receives the duals of its outgoing base edges and the estimates of its
    incoming state neighbors.
    """
    return {
        i: {
            "x_recv": bg.state.in_neighbors(i),
            "w_recv": bg.base.out_neighbors(i),
        }
        for i in range(bg.n_nodes)
    }


def general_protocol_table(bg):
    """Per-agent receive sets of the general (node-local dual) protocol."""
    return {
        i: {
            "x_recv": bg.state.in_neighbors(i),
            "x_recv_phase2": bg.base.out_neighbors(i),
        }
        for i in range(bg.n_nodes)
    }


def _validate_table(bg, table):
    for i, entry in table.items():
        state_adj = set(bg.state.adjacency(i))
        base_adj = set(bg.base.adjacency(i))
        for peer in entry.get("x_recv", ()):
            if peer not in state_adj:
                raise ProtocolError(
                    f"agent {i}: x-receive from non-adjacent node {peer}"
                )
        for peer in entry.get("w_recv", ()):
            if peer not in base_adj:
                raise ProtocolError(
                    f"agent {i}: w-receive from non-base-adjacent node {peer}"
                )
        for peer in entry.get("x_recv_phase2", ()):
            if peer not in base_adj:
                raise ProtocolError(
                    f"agent {i}: phase-2 receive from non-base-adjacent node {peer}"
                )


class NetworkSim:
    """Synchronous event loop over per-pair in-order channels."""

    def __init__(self, bg, ops, cfg, protocol="tree", dim=None, table=None):
        if protocol not in ("tree", "general"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if protocol == "tree" and not bg.base.is_tree():
            raise ValueError("tree protocol requires a tree base graph")
        if len(ops) != bg.n_nodes:
            raise ValueError("one resolvent per agent required")
        self.bg = bg
        self.cfg = cfg
        self.protocol = protocol
        if dim is None:
            dims = [op.dim for op in ops if op.dim > 0]
            if not dims:
                raise ValueError("cannot infer dimension; pass dim explicitly")
            dim = dims[0]
        self.dim = dim
        if table is None:
            table = (
                tree_protocol_table(bg)
                if protocol == "tree"
                else general_protocol_table(bg)
            )
        _validate_table(bg, table)
        self.table = table
        self.agents = [Agent(id=i, resolvent=ops[i]) for i in range(bg.n_nodes)]
        self.channels = {}
        self.log = []

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
        if self.protocol == "tree":
            return self._run_tree(rounds)
        return self._run_general(rounds)

    def _run_tree(self, rounds):
        bg = self.bg
        dim = self.dim
        sigma = self.cfg.sigma
        recv, send, chan = self._recv, self._send, self._channel
        edge_id = {e: k for k, e in enumerate(bg.base.edges)}
        # per agent, built once: received duals (peer, edge, channel) and
        # estimates (peer, channel) in table order; owned duals of edges
        # (h, i), h < i, as (h, edge, [(h, channel to h)]); the received
        # duals' edges (i, j) in Z's column order; x sends (dst, channel)
        agents = []
        for i, agent in enumerate(self.agents):
            entry = self.table[i]
            agents.append((
                i,
                agent,
                bg.state.degree(i),
                [(j, edge_id[(i, j)], chan(j, i)) for j in entry["w_recv"]],
                [(h, chan(h, i)) for h in entry["x_recv"]],
                [(h, edge_id[(h, i)], [(h, chan(i, h))])
                 for h in bg.base.in_neighbors(i)],
                [edge_id[(i, j)] for j in bg.base.out_neighbors(i)],
                [(j, chan(i, j)) for j in bg.state.out_neighbors(i)],
            ))
        # round 0: owners initialize their duals and push them upstream
        for e, (h, i) in enumerate(bg.base.edges):
            self.agents[i].owned_w[e] = np.zeros(dim)
            send(0, i, [(h, chan(i, h))], "w", self.agents[i].owned_w[e])
        x_history = np.empty((rounds, bg.n_nodes, dim))
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = x_history[rnd - 1]
            for i, agent, d_i, w_in, x_in, owned, w_cols, x_out in agents:
                owned_w, peer_w, peer_x = agent.owned_w, agent.peer_w, agent.peer_x
                for j, e, c in w_in:
                    peer_w[e] = recv(rnd, i, j, c, "w")
                for h, c in x_in:
                    peer_x[h] = recv(rnd, i, h, c, "x")
                w_terms = [(-1.0, owned_w[e]) for _, e, _ in owned]
                w_terms += [(1.0, peer_w[e]) for e in w_cols]
                agent.x = node_solution(
                    agent.resolvent,
                    sigma,
                    d_i,
                    [peer_x[h] for h, _ in x_in],
                    node_dual_term(d_i, w_terms, dim),
                    x[i],
                )
                for h, e, _ in owned:
                    owned_w[e] = tree_w_update(owned_w[e], theta, agent.x, peer_x[h])
                send(rnd, i, x_out, "x", agent.x)
                for _, e, to_h in owned:
                    send(rnd, i, to_h, "w", owned_w[e])
        return SimResult(x_history, self.agents, self.log)

    def _run_general(self, rounds):
        bg = self.bg
        dim = self.dim
        sigma = self.cfg.sigma
        recv, send, chan = self._recv, self._send, self._channel
        # per agent, built once: phase-1 and phase-2 receives (peer, channel)
        # in table order, x sends to state successors then base predecessors,
        # and the base neighbours of the dual update
        agents = []
        for i, agent in enumerate(self.agents):
            entry = self.table[i]
            agents.append((
                i,
                agent,
                bg.state.degree(i),
                [(h, chan(h, i)) for h in entry["x_recv"]],
                [(j, chan(j, i)) for j in entry["x_recv_phase2"]],
                [(j, chan(i, j))
                 for j in bg.state.out_neighbors(i) + bg.base.in_neighbors(i)],
                bg.base.adjacency(i),
            ))
        for agent in self.agents:
            agent.wtilde = np.zeros(dim)
        x_history = np.empty((rounds, bg.n_nodes, dim))
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = x_history[rnd - 1]
            for i, agent, d_i, x_in, _, x_out, _ in agents:
                peer_x = agent.peer_x
                for h, c in x_in:
                    peer_x[h] = recv(rnd, i, h, c, "x")
                agent.x = node_solution(
                    agent.resolvent,
                    sigma,
                    d_i,
                    [peer_x[h] for h, _ in x_in],
                    node_dual_term(d_i, [(1.0, agent.wtilde)], dim),
                    x[i],
                )
                send(rnd, i, x_out, "x", agent.x)
            for i, agent, _, _, phase2, _, base_adj in agents:
                peer_x = agent.peer_x
                for j, c in phase2:
                    peer_x[j] = recv(rnd, i, j, c, "x")
                agent.wtilde = wtilde_node_update(
                    agent.wtilde,
                    theta,
                    len(base_adj),
                    agent.x,
                    [peer_x[j] for j in base_adj],
                )
        return SimResult(x_history, self.agents, self.log)


def run_tree_protocol(bg, ops, cfg, rounds, dim=None):
    sim = NetworkSim(bg, ops, cfg, protocol="tree", dim=dim)
    return sim.run(rounds)


def run_general_protocol(bg, ops, cfg, rounds, dim=None):
    sim = NetworkSim(bg, ops, cfg, protocol="general", dim=dim)
    return sim.run(rounds)


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
