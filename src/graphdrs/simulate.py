"""Deterministic message-passing simulation of the distributed protocols.

Agents execute in ascending label order within a synchronous round (the only
causally consistent sequential schedule), exchange value copies over
in-order reliable channels, and invoke the very same per-node kernels as the
centralized solver, so simulated and centralized iterates are bit-identical.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .solver import node_dual_term, node_solution, tree_w_update, wtilde_node_update


class ProtocolError(RuntimeError):
    """A protocol step referenced a value that is not locally available."""


@dataclass(frozen=True)
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

    def _send(self, rnd, src, dst, kind, payload):
        msg = Message(rnd, src, dst, kind, payload.copy())
        self.channels.setdefault((src, dst), deque()).append(msg)
        self.log.append(msg)

    def _recv(self, rnd, dst, src, kind):
        chan = self.channels.get((src, dst))
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
        n = bg.n_nodes
        edge_id = {e: k for k, e in enumerate(bg.base.edges)}
        # per agent: owned duals (edges (h, i), h < i) then received duals
        # (edges (i, j)); in edge-list order, i.e. the column order of Z
        owned = [[(h, edge_id[(h, i)]) for h in bg.base.in_neighbors(i)] for i in range(n)]
        w_from = [{j: edge_id[(i, j)] for j in bg.base.out_neighbors(i)} for i in range(n)]
        degrees = [bg.state.degree(i) for i in range(n)]
        x_to = [bg.state.out_neighbors(i) for i in range(n)]
        # round 0: owners initialize their duals and push them upstream
        for e, (h, i) in enumerate(bg.base.edges):
            self.agents[i].owned_w[e] = np.zeros(self.dim)
            self._send(0, i, h, "w", self.agents[i].owned_w[e])
        history = []
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = np.empty((n, self.dim))
            for i, agent in enumerate(self.agents):
                for j in self.table[i]["w_recv"]:
                    agent.peer_w[w_from[i][j]] = self._recv(rnd, i, j, "w")
                for h in self.table[i]["x_recv"]:
                    agent.peer_x[h] = self._recv(rnd, i, h, "x")
                w_terms = [(-1.0, agent.owned_w[e]) for _, e in owned[i]]
                w_terms += [(1.0, agent.peer_w[e]) for e in w_from[i].values()]
                agent.x = node_solution(
                    agent.resolvent,
                    self.cfg.sigma,
                    degrees[i],
                    [agent.peer_x[h] for h in self.table[i]["x_recv"]],
                    node_dual_term(degrees[i], w_terms, self.dim),
                    x[i],
                )
                for h, e in owned[i]:
                    agent.owned_w[e] = tree_w_update(
                        agent.owned_w[e], theta, agent.x, agent.peer_x[h]
                    )
                for j in x_to[i]:
                    self._send(rnd, i, j, "x", agent.x)
                for h, e in owned[i]:
                    self._send(rnd, i, h, "w", agent.owned_w[e])
            history.append(x)
        return SimResult(np.array(history), self.agents, self.log)

    def _run_general(self, rounds):
        bg = self.bg
        n = bg.n_nodes
        degrees = [bg.state.degree(i) for i in range(n)]
        x_to = [bg.state.out_neighbors(i) + bg.base.in_neighbors(i) for i in range(n)]
        base_adj = [bg.base.adjacency(i) for i in range(n)]
        for agent in self.agents:
            agent.wtilde = np.zeros(self.dim)
        history = []
        for rnd in range(1, rounds + 1):
            theta = self.cfg.theta_at(rnd - 1)
            x = np.empty((n, self.dim))
            for i, agent in enumerate(self.agents):
                for h in self.table[i]["x_recv"]:
                    agent.peer_x[h] = self._recv(rnd, i, h, "x")
                agent.x = node_solution(
                    agent.resolvent,
                    self.cfg.sigma,
                    degrees[i],
                    [agent.peer_x[h] for h in self.table[i]["x_recv"]],
                    node_dual_term(degrees[i], [(1.0, agent.wtilde)], self.dim),
                    x[i],
                )
                for j in x_to[i]:
                    self._send(rnd, i, j, "x", agent.x)
            for i, agent in enumerate(self.agents):
                for j in self.table[i]["x_recv_phase2"]:
                    agent.peer_x[j] = self._recv(rnd, i, j, "x")
                agent.wtilde = wtilde_node_update(
                    agent.wtilde,
                    theta,
                    len(base_adj[i]),
                    agent.x,
                    [agent.peer_x[j] for j in base_adj[i]],
                )
            history.append(x)
        return SimResult(np.array(history), self.agents, self.log)


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
