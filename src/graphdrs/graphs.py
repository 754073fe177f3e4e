"""Ordered directed graphs, bilevel graphs, and their spectral quantities.

Nodes are labeled 0..n-1 internally; every edge (i, j) satisfies i < j, so
the node labeling is itself a topological ordering.  File formats use
1-based labels (see :func:`parse_edge_lines`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    """Invalid graph input (bad edge, disconnected support, ...)."""


def _check_connected(n_nodes, edges):
    # union-find on the undirected support
    parent = list(range(n_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(n_nodes)}) == 1


@dataclass(frozen=True)
class OrderedDigraph:
    """A connected directed graph whose edges all point from low to high label."""

    n_nodes: int
    edges: tuple

    def __init__(self, n_nodes, edges):
        if n_nodes < 1:
            raise GraphError("need at least one node")
        seen = set()
        norm = []
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < j < n_nodes):
                raise GraphError(f"edge ({i}, {j}) violates 0 <= i < j < {n_nodes}")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm.append((i, j))
        norm.sort()
        if not _check_connected(n_nodes, norm):
            raise GraphError("graph is not connected")
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def _neighbors(self):
        """In- and out-neighbor lists of every node, built by one edge scan
        on first use (most enumerated graphs never need them); the edges are
        sorted, so each list is too."""
        ins = [[] for _ in range(self.n_nodes)]
        outs = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            outs[i].append(j)
            ins[j].append(i)
        return ins, outs

    @property
    def n_edges(self):
        return len(self.edges)

    def adjacency(self, i):
        """Sorted neighbors of node i in the undirected support."""
        ins, outs = self._neighbors
        return ins[i] + outs[i]

    def in_neighbors(self, i):
        """Sorted neighbors h < i, i.e. tails of edges entering i."""
        return self._neighbors[0][i][:]

    def out_neighbors(self, i):
        """Sorted neighbors j > i, i.e. heads of edges leaving i."""
        return self._neighbors[1][i][:]

    def degree(self, i):
        ins, outs = self._neighbors
        return len(ins[i]) + len(outs[i])

    def degrees(self):
        return np.array([self.degree(i) for i in range(self.n_nodes)])

    def is_tree(self):
        return self.n_edges == self.n_nodes - 1


@dataclass(frozen=True)
class BilevelGraph:
    """A state graph together with a connected base subgraph on the same nodes."""

    state: OrderedDigraph
    base: OrderedDigraph

    def __init__(self, state, base):
        if state.n_nodes != base.n_nodes:
            raise GraphError("state and base must share the node set")
        extra = set(base.edges) - set(state.edges)
        if extra:
            raise GraphError(f"base edges not in state graph: {sorted(extra)}")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "base", base)

    @property
    def n_nodes(self):
        return self.state.n_nodes

    def free_edges(self):
        """State edges not in the base graph (the set E minus E')."""
        base = set(self.base.edges)
        return tuple(e for e in self.state.edges if e not in base)


def laplacian(g):
    """Graph Laplacian: degrees on the diagonal, -1 on adjacent pairs."""
    n = g.n_nodes
    lap = np.zeros((n, n))
    for i, j in g.edges:
        lap[i, j] = lap[j, i] = -1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def algebraic_connectivity(g):
    """Smallest nonzero Laplacian eigenvalue of a connected graph."""
    evals = np.linalg.eigvalsh(laplacian(g))
    # construction guarantees connectivity, so exactly one (near-)zero eigenvalue
    return float(evals[1])


def unbalance(g):
    """Root-mean-square of (larger-neighbor count - smaller-neighbor count)."""
    n = g.n_nodes
    diff = np.array(
        [len(g.out_neighbors(i)) - len(g.in_neighbors(i)) for i in range(n)],
        dtype=float,
    )
    return float(np.sqrt(np.mean(diff**2)))


def sigma_matrix(base):
    """Skew-symmetric coupling matrix built from the base Laplacian.

    The lower triangle equals the lower triangle of the Laplacian, the upper
    triangle its negation, and the diagonal is zero.
    """
    lap = laplacian(base)
    n = base.n_nodes
    sig = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            sig[i, j] = lap[i, j]
            sig[j, i] = -lap[i, j]
    return sig


def p_matrix(bg):
    """Monotone correction matrix summed over state edges outside the base."""
    n = bg.n_nodes
    p = np.zeros((n, n))
    for i, j in bg.free_edges():
        p[i, i] += 1.0
        p[j, j] += 1.0
        p[j, i] -= 2.0
    return p


def complete_digraph(n):
    """The complete ordered digraph on n nodes: every edge (i, j), i < j."""
    return OrderedDigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


MAX_ENUM_NODES = 6


def enumerate_connected_digraphs(n):
    """All connected ordered digraphs on n labeled nodes, each exactly once:
    the connected subgraphs of the complete graph."""
    if not 2 <= n <= MAX_ENUM_NODES:
        raise GraphError(f"enumeration needs 2 <= n <= {MAX_ENUM_NODES}, got {n}")
    return connected_subgraphs(complete_digraph(n))


def connected_subgraphs(g):
    """All connected spanning subgraphs of g (candidate base graphs), in the
    binary-counting order of edge subsets, bit b standing for g.edges[b].

    Walks all 2^|E| subsets, so g may have at most the edges of the largest
    complete graph :func:`enumerate_connected_digraphs` takes.
    """
    limit = MAX_ENUM_NODES * (MAX_ENUM_NODES - 1) // 2
    if g.n_edges > limit:
        raise GraphError(
            f"subgraph enumeration walks 2^|E| edge subsets and is limited to "
            f"{limit} edges, got {g.n_edges} edges"
        )
    out = []
    for mask in range(1 << g.n_edges):
        edges = [e for b, e in enumerate(g.edges) if mask >> b & 1]
        if len(edges) >= g.n_nodes - 1 and _check_connected(g.n_nodes, edges):
            out.append(OrderedDigraph(g.n_nodes, edges))
    return out


# ---------------------------------------------------------------------------
# edge-list text format (1-based labels)

def parse_edge_lines(lines):
    """Parse "i j" edge lines (1-based, '#' comments) into 0-based pairs."""
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer node label in {line!r}")
        if i < 1 or j < 1:
            raise GraphError(f"line {lineno}: labels are 1-based, got {line!r}")
        edges.append((i - 1, j - 1))
    return edges


def parse_bilevel_text(text):
    """Parse a bilevel graph file: a STATE section followed by a BASE section."""
    state_lines, base_lines, current = [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.upper() == "STATE":
            current = state_lines
            continue
        if line.upper() == "BASE":
            current = base_lines
            continue
        if current is None:
            raise GraphError(f"line {lineno}: edge before STATE section")
        current.append(line)
    if not state_lines:
        raise GraphError("missing STATE section")
    if not base_lines:
        raise GraphError("missing BASE section")
    state_edges = parse_edge_lines(state_lines)
    base_edges = parse_edge_lines(base_lines)
    n = 1 + max(max(i, j) for i, j in state_edges)
    return BilevelGraph(OrderedDigraph(n, state_edges), OrderedDigraph(n, base_edges))


def read_bilevel_graph(path):
    with open(path) as fh:
        return parse_bilevel_text(fh.read())

