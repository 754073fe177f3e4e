import math

import numpy as np
import pytest

from graphdrs.graphs import (
    BilevelGraph,
    GraphError,
    OrderedDigraph,
    algebraic_connectivity,
    connected_subgraphs,
    enumerate_connected_digraphs,
    laplacian,
    p_matrix,
    parse_bilevel_text,
    parse_edge_lines,
    sigma_matrix,
    unbalance,
)


def complete(n):
    return OrderedDigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_edge_validation():
    with pytest.raises(GraphError):
        OrderedDigraph(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(GraphError):
        OrderedDigraph(3, [(1, 0), (1, 2)])  # wrong orientation
    with pytest.raises(GraphError):
        OrderedDigraph(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(GraphError):
        OrderedDigraph(3, [(0, 1), (0, 3)])  # out of range


def test_connectivity_required():
    with pytest.raises(GraphError):
        OrderedDigraph(4, [(0, 1), (2, 3)])


def test_neighbors_and_degrees():
    g = OrderedDigraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert g.in_neighbors(3) == [1, 2]
    assert g.out_neighbors(0) == [1, 2]
    assert g.in_neighbors(0) == []
    assert g.adjacency(1) == [0, 3]
    assert list(g.degrees()) == [2, 2, 2, 2]
    assert not g.is_tree()
    assert OrderedDigraph(3, [(0, 1), (1, 2)]).is_tree()


def test_laplacian_path3():
    g = OrderedDigraph(3, [(0, 1), (1, 2)])
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(laplacian(g), expected)


def test_algebraic_connectivity_values():
    assert algebraic_connectivity(complete(4)) == pytest.approx(4.0, abs=1e-12)
    path4 = OrderedDigraph(4, [(0, 1), (1, 2), (2, 3)])
    assert algebraic_connectivity(path4) == pytest.approx(2 - math.sqrt(2), abs=1e-12)
    assert algebraic_connectivity(OrderedDigraph(2, [(0, 1)])) == pytest.approx(2.0)


def test_unbalance_hand_values():
    # single edge: node 0 has one larger neighbor, node 1 one smaller
    assert unbalance(OrderedDigraph(2, [(0, 1)])) == pytest.approx(1.0)
    # path 0-1-2: diffs are (1, 0, -1) -> sqrt(2/3)
    g = OrderedDigraph(3, [(0, 1), (1, 2)])
    assert unbalance(g) == pytest.approx(math.sqrt(2.0 / 3.0))


def test_sigma_matrix_structure():
    g = OrderedDigraph(3, [(0, 1), (1, 2)])
    sig = sigma_matrix(g)
    lap = laplacian(g)
    assert np.array_equal(sig, -sig.T)
    assert np.array_equal(np.tril(sig, -1), np.tril(lap, -1))
    assert np.all(np.diag(sig) == 0)


def test_p_matrix_free_edge():
    state = OrderedDigraph(3, [(0, 1), (1, 2), (0, 2)])
    base = OrderedDigraph(3, [(0, 1), (1, 2)])
    bg = BilevelGraph(state, base)
    assert bg.free_edges() == ((0, 2),)
    p = p_matrix(bg)
    expected = np.zeros((3, 3))
    expected[0, 0] = expected[2, 2] = 1.0
    expected[2, 0] = -2.0
    assert np.array_equal(p, expected)
    # P + P^T is PSD (it is L of the free-edge graph, symmetrized)
    evals = np.linalg.eigvalsh(p + p.T)
    assert evals.min() > -1e-12


def test_bilevel_validation():
    state = OrderedDigraph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        BilevelGraph(state, OrderedDigraph(3, [(0, 2), (1, 2)]))
    with pytest.raises(GraphError):
        BilevelGraph(state, OrderedDigraph(2, [(0, 1)]))


def test_enumeration_counts():
    assert len(enumerate_connected_digraphs(2)) == 1
    assert len(enumerate_connected_digraphs(3)) == 4
    assert len(enumerate_connected_digraphs(4)) == 38
    with pytest.raises(GraphError):
        enumerate_connected_digraphs(7)
    for n in (1, 0, -2):
        with pytest.raises(GraphError, match="2 <= n"):
            enumerate_connected_digraphs(n)


def test_connected_subgraphs_of_complete4():
    assert len(connected_subgraphs(complete(4))) == 38


def test_connected_subgraphs_is_bounded_by_the_enumeration_limit():
    assert len(enumerate_connected_digraphs(6)) == 26704
    path = OrderedDigraph(18, [(i, i + 1) for i in range(17)])
    with pytest.raises(GraphError, match="17 edges"):
        connected_subgraphs(path)


def test_parse_edge_lines():
    assert parse_edge_lines(["1 2", "2 3"]) == [(0, 1), (1, 2)]


def test_parse_bilevel_sections():
    bg = parse_bilevel_text("# comment\nSTATE\n1 2\n2 3\n1 3\nBASE\n1 2\n2 3\n")
    assert bg.n_nodes == 3
    assert bg.base.edges == ((0, 1), (1, 2))
    with pytest.raises(GraphError, match="BASE"):
        parse_bilevel_text("STATE\n1 2\n")
    with pytest.raises(GraphError, match="STATE"):
        parse_bilevel_text("1 2\nBASE\n1 2\n")
    with pytest.raises(GraphError, match="expected 'i j'"):
        parse_bilevel_text("STATE\n1 2 3\nBASE\n1 2\n")
