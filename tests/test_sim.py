import dataclasses
import io

import numpy as np
import pytest

from graphdrs.factorization import incidence_decomposition
from graphdrs.graphs import BilevelGraph, OrderedDigraph
from graphdrs.operators import prox_group_l1, prox_translated_quadratic
from graphdrs.problems import build_svm
from graphdrs.simulate import (
    Message,
    NetworkSim,
    ProtocolError,
    message_stats,
    run_general_protocol,
    run_tree_protocol,
    write_message_log,
)
from graphdrs.solver import (
    SolverConfig,
    StepPlan,
    make_malitsky_tam,
    run,
    run_wtilde,
    step_general,
    step_tree,
    step_wtilde,
    tree_decomposition,
)

rng = np.random.default_rng(5)


def complete(n):
    return OrderedDigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def quad_ops(n, dim=2):
    return [prox_translated_quadratic(rng.standard_normal(dim)) for _ in range(n)]


def tree_bg():
    return BilevelGraph(complete(4), OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)]))


def k4_bg(protocol):
    """Complete K4 state with a tree base, or with itself as base (general)."""
    g = complete(4)
    return tree_bg() if protocol == "tree" else BilevelGraph(g, g)


def test_tree_protocol_bit_identical():
    bg = tree_bg()
    ops = quad_ops(4)
    cfg = SolverConfig(sigma=1.0, theta=1.3)
    result = run_tree_protocol(bg, ops, cfg, rounds=40)
    assert result.x_history.shape == (40, 4, 2)
    w = np.zeros((3, 2))
    for rnd in range(40):
        x, w = step_tree(bg, ops, cfg.sigma, cfg.theta_at(rnd), w, rnd)
        assert np.array_equal(result.x_history[rnd], x)


def test_general_protocol_bit_identical():
    g = complete(4)
    bg = BilevelGraph(g, g)  # non-tree base
    ops = quad_ops(4)
    cfg = SolverConfig(sigma=0.7)
    result = run_general_protocol(bg, ops, cfg, rounds=40)
    assert result.x_history.shape == (40, 4, 2)
    wt = np.zeros((4, 2))
    for rnd in range(40):
        x, wt = step_wtilde(bg, ops, cfg.sigma, cfg.theta_at(rnd), wt, rnd)
        assert np.array_equal(result.x_history[rnd], x)


@pytest.mark.parametrize("protocol,graph", [
    ("tree", "svm"), ("general", "svm"), ("general", "k4"),
])
def test_final_duals_equal_centralized_duals(protocol, graph):
    if graph == "svm":
        _, ops, bg = build_svm(50, 5, 10)
    else:
        bg, ops = BilevelGraph(complete(4), complete(4)), quad_ops(4)
    cfg = SolverConfig(sigma=0.7, theta=1.4)
    result = NetworkSim(bg, ops, cfg, protocol=protocol).run(60)
    plan = StepPlan(bg, incidence_decomposition(bg.base).z if protocol == "tree" else None)
    w = np.zeros_like(result.w)
    assert w.shape == (bg.base.n_edges if protocol == "tree" else bg.n_nodes,
                       result.x_history.shape[2])
    for rnd in range(60):
        x, w, _ = step_general(plan, ops, cfg.sigma, cfg.theta_at(rnd), w, rnd)
        assert np.array_equal(result.x_history[rnd], x)
    assert np.array_equal(result.w, w)


def test_solving_leaves_no_state_on_the_graph():
    bg, ops = tree_bg(), quad_ops(4)
    cfg = SolverConfig(sigma=1.0, max_iter=3)
    step_tree(bg, ops, 1.0, 1.0, np.zeros((3, 2)))
    step_wtilde(bg, ops, 1.0, 1.0, np.zeros((4, 2)))
    run(bg, tree_decomposition(bg), ops, cfg)
    run_wtilde(bg, ops, cfg)
    for protocol in ("tree", "general"):
        NetworkSim(bg, ops, cfg, protocol=protocol).run(3)
    assert vars(bg).keys() == {"state", "base"}


def test_tree_message_counts():
    bg = tree_bg()
    result = run_tree_protocol(bg, quad_ops(4), SolverConfig(sigma=1.0), rounds=10)
    stats = message_stats(result.log)
    e, ep = bg.state.n_edges, bg.base.n_edges
    assert stats["per_round"][0] == ep  # dual initialization
    for rnd in range(1, 11):
        assert stats["per_round"][rnd] == e + ep
    assert stats["total"] == ep + 10 * (e + ep)


def test_general_message_counts():
    g = complete(4)
    bg = BilevelGraph(g, g)
    result = run_general_protocol(bg, quad_ops(4), SolverConfig(sigma=1.0), rounds=7)
    stats = message_stats(result.log)
    e, ep = bg.state.n_edges, bg.base.n_edges
    for rnd in range(1, 8):
        assert stats["per_round"][rnd] == e + ep
    assert stats["total"] == 7 * (e + ep)


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_messages_only_on_graph_edges(protocol):
    bg = k4_bg(protocol)
    sim = NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol=protocol)
    sim.run(5)
    state_pairs, base_edges = set(bg.state.edges), set(bg.base.edges)
    for msg in sim.log:
        if msg.kind == "x":
            assert tuple(sorted((msg.src, msg.dst))) in state_pairs
        else:  # a dual travels its base edge (h, i) from its owner i to h
            assert msg.kind == "w" and (msg.dst, msg.src) in base_edges
    # every message but the last round's |E'| duals (tree) has been received
    left = [(m.round, m.dst, m.src, m.kind)
            for chan in sim.channels.values() for m in chan]
    expected = [(5, h, i, "w") for h, i in bg.base.edges] if protocol == "tree" else []
    assert sorted(left) == sorted(expected)


def test_protocol_validation():
    g = complete(4)
    bg = BilevelGraph(g, g)
    with pytest.raises(ValueError, match="tree"):
        NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol="tree")
    with pytest.raises(ValueError):
        NetworkSim(bg, quad_ops(3), SolverConfig(sigma=1.0), protocol="general")
    with pytest.raises(ValueError):
        NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol="gossip")


def test_dimension_comes_from_the_resolvents():
    bg = tree_bg()
    ops = [prox_group_l1()] * 3 + [prox_translated_quadratic(np.zeros(6))]
    assert NetworkSim(bg, ops, SolverConfig(sigma=1.0)).dim == 6
    with pytest.raises(ValueError, match="every resolvent is dimension-free") as exc:
        NetworkSim(bg, [prox_group_l1()] * 4, SolverConfig(sigma=1.0))
    assert "pass" not in str(exc.value)


def test_determinism():
    bg = tree_bg()
    rng_local = np.random.default_rng(99)
    ops = [prox_translated_quadratic(rng_local.standard_normal(2)) for _ in range(4)]
    r1 = run_tree_protocol(bg, ops, SolverConfig(sigma=1.0), rounds=20)
    r2 = run_tree_protocol(bg, ops, SolverConfig(sigma=1.0), rounds=20)
    assert np.array_equal(r1.x_history, r2.x_history)
    assert [(m.round, m.src, m.dst, m.kind) for m in r1.log] == [
        (m.round, m.src, m.dst, m.kind) for m in r2.log
    ]


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_second_run_starts_from_a_clean_network(protocol):
    bg, ops, cfg = make_malitsky_tam(4), quad_ops(4), SolverConfig(sigma=1.0)
    sim = NetworkSim(bg, ops, cfg, protocol=protocol)
    sim.run(5)
    again = sim.run(5)
    fresh = NetworkSim(bg, ops, cfg, protocol=protocol).run(5)
    assert np.array_equal(again.x_history, fresh.x_history)
    assert [(m.round, m.src, m.dst, m.kind, m.payload.tolist()) for m in again.log] == [
        (m.round, m.src, m.dst, m.kind, m.payload.tolist()) for m in fresh.log
    ]


def test_message_log_csv():
    bg = tree_bg()
    result = run_tree_protocol(bg, quad_ops(4), SolverConfig(sigma=1.0), rounds=1)
    buf = io.StringIO()
    write_message_log(result.log, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "round,from,to,kind"
    # initialization: owners push zero duals upstream, 1-based labels
    assert lines[1].startswith("0,")
    assert len(lines) == 1 + len(result.log)


def test_log_entries_keep_their_fields():
    assert [f.name for f in dataclasses.fields(Message)] == [
        "round", "src", "dst", "kind", "payload",
    ]
    result = run_tree_protocol(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0), rounds=3)
    for msg in result.log:
        assert msg.kind in ("x", "w")
        assert msg.payload.shape == (2,)


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_logged_payloads_are_copies(protocol):
    bg = k4_bg(protocol)
    result = NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol=protocol).run(6)
    sent_x = [(m.round, m.src, m.payload) for m in result.log if m.kind == "x"]
    for rnd, src, payload in sent_x:
        assert np.array_equal(payload, result.x_history[rnd - 1, src])
    logged = [m.payload.copy() for m in result.log]
    # overwrite the senders' estimates (views of x_history) and the duals
    result.x_history[...] = np.nan
    result.w[...] = np.nan
    for msg, before in zip(result.log, logged):
        assert np.array_equal(msg.payload, before)


def tamper_x_from_1_to_3(monkeypatch, kind):
    """Fake NetworkSim._send: the round-1 x from 1 to 3 is dropped (kind
    None) or relabelled as kind; every other message goes through."""
    send = NetworkSim._send

    def fake_send(self, rnd, src, outs, msg_kind, payload):
        for dst, chan in outs:
            if (rnd, src, dst, msg_kind) != (1, 1, 3, "x"):
                send(self, rnd, src, [(dst, chan)], msg_kind, payload)
            elif kind is not None:
                send(self, rnd, src, [(dst, chan)], kind, payload)

    monkeypatch.setattr(NetworkSim, "_send", fake_send)


def test_missing_message_names_round_agent_and_kind(monkeypatch):
    tamper_x_from_1_to_3(monkeypatch, None)
    for protocol in ("tree", "general"):
        sim = NetworkSim(k4_bg(protocol), quad_ops(4), SolverConfig(sigma=1.0),
                         protocol=protocol)
        with pytest.raises(ProtocolError,
                           match="^agent 3 at round 1: missing x message from 1$"):
            sim.run(2)


def test_wrong_kind_message_names_round_agent_and_kind(monkeypatch):
    tamper_x_from_1_to_3(monkeypatch, "w")
    for protocol in ("tree", "general"):
        sim = NetworkSim(k4_bg(protocol), quad_ops(4), SolverConfig(sigma=1.0),
                         protocol=protocol)
        with pytest.raises(ProtocolError,
                           match="^agent 3 at round 1: expected x from 1, got w$"):
            sim.run(2)
