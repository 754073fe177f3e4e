import dataclasses
import io
import re

import numpy as np
import pytest

from graphdrs.factorization import incidence_decomposition
from graphdrs.graphs import BilevelGraph, OrderedDigraph, complete_digraph
from graphdrs.operators import (
    Resolvent,
    prox_group_l1,
    prox_hinge_affine,
    prox_quadratic,
    prox_translated_quadratic,
)
from graphdrs.problems import build_svm
from graphdrs.simulate import (
    Message,
    NetworkSim,
    ProtocolError,
    run_general_protocol,
    run_tree_protocol,
    write_message_log,
)
from graphdrs.solver import (
    NumericalError,
    SolverConfig,
    StepPlan,
    make_malitsky_tam,
    make_ryu,
    run,
    step_general,
    step_tree,
    tree_decomposition,
)
from oracles import identical_bits, message_stats, simulated_and_reference

rng = np.random.default_rng(5)


def quad_ops(n, dim=2):
    return [prox_translated_quadratic(rng.standard_normal(dim)) for _ in range(n)]


def tree_bg():
    return BilevelGraph(complete_digraph(4), OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)]))


def k4_bg(protocol):
    """Complete K4 state with a tree base, or with itself as base (general)."""
    g = complete_digraph(4)
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
    g = complete_digraph(4)
    bg = BilevelGraph(g, g)  # non-tree base
    ops = quad_ops(4)
    cfg = SolverConfig(sigma=0.7)
    result = run_general_protocol(bg, ops, cfg, rounds=40)
    assert result.x_history.shape == (40, 4, 2)
    plan, wt = StepPlan(bg, ops), np.zeros((4, 2))
    for rnd in range(40):
        x, wt, _ = step_general(plan, cfg.sigma, cfg.theta_at(rnd), wt, rnd)
        assert np.array_equal(result.x_history[rnd], x)


@pytest.mark.parametrize("protocol,graph", [
    ("tree", "svm"), ("general", "svm"), ("general", "k4"),
])
def test_final_duals_equal_centralized_duals(protocol, graph):
    if graph == "svm":
        _, ops, bg = build_svm(50, 5, 10)
    else:
        bg, ops = BilevelGraph(complete_digraph(4), complete_digraph(4)), quad_ops(4)
    cfg = SolverConfig(sigma=0.7, theta=1.4)
    sim = NetworkSim(bg, ops, cfg, protocol=protocol)
    result, plan = sim.run(60), sim.plan
    z = incidence_decomposition(bg.base) if protocol == "tree" else np.eye(bg.n_nodes)
    assert np.array_equal(plan.z, z) and plan.ops == tuple(ops)
    w = np.zeros_like(result.w)
    assert w.shape == (bg.base.n_edges if protocol == "tree" else bg.n_nodes,
                       result.x_history.shape[2])
    for rnd in range(60):
        x, w, _ = step_general(plan, cfg.sigma, cfg.theta_at(rnd), w, rnd)
        assert np.array_equal(result.x_history[rnd], x)
    assert np.array_equal(result.w, w)


def test_solving_leaves_no_state_on_the_graph():
    bg, ops = tree_bg(), quad_ops(4)
    cfg = SolverConfig(sigma=1.0, max_iter=3)
    step_tree(bg, ops, 1.0, 1.0, np.zeros((3, 2)))
    step_general(StepPlan(bg, ops), 1.0, 1.0, np.zeros((4, 2)))
    run(bg, tree_decomposition(bg), ops, cfg)
    run(bg, None, ops, cfg)
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
    g = complete_digraph(4)
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
    # every slot but the last round's |E'| duals (tree) has been read
    full = np.flatnonzero(sim.full)
    left = [sim.sends[s][:3] for s in full]
    expected = [(i, h, "w") for h, i in bg.base.edges] if protocol == "tree" else []
    assert sorted(left) == sorted(expected)
    last = [m.payload for m in sim.log if m.round == 5 and m.kind == "w"]
    assert np.array_equal(sim.buf[full], np.array(last).reshape(-1, 2))


def test_protocol_validation():
    g = complete_digraph(4)
    bg = BilevelGraph(g, g)
    with pytest.raises(ValueError, match="tree"):
        NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol="tree")
    with pytest.raises(ValueError):
        NetworkSim(bg, quad_ops(3), SolverConfig(sigma=1.0), protocol="general")
    with pytest.raises(ValueError):
        NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol="gossip")


def test_dimension_comes_from_the_resolvents():
    bg = tree_bg()
    ops = [prox_group_l1(6)] * 3 + [prox_translated_quadratic(np.zeros(6))]
    assert NetworkSim(bg, ops, SolverConfig(sigma=1.0)).plan.dim == 6


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
    sim = NetworkSim(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0))
    result = sim.run(1)
    buf = io.StringIO()
    write_message_log(sim, 1, buf)
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


@pytest.mark.parametrize("graph", ["k4", "svm"])
@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_no_payload_is_written_after_it_is_sent(protocol, graph):
    # a logged payload is a view of its round's fresh x or w: the simulator
    # may not write either once the round is yielded
    if graph == "svm":
        _, ops, bg = build_svm(50, 5, 10)
    else:
        bg, ops = k4_bg(protocol), quad_ops(4)
    sim = NetworkSim(bg, ops, SolverConfig(sigma=0.7, theta=1.4), protocol=protocol)
    rounds, snapshots = [], []
    for x, w in sim.rounds(4):
        rounds += [x, w]
        snapshots += [x.copy(), w.copy()]
    assert len(sim.sends) == bg.state.n_edges + bg.base.n_edges
    assert all(identical_bits(a, snap) for a, snap in zip(rounds, snapshots))


def tamper_x_from_1_to_3(monkeypatch, kind):
    """Fake NetworkSim._send: the round-1 x from 1 to 3 is dropped (kind
    None) or relabelled as kind, which puts it on the slot of channel
    (1, 3, kind) if there is one; every other message goes through."""
    send = NetworkSim._send

    def fake_send(self, rnd, slots, payload):
        hit = np.array([(rnd, *self.sends[s][:3]) == (1, 1, 3, "x") for s in slots.tolist()],
                       dtype=bool)
        send(self, rnd, slots[~hit], payload[~hit])
        relabelled = [s for s, row in enumerate(self.sends) if row[:3] == (1, 3, kind)]
        if hit.any() and relabelled:
            send(self, rnd, np.array(relabelled), payload[hit])

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
    # the kind is part of a slot's channel: relabelled, the estimate is not
    # on the slot agent 3 reads (no w channel runs from 1 to 3), so it is missing
    tamper_x_from_1_to_3(monkeypatch, "w")
    for protocol in ("tree", "general"):
        sim = NetworkSim(k4_bg(protocol), quad_ops(4), SolverConfig(sigma=1.0),
                         protocol=protocol)
        with pytest.raises(ProtocolError,
                           match="^agent 3 at round 1: missing x message from 1$"):
            sim.run(2)


@pytest.mark.parametrize("protocol, channel, message", [
    ("tree", (1, 3, "x"), "agent 1 at round 2: unread x message to 3"),
    ("general", (1, 3, "x"), "agent 1 at round 2: unread x message to 3"),
    ("tree", (3, 1, "w"), "agent 3 at round 2: unread w message to 1"),
])
def test_unread_message_names_round_agent_and_kind(monkeypatch, protocol, channel, message):
    # a round-2 message sent twice finds its first copy still on the slot
    send = NetworkSim._send

    def resend(self, rnd, slots, payload):
        send(self, rnd, slots, payload)
        again = np.array([self.sends[s][:3] == channel for s in slots.tolist()], dtype=bool)
        if rnd == 2 and again.any():
            send(self, rnd, slots[again], payload[again])

    monkeypatch.setattr(NetworkSim, "_send", resend)
    sim = NetworkSim(k4_bg(protocol), quad_ops(4), SolverConfig(sigma=1.0), protocol=protocol)
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        sim.run(3)


def test_mismatched_operator_dimensions_name_the_node():
    bg = make_malitsky_tam(3)
    ops = [prox_translated_quadratic(np.zeros(d)) for d in (2, 2, 3)]
    expected = "node 2 .*'translated_quadratic'.* dimension 3.* 2"
    with pytest.raises(ValueError, match=expected):
        NetworkSim(bg, ops, SolverConfig(sigma=1.0)).run(2)


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize("theta", [1.3, lambda k: 1.0 + 0.5 * np.sin(k)])
@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_svm_level_turns_equal_agent_turns_bitwise(protocol, theta, shift):
    _, ops, bg = build_svm(50, 5, 10)
    new, old = simulated_and_reference(bg, ops, SolverConfig(sigma=0.7, theta=theta),
                                       protocol, 12, 0.25 * shift)
    assert len(new[0]) == 12 and len(new[0][-1][1]) == bg.state.n_edges + bg.base.n_edges
    assert new[0] == old[0] and identical_bits(new[1], old[1])


def hinges_on_one_level(case):
    """(bilevel graph, resolvents, the hinge rows of each stacked call).
    "sources": hinges 0 and 1 have no state in-neighbours, and both read x_2
    late in the general protocol.  "mixed": hinges 1 and 2 share a level
    below the quadratic 0, and in the general protocol 1 reads x_4 late while
    2 reads nothing late; hinge 3 is alone on its level, a stack of one."""
    r = np.random.default_rng(3)
    if case == "sources":
        edges = [(0, 2), (1, 2)]
        bg = BilevelGraph(OrderedDigraph(3, edges), OrderedDigraph(3, edges))
        kinds, batches = "hht", [[0, 1]]
    else:
        base = [(0, 1), (0, 2), (0, 3), (1, 4)]
        bg = BilevelGraph(OrderedDigraph(5, base + [(2, 4)]), OrderedDigraph(5, base))
        kinds, batches = "qhhht", [[1, 2], [3]]
    ops = [prox_hinge_affine(r.standard_normal(3), 0.5) if kind == "h"
           else prox_quadratic(np.diag(r.uniform(0.5, 2.0, 3)), 0.7) if kind == "q"
           else prox_translated_quadratic(r.standard_normal(3), 1.5) for kind in kinds]
    return bg, ops, batches


@pytest.mark.parametrize("shift", [False, True])
@pytest.mark.parametrize("protocol", ["tree", "general"])
@pytest.mark.parametrize("case", ["sources", "mixed"])
def test_stacked_agents_with_late_receives_or_no_inputs(case, protocol, shift):
    bg, ops, batches = hinges_on_one_level(case)
    assert [list(b[0]) for _, b in StepPlan(bg, ops).schedule if b is not None] == batches
    new, old = simulated_and_reference(bg, ops, SolverConfig(sigma=0.9, theta=1.2),
                                       protocol, 6, 0.25 * shift)
    assert new[0] == old[0] and identical_bits(new[1], old[1])


def test_a_network_needs_two_nodes():
    lone = OrderedDigraph(1, [])
    bg, ops = BilevelGraph(lone, lone), [prox_translated_quadratic(np.ones(2))]
    cfg = SolverConfig(sigma=1.0)
    message = "need a network of at least 2 nodes, got 1"
    for build in (lambda: StepPlan(bg, ops), lambda: run(bg, None, ops, cfg),
                  lambda: NetworkSim(bg, ops, cfg, "tree").run(3),
                  lambda: NetworkSim(bg, ops, cfg, "general").run(3)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_svm_round_is_six_resolvent_calls(monkeypatch, protocol):
    _, ops, bg = build_svm(50, 5, 10)
    calls = []
    call = Resolvent.__call__

    def counting(self, tau, r, out=None):
        calls.append(self.name)
        return call(self, tau, r, out)

    monkeypatch.setattr(Resolvent, "__call__", counting)
    for _ in NetworkSim(bg, ops, SolverConfig(sigma=0.7), protocol).rounds(5):
        assert calls == ["quadratic"] * 5 + ["hinge"]
        calls.clear()


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_non_finite_round_fails_as_the_centralized_step(protocol):
    # the text solver.run gives for the same sweep: iteration, node, operator
    g = complete_digraph(3)
    bg = make_ryu(3) if protocol == "tree" else BilevelGraph(g, g)  # complete state graph
    centers = (1.0, 2.0), (1e308, 0.0), (-1e308, 0.0)
    ops = [prox_translated_quadratic(np.array(c)) for c in centers]
    cfg = SolverConfig(sigma=1e10, max_iter=5)
    message = ("non-finite solution estimate at iteration 0: node 1 "
               "(resolvent 'translated_quadratic')")
    with np.errstate(over="ignore", invalid="ignore"):
        for solve in (lambda: run(bg, None, ops, cfg),
                      lambda: NetworkSim(bg, ops, cfg, protocol).run(5)):
            with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                solve()
