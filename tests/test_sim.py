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
from oracles import identical_bits, message_stats, sent_rows, simulated_and_reference

rng = np.random.default_rng(5)


def quad_ops(n, dim=2):
    return [prox_translated_quadratic(rng.standard_normal(dim)) for _ in range(n)]


def tree_bg():
    return BilevelGraph(complete_digraph(4), OrderedDigraph(4, [(0, 1), (1, 2), (1, 3)]))


def k4_bg(protocol):
    """Complete K4 state with a tree base, or with itself as base (general)."""
    g = complete_digraph(4)
    return tree_bg() if protocol == "tree" else BilevelGraph(g, g)


@pytest.mark.identity
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


@pytest.mark.identity
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
def test_messages_only_on_graph_edges(monkeypatch, protocol):
    bg = k4_bg(protocol)
    sim = NetworkSim(bg, quad_ops(4), SolverConfig(sigma=1.0), protocol=protocol)
    runs, send = set(), NetworkSim._send

    def keep_run(self, rnd, slots, payload):  # the run's copy of sim, and its slot buffer
        runs.add(self)
        send(self, rnd, slots, payload)

    monkeypatch.setattr(NetworkSim, "_send", keep_run)
    sim.run(5)
    (run,) = runs
    state_pairs, base_edges = set(bg.state.edges), set(bg.base.edges)
    for msg in sim.log:
        if msg.kind == "x":
            assert tuple(sorted((msg.src, msg.dst))) in state_pairs
        else:  # a dual travels its base edge (h, i) from its owner i to h
            assert msg.kind == "w" and (msg.dst, msg.src) in base_edges
    # every slot but the last round's |E'| duals (tree) has been read
    full = np.flatnonzero(run.full)
    left = [sim.sends[s][:3] for s in full]
    expected = [(i, h, "w") for h, i in bg.base.edges] if protocol == "tree" else []
    assert sorted(left) == sorted(expected)
    last = [m.payload for m in sim.log if m.round == 5 and m.kind == "w"]
    assert np.array_equal(run.buf[full], np.array(last).reshape(-1, 2))


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
        slots, payload = sent_rows(self, slots, payload)
        hit = np.array([(rnd, *self.sends[s][:3]) == (1, 1, 3, "x") for s in slots.tolist()],
                       dtype=bool)
        send(self, rnd, slots[~hit], payload[~hit])
        relabelled = [s for s, row in enumerate(self.sends) if row[:3] == (1, 3, kind)]
        if hit.any() and relabelled:
            send(self, rnd, np.array(relabelled), payload[hit])

    monkeypatch.setattr(NetworkSim, "_send", fake_send)


@pytest.mark.identity
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


@pytest.mark.identity
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
        slots, payload = sent_rows(self, slots, payload)
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


@pytest.mark.parametrize("protocol", ["tree", "general"])
@pytest.mark.parametrize("case", ["svm", "mixed"])
def test_sweep_and_round_share_one_level_kernel(monkeypatch, case, protocol):
    # a sweep and a simulated round each solve every level by one call of
    # solver._solve_level, with the same singles and hinge rows and bits
    import graphdrs.simulate as simulate_module
    import graphdrs.solver as solver_module

    if case == "svm":
        _, ops, bg = build_svm(12, 3, 4)
    else:
        bg, ops, _ = hinges_on_one_level(case)
    calls, kernel = [], solver_module._solve_level

    def recording(singles, batch, *args):
        calls.append(([s[:3] for s in singles], None if batch is None else batch[0].tolist()))
        return kernel(singles, batch, *args)

    monkeypatch.setattr(solver_module, "_solve_level", recording)
    monkeypatch.setattr(simulate_module, "_solve_level", recording)
    cfg = SolverConfig(sigma=0.8, theta=1.3)
    sim = NetworkSim(bg, ops, cfg, protocol)
    assert [sorted([i for _, _, i, _, _ in singles] + ([] if b is None else b[0].tolist()))
            for singles, b in sim.plan.schedule] == sim.plan.levels
    w = np.zeros((sim.plan.z.shape[1], sim.plan.dim))
    rounds = sim.rounds(3)
    for k in range(3):
        calls.clear()
        x, w_next = next(rounds)
        in_round = calls[:]
        calls.clear()
        x_ref, _, _ = step_general(sim.plan, cfg.sigma, cfg.theta_at(k), w, k)
        assert len(calls) == len(sim.plan.levels) and in_round == calls
        assert identical_bits(x, x_ref)
        w = w_next


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


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_interleaved_runs_each_equal_a_fresh_run(protocol):
    # each run owns its slot buffer: a second live run may not read or
    # overwrite the first one's messages
    _, ops, bg = build_svm(12, 3, 4)
    cfg = SolverConfig(sigma=1.0)
    sim = NetworkSim(bg, ops, cfg, protocol)
    fresh = [(x.copy(), w.copy()) for x, w in NetworkSim(bg, ops, cfg, protocol).rounds(4)]
    g1 = sim.rounds(4)
    first = [next(g1)]
    g2 = sim.rounds(4)
    second = [next(g2) for _ in range(3)]
    first += list(g1)
    second += list(g2)
    for got in (first, second):
        assert len(got) == 4
        assert all(identical_bits(x, fx) and identical_bits(w, fw)
                   for (x, w), (fx, fw) in zip(got, fresh))


@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_message_totals_and_log_need_no_run(protocol):
    sim = NetworkSim(k4_bg(protocol), quad_ops(4), SolverConfig(sigma=1.0), protocol)
    before = io.StringIO()
    write_message_log(sim, 3, before)
    assert sim.total_messages(3) == len(before.getvalue().splitlines()) - 1
    result, after = sim.run(3), io.StringIO()
    write_message_log(sim, 3, after)
    assert before.getvalue() == after.getvalue()
    assert sim.total_messages(3) == len(result.log)


@pytest.mark.parametrize("rounds", [-1, -2, 2.5, "3", None, True, np.float64(2.0)])
def test_round_count_must_be_a_non_negative_integer(rounds):
    sim = NetworkSim(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0))
    message = f"^rounds must be a non-negative integer, got {re.escape(repr(rounds))}$"
    with pytest.raises(ValueError, match=message):
        sim.run(rounds)
    with pytest.raises(ValueError, match=message):
        list(sim.rounds(rounds))


@pytest.mark.parametrize("rounds", [-1, -3, 2.5, "3", None, True, np.float64(2.0)])
def test_message_totals_and_log_take_only_a_round_count(rounds):
    # the check rounds() makes: -1 gave -3 messages, 2.5 gave 14.5, True
    # counted as 1, and a log of -3 rounds wrote round 0 alone
    sim = NetworkSim(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0))
    message = f"^rounds must be a non-negative integer, got {re.escape(repr(rounds))}$"
    with pytest.raises(ValueError, match=message):
        sim.total_messages(rounds)
    fh = io.StringIO()
    with pytest.raises(ValueError, match=message):
        write_message_log(sim, rounds, fh)
    assert fh.getvalue() == ""


def test_message_totals_and_log_take_numpy_integers():
    sim = NetworkSim(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0))
    total = sim.total_messages(np.int64(2))
    assert type(total) is int and total == sim.total_messages(2) == 3 + 2 * len(sim.sends)
    logs = [io.StringIO(), io.StringIO()]
    write_message_log(sim, np.int64(2), logs[0])
    write_message_log(sim, 2, logs[1])
    assert logs[0].getvalue() == logs[1].getvalue()
    assert len(logs[0].getvalue().splitlines()) == total + 1


def test_zero_rounds_run_sends_only_the_initialization():
    sim = NetworkSim(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0))
    result = sim.run(np.int64(0))
    assert result.x_history.shape == (0, 4, 2) and np.array_equal(result.w, np.zeros((3, 2)))
    assert len(result.log) == sim.total_messages(0) == 3
    assert list(sim.rounds(0)) == []


def record_slot_calls(monkeypatch):
    """Route every _send and _recv through a recorder: (name, rnd, slots,
    payload shape, or None for a receive, which reads in place) per call,
    in call order."""
    calls, send, recv = [], NetworkSim._send, NetworkSim._recv

    def recording_send(self, rnd, slots, payload):
        calls.append(("send", rnd, slots, np.shape(payload)))
        send(self, rnd, slots, payload)

    def recording_recv(self, rnd, slots):
        calls.append(("recv", rnd, slots, None))
        recv(self, rnd, slots)

    monkeypatch.setattr(NetworkSim, "_send", recording_send)
    monkeypatch.setattr(NetworkSim, "_recv", recording_recv)
    return calls


@pytest.mark.parametrize("graph", ["k4", "svm"])
@pytest.mark.parametrize("protocol", ["tree", "general"])
def test_every_send_goes_through_one_send_path(monkeypatch, protocol, graph):
    # run slices and scatters alike: a round's sends cover its table once,
    # in turn order, each a row per slot or one row onto a run of slots,
    # and no slot call has an empty set
    if graph == "svm":
        _, ops, bg = build_svm(50, 5, 10)
    else:
        bg, ops = k4_bg(protocol), quad_ops(4)
    calls = record_slot_calls(monkeypatch)
    sim = NetworkSim(bg, ops, SolverConfig(sigma=0.7), protocol)
    sim.run(3)
    n_slots, dim = len(sim.sends), sim.plan.dim
    for rnd in range(4):
        sent = [s for name, r, slots, _ in calls if (name, r) == ("send", rnd)
                for s in np.arange(n_slots)[slots].tolist()]
        assert sorted(sent) == sorted(sim.init if rnd == 0 else range(n_slots))
    for name, _, slots, shape in calls:
        k = len(np.arange(n_slots)[slots])
        assert k > 0
        if isinstance(slots, slice):  # one sender: its estimate, broadcast
            assert name == "send" and shape == (dim,)
            assert {sim.sends[s][0] for s in range(n_slots)[slots]} == {sim.sends[slots.start][0]}
        elif name == "send":
            assert shape == (k, dim)
    if graph == "svm":  # each official's turn sends one run of slots
        turns = [c for c in calls if c[:2] == ("send", 1)][:5]
        assert all(isinstance(slots, slice) for _, _, slots, _ in turns)


def test_empty_slot_sets_make_no_slot_call(monkeypatch):
    # SVM tree: official 0 receives no estimate, the hinge level sends none,
    # and nobody receives late; the round still equals agent turns bit for
    # bit with every estimate shifted in transit
    _, ops, bg = build_svm(50, 5, 10)
    cfg = SolverConfig(sigma=0.7, theta=1.3)
    assert bg.state.in_neighbors(0) == []
    hinges = StepPlan(bg, ops).schedule[-1][1][0].tolist()
    calls = record_slot_calls(monkeypatch)
    sim = NetworkSim(bg, ops, cfg, "tree")
    assert not any(src in hinges and kind == "x" for src, _, kind, _ in sim.sends)
    next(sim.rounds(1))
    # per round 1: duals in, 5 official turns (4 receive, 5 send), hinges
    # receive, duals out
    names = [name for name, rnd, _, _ in calls if rnd == 1]
    assert names == ["recv", "send"] + ["recv", "send"] * 4 + ["recv", "send"]
    new, old = simulated_and_reference(bg, ops, cfg, "tree", 4, 0.25)
    assert new[0] == old[0] and identical_bits(new[1], old[1])


@pytest.mark.identity
def test_dropped_dual_is_missing_at_the_next_rounds_start(monkeypatch):
    # a dual is read only at the start of the round after its send, before
    # any agent of that round sends an estimate
    sim = NetworkSim(tree_bg(), quad_ops(4), SolverConfig(sigma=1.0), "tree")
    src, dst, kind, _ = sim.sends[sim.init[1]]
    assert kind == "w"
    send, sent = NetworkSim._send, []

    def dropping_send(self, rnd, slots, payload):
        slots, payload = sent_rows(self, slots, payload)
        keep = np.array([(rnd, *self.sends[s][:3]) != (1, src, dst, "w")
                         for s in slots.tolist()], dtype=bool)
        sent.append(rnd)
        send(self, rnd, slots[keep], payload[keep])

    monkeypatch.setattr(NetworkSim, "_send", dropping_send)
    with pytest.raises(ProtocolError,
                       match=f"^agent {dst} at round 2: missing w message from {src}$"):
        sim.run(3)
    assert 2 not in sent


@pytest.mark.identity
def test_agents_read_their_dual_messages(monkeypatch):
    # duals shifted in transit move the estimates: a receiver's dual term
    # comes from its message, not from the owner's w
    bg, ops, cfg = tree_bg(), quad_ops(4), SolverConfig(sigma=1.0)
    clean = NetworkSim(bg, ops, cfg).run(2)
    send = NetworkSim._send

    def shifted_duals(self, rnd, slots, payload):
        ids, payload = sent_rows(self, slots, payload)
        is_w = np.array([self.sends[s][2] == "w" for s in ids.tolist()], dtype=bool)
        send(self, rnd, ids, np.where(is_w[:, None], payload + 0.25, payload))

    monkeypatch.setattr(NetworkSim, "_send", shifted_duals)
    shifted = NetworkSim(bg, ops, cfg).run(2)
    assert not np.array_equal(shifted.x_history[0], clean.x_history[0])
