"""Property tests of the sweep plan on generated bilevel graphs (n <= 8).

Each formulation is checked against a dense reference or against the
formulation it must equal bit for bit, on random connected state graphs
with random tree and non-tree bases and random dimensions.  The run loop's
diagnostics are checked against the full subgradients, and the runs against
the paper's subgradient <= variance <= residual chain and the monotone
residual of a constant relaxation.  The reduced map w -> w - Z^T x(w) is
checked to be firmly nonexpansive, and its estimates to solve the node
inclusions; on affine operators the paper's lifted iteration reduces to
it.  Every catalogue resolvent is checked for firm nonexpansiveness on
generated inputs, and for the out= contract: alias-safe, and no scratch
state carried from one call to the next.  The level schedule is checked to
put each node on the latest level it can take, after all of its state
in-neighbors, and the dual-term rows to follow it, each level's hinges
next to each other, also where hinge labels interleave with the others
over several levels.  The sweeps and the simulator's level turns, each a
level's agents at once with its hinges stacked, are checked against one node or
agent at a time in label order, each hinge by the scalar oracle kernel, bit
for bit and message for message, and the coupling matrix against its entry
loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from graphdrs.factorization import incidence_decomposition, spectral_decomposition
from graphdrs.graphs import (
    BilevelGraph,
    OrderedDigraph,
    algebraic_connectivity,
    laplacian,
    p_matrix,
    sigma_matrix,
    unbalance,
)
from graphdrs.operators import (
    project_affine,
    project_capacity,
    project_grid_divergence,
    prox_group_l1,
    prox_hinge_affine,
    prox_power_three_halves,
    prox_quadratic,
    prox_translated_quadratic,
    stack_hinges,
    zero_operator,
)
from graphdrs.simulate import run_general_protocol, run_tree_protocol
from graphdrs.solver import (
    SolverConfig,
    StepPlan,
    _Csr,
    compute_subgradients,
    run,
    state_variance,
    step_general,
    step_tree,
)
from oracles import (
    identical_bits,
    lifted_ppp_step,
    lifted_reduce,
    lifted_resolvent_w,
    loop_divergence_matrix,
    loop_sigma_matrix,
    message_stats,
    reference_sweep,
    same_bits,
    simulated_and_reference,
)

pytestmark = pytest.mark.identity  # the CI floor job runs this file whole

SWEEPS = 4
PROPERTY = settings.get_profile("derandomized")


@st.composite
def bilevel_graphs(draw, tree=None, max_nodes=8, two_sinks=False):
    """A random spanning tree, plus random extra base and state edges; with
    two_sinks, no edge joins the last two nodes, which are then both sinks."""
    n = draw(st.integers(3 if two_sinks else 2, max_nodes))
    cut = (n - 2, n - 1) if two_sinks else None
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != cut])
    base = {(draw(st.integers(0, i - 1 - (i == n - 1 and two_sinks))), i) for i in range(1, n)}
    if not (draw(st.booleans()) if tree is None else tree):
        base |= set(draw(st.lists(pairs, max_size=6)))
    state = base | set(draw(st.lists(pairs, max_size=8)))
    return BilevelGraph(OrderedDigraph(n, state), OrderedDigraph(n, base))


@st.composite
def problems(draw, tree=None):
    """(bilevel graph, resolvents, rng) with quadratic and hinge resolvents."""
    bg = draw(bilevel_graphs(tree))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = [
        prox_translated_quadratic(rng.standard_normal(dim), rng.uniform(0.5, 2.0))
        if i % 2 == 0
        else prox_hinge_affine(rng.standard_normal(dim), rng.uniform(-1.0, 1.0))
        for i in range(bg.n_nodes)
    ]
    return bg, ops, rng


def dense_sweep(bg, z, ops, sigma, theta, w):
    """The sweep written out from the edge list with dense products."""
    n = bg.n_nodes
    into = np.zeros((n, n))  # into[i, h] = 1 for a state edge h -> i
    for h, i in bg.state.edges:
        into[i, h] = 1.0
    d = into.sum(axis=0) + into.sum(axis=1)
    zw = z @ w
    x = np.zeros_like(zw)
    for i in range(n):
        x[i] = ops[i](sigma / d[i], (2.0 * into[i] @ x + zw[i]) / d[i])
    return x, w - theta * z.T @ x


@PROPERTY
@given(bilevel_graphs())
def test_neighbor_lists_match_edge_scans(bg):
    for g in (bg.state, bg.base):
        for i in range(g.n_nodes):
            ins = sorted(h for h, j in g.edges if j == i)
            outs = sorted(j for h, j in g.edges if h == i)
            assert g.in_neighbors(i) == ins
            assert g.out_neighbors(i) == outs
            assert g.degree(i) == len(ins) + len(outs)
        assert g.degrees().tolist() == [g.degree(i) for i in range(g.n_nodes)]


def longest_state_path(bg):
    """Edges on the longest state path, by relaxing the edge list n times."""
    dist = [0] * bg.n_nodes
    for _ in range(bg.n_nodes):
        for h, i in bg.state.edges:
            dist[i] = max(dist[i], dist[h] + 1)
    return max(dist)


@PROPERTY
@given(bilevel_graphs())
def test_level_schedule_is_a_topological_layering(bg):
    z, ops = spectral_decomposition(bg.base), [zero_operator(1)] * bg.n_nodes
    for plan in (StepPlan(bg, ops, z), StepPlan(bg, ops)):
        level = {}
        for depth, nodes in enumerate(plan.levels):
            for i in nodes:
                assert i not in level
                level[i] = depth
        assert sorted(level) == list(range(bg.n_nodes))
        assert all(level[h] < level[i] for h, i in bg.state.edges)
        assert len(plan.levels) == longest_state_path(bg) + 1
        # the latest level each node can take
        for i in range(bg.n_nodes):
            outs = bg.state.out_neighbors(i)
            assert level[i] == min((level[j] for j in outs), default=len(plan.levels)) - 1


@PROPERTY
@given(problems(), st.sampled_from(["incidence", "spectral"]))
def test_step_general_matches_dense_sweep(problem, factorization):
    bg, ops, rng = problem
    if factorization == "incidence" and not bg.base.is_tree():
        factorization = "spectral"
    decomp = (incidence_decomposition if factorization == "incidence"
              else spectral_decomposition)(bg.base)
    plan = StepPlan(bg, ops, decomp)
    sigma, theta = rng.uniform(0.3, 3.0), rng.uniform(0.2, 1.8)
    w = w_ref = rng.standard_normal((bg.n_nodes - 1, ops[0].dim))
    for k in range(SWEEPS):
        x, w, ztx = step_general(plan, sigma, theta, w, k)
        x_ref, w_ref = dense_sweep(bg, decomp, ops, sigma, theta, w_ref)
        scale = max(1.0, np.abs(w_ref).max(), np.abs(x_ref).max())
        assert np.abs(x - x_ref).max() <= 1e-12 * scale
        assert np.abs(w - w_ref).max() <= 1e-12 * scale
        assert np.abs(ztx - decomp.T @ x).max() <= 1e-12 * scale


@PROPERTY
@given(problems(tree=True))
def test_tree_step_equals_general_step(problem):
    bg, ops, rng = problem
    plan = StepPlan(bg, ops, incidence_decomposition(bg.base))
    w = we = rng.standard_normal((bg.n_nodes - 1, ops[0].dim))
    for k in range(SWEEPS):
        xg, w, _ = step_general(plan, 1.0, 1.3, w, k)
        xt, we = step_tree(bg, ops, 1.0, 1.3, we, k)
        assert np.array_equal(xg, xt)
        assert np.array_equal(w, we)


@PROPERTY
@given(problems())
def test_protocols_equal_centralized_steps(problem):
    bg, ops, rng = problem
    dim = ops[0].dim
    cfg = SolverConfig(sigma=rng.uniform(0.3, 3.0), theta=lambda k: 1.0 + 0.5 * np.sin(k))
    general = run_general_protocol(bg, ops, cfg, rounds=SWEEPS)
    plan, wt = StepPlan(bg, ops), np.zeros((bg.n_nodes, dim))
    for k in range(SWEEPS):
        x, wt, _ = step_general(plan, cfg.sigma, cfg.theta_at(k), wt, k)
        assert np.array_equal(general.x_history[k], x)
    assert np.array_equal(general.w, wt)
    results = [general]
    if bg.base.is_tree():
        tree = run_tree_protocol(bg, ops, cfg, rounds=SWEEPS)
        w = np.zeros((bg.n_nodes - 1, dim))
        for k in range(SWEEPS):
            x, w = step_tree(bg, ops, cfg.sigma, cfg.theta_at(k), w, k)
            assert np.array_equal(tree.x_history[k], x)
        assert np.array_equal(tree.w, w)
        results.append(tree)
    # the channels derived from the plan: |E| + |E'| messages a round, each
    # estimate along a state edge or a reversed base edge, each dual from
    # the head of its base edge to the tail
    state, base = set(bg.state.edges), set(bg.base.edges)
    for result in results:
        per_round = message_stats(result.log)["per_round"]
        for rnd in range(1, SWEEPS + 1):
            assert per_round[rnd] == len(state) + len(base)
        for msg in result.log:
            if msg.kind == "x":
                assert (msg.src, msg.dst) in state or (msg.dst, msg.src) in base
            else:
                assert msg.kind == "w" and (msg.dst, msg.src) in base


# ---------------------------------------------------------------------------
# level-scheduled sweeps against a per-node reference, bit for bit


def with_signed_zeros(rng, a):
    """a with a random share of its entries set to exact 0.0 or -0.0."""
    zeros = rng.choice([0.0, -0.0], size=a.shape)
    return np.where(rng.random(a.shape) < 0.3, zeros, a)


def loop_gather(m, src):
    """m @ src by a per-row loop, each row summed from zero by ascending column."""
    out = np.zeros((len(m), src.shape[1]))
    for r, row in enumerate(m):
        acc = np.zeros(src.shape[1])
        for c in np.flatnonzero(row):
            acc = acc + row[c] * src[c]
        out[r] = acc
    return out


@st.composite
def mixed_problems(draw, tree=None, max_nodes=8, two_hinges=False):
    """(bilevel graph, resolvents, rng): random hinge, quadratic and
    translated-quadratic resolvents, hinges most often, so that levels that
    stack several hinges are common; with two_hinges, the last two nodes are
    hinge sinks, so the last level always stacks two or more."""
    bg = draw(bilevel_graphs(tree, max_nodes, two_sinks=two_hinges))
    dim = draw(st.integers(1, 4))
    kinds = draw(st.lists(
        st.sampled_from(["hinge", "hinge", "quadratic", "translated"]),
        min_size=bg.n_nodes, max_size=bg.n_nodes,
    ))
    if two_hinges:
        kinds[-2:] = ["hinge", "hinge"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for kind in kinds:
        if kind == "hinge":
            ops.append(prox_hinge_affine(rng.standard_normal(dim), rng.uniform(-1.0, 1.0)))
        elif kind == "quadratic":
            a = rng.standard_normal((dim, dim))
            ops.append(prox_quadratic(a @ a.T, rng.uniform(0.1, 2.0)))
        else:
            ops.append(prox_translated_quadratic(rng.standard_normal(dim), rng.uniform(0.5, 2.0)))
    return bg, ops, rng


@PROPERTY
@given(mixed_problems(), st.sampled_from(["incidence", "spectral"]))
def test_step_general_equals_per_node_sweep_bitwise(problem, factorization):
    bg, ops, rng = problem
    if factorization == "incidence" and not bg.base.is_tree():
        factorization = "spectral"
    z = (incidence_decomposition if factorization == "incidence"
         else spectral_decomposition)(bg.base)
    plan = StepPlan(bg, ops, z)
    sigma, theta = rng.uniform(0.3, 3.0), rng.uniform(0.2, 1.8)
    w = with_signed_zeros(rng, rng.standard_normal((bg.n_nodes - 1, ops[0].dim)))
    for k in range(SWEEPS):
        x, w_new, ztx = step_general(plan, sigma, theta, w, k)
        x_ref = reference_sweep(bg, z, ops, sigma, w)
        ztx_ref = loop_gather(z.T, x_ref)
        assert same_bits(x, x_ref)
        assert same_bits(ztx, ztx_ref)
        assert same_bits(w_new, w - theta * ztx_ref)
        w = with_signed_zeros(rng, w_new)


@st.composite
def interleaved_problems(draw):
    """(bilevel graph, resolvents, levels, rng): 2 or 3 levels of 3 or 4
    nodes, labelled level by level, each level's resolvents alternating
    hinge and quadratic, so that every level holds a hinge and hinge labels
    interleave with the others'.  State edges join consecutive levels only:
    a level's first node feeds every node of the next, which keeps the graph
    connected, and every node feeds one of the next, so each node lies on
    the level it was drawn on.  The base is the state graph or a spanning
    tree of it."""
    sizes = draw(st.lists(st.integers(3, 4), min_size=2, max_size=3))
    starts = np.cumsum([0, *sizes]).tolist()
    levels = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    edges = set()
    for above, below in zip(levels, levels[1:]):
        edges |= {(above[0], j) for j in below}  # connects the levels
        edges |= {(i, draw(st.sampled_from(below))) for i in above}  # no node drops a level
        edges |= set(draw(st.lists(st.tuples(st.sampled_from(above), st.sampled_from(below)),
                                   max_size=4)))
    n, edges = starts[-1], sorted(edges)
    base = edges
    if draw(st.booleans()):  # a spanning tree, greedy over the edges in a drawn order
        comp, base = list(range(n)), []
        for i, j in draw(st.permutations(edges)):
            if comp[i] != comp[j]:
                old = comp[j]
                comp = [comp[i] if c == old else c for c in comp]
                base.append((i, j))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hinge_first = draw(st.booleans())
    ops = []
    for level in levels:
        for pos, _ in enumerate(level):
            if pos % 2 == hinge_first:
                a = rng.standard_normal((dim, dim))
                ops.append(prox_quadratic(a @ a.T, rng.uniform(0.1, 2.0)))
            else:
                ops.append(prox_hinge_affine(rng.standard_normal(dim), rng.uniform(-1.0, 1.0)))
    bg = BilevelGraph(OrderedDigraph(n, edges), OrderedDigraph(n, base))
    return bg, ops, levels, rng


@PROPERTY
@given(interleaved_problems())
def test_dual_term_rows_are_in_level_order_with_hinges_adjacent(problem):
    bg, ops, levels, _ = problem
    hinge = [op.name == "hinge" for op in ops]
    order = [i for nodes in levels for kind in (False, True) for i in nodes if hinge[i] == kind]
    degrees = bg.state.degrees()
    for z in (spectral_decomposition(bg.base), None):
        plan = StepPlan(bg, ops, z)
        assert plan.levels == levels and plan.order == order
        assert plan.z_rows.shape == plan.z.shape
        assert np.array_equal(plan.z_rows.product(np.eye(plan.z.shape[1]), np.empty(plan.z.shape)),
                              plan.z[order])
        assert np.array_equal(plan.inv_d, np.repeat(1.0 / degrees[order, None], plan.dim, axis=1))
        for (singles, batch), nodes in zip(plan.schedule, levels):
            assert [i for _, _, i, _, _ in singles] == [i for i in nodes if not hinge[i]]
            assert all(order[t] == i for _, _, i, _, t in singles)
            rows, terms = batch[0].tolist(), batch[4]
            assert rows == [i for i in nodes if hinge[i]] and order[terms] == rows
            assert terms.step is None


@PROPERTY
@given(interleaved_problems(), st.sampled_from([1.0, 0.7, 1.6]))
def test_interleaved_hinge_levels_equal_per_node_sweep_bitwise(problem, theta):
    bg, ops, _, rng = problem
    n, dim = bg.n_nodes, ops[0].dim
    forms = [spectral_decomposition(bg.base), None]
    if bg.base.is_tree():
        forms.append(incidence_decomposition(bg.base))
    for z in forms:
        plan = StepPlan(bg, ops, z)
        z_ref, to_duals = (np.eye(n), laplacian(bg.base)) if z is None else (z, z.T)
        sigma = rng.uniform(0.3, 3.0)
        w = with_signed_zeros(rng, rng.standard_normal((z_ref.shape[1], dim)))
        for k in range(SWEEPS):
            x, w_new, update = step_general(plan, sigma, theta, w, k)
            x_ref = reference_sweep(bg, z_ref, ops, sigma, w)
            assert same_bits(x, x_ref)
            assert same_bits(update, loop_gather(to_duals, x_ref))
            assert same_bits(w_new, w - theta * update)
            w = with_signed_zeros(rng, w_new)


@PROPERTY
@given(mixed_problems(tree=True))
def test_step_tree_equals_per_node_sweep_bitwise(problem):
    bg, ops, rng = problem
    z = incidence_decomposition(bg.base)
    w = with_signed_zeros(rng, rng.standard_normal((bg.n_nodes - 1, ops[0].dim)))
    for k in range(SWEEPS):
        x, w_new = step_tree(bg, ops, 1.0, 1.3, w, k)
        x_ref = reference_sweep(bg, z, ops, 1.0, w)
        assert same_bits(x, x_ref)
        assert same_bits(w_new, w - 1.3 * loop_gather(z.T, x_ref))
        w = with_signed_zeros(rng, w_new)


@PROPERTY
@given(mixed_problems())
def test_step_wtilde_equals_per_node_sweep_bitwise(problem):
    bg, ops, rng = problem
    n, dim = bg.n_nodes, ops[0].dim
    wt = rng.standard_normal((n, dim))
    wt -= wt.mean(axis=0)
    # whole columns of signed zeros keep the zero sum exact
    wt[:, rng.random(dim) < 0.3] = rng.choice([0.0, -0.0], size=n)[:, None]
    plan = StepPlan(bg, ops)
    for k in range(SWEEPS):
        x, wt_new, _ = step_general(plan, 0.8, 1.1, wt, k)
        x_ref = reference_sweep(bg, np.eye(n), ops, 0.8, wt)
        assert same_bits(x, x_ref)
        assert same_bits(wt_new, wt - 1.1 * loop_gather(laplacian(bg.base), x_ref))
        wt = wt_new


@PROPERTY
@given(st.data(), st.sampled_from(["tree", "general"]), st.booleans(), st.booleans())
def test_stacked_turns_equal_agent_turns_bitwise(data, protocol, schedule, perturb):
    bg, ops, rng = data.draw(mixed_problems(tree=protocol == "tree" or None, two_hinges=True))
    theta = (lambda k: 1.0 + 0.5 * np.sin(k)) if schedule else rng.uniform(0.2, 1.8)
    cfg = SolverConfig(sigma=rng.uniform(0.3, 3.0), theta=theta)
    assert StepPlan(bg, ops).schedule[-1][1] is not None  # the last level stacks hinges
    new, old = simulated_and_reference(bg, ops, cfg, protocol, SWEEPS, 0.25 * perturb)
    assert new[0] == old[0]
    # the last round's duals, which the general protocol never sends
    assert identical_bits(new[1], old[1])


@PROPERTY
@given(bilevel_graphs())
def test_sigma_matrix_equals_entry_loop_bitwise(bg):
    for g in (bg.state, bg.base):
        assert identical_bits(sigma_matrix(g), loop_sigma_matrix(g))


@PROPERTY
@given(
    st.integers(1, 10), st.integers(1, 12), st.integers(1, 4),
    st.integers(0, 2**32 - 1), st.booleans(),
)
def test_gather_equals_per_row_loop(n_rows, n_cols, dim, seed, non_finite):
    # the sweep's _Csr products must sum each row from zero in ascending
    # column order, as node_dual_term and scipy's CSR product do;
    # bit-identity rests on it
    rng = np.random.default_rng(seed)
    coef = rng.choice([1.0, -1.0, 0.5, rng.standard_normal()], size=(n_rows, n_cols))
    m = np.where(rng.random((n_rows, n_cols)) < rng.uniform(0.1, 1.0), coef, 0.0)
    if rng.random() < 0.3:  # a lone row with every column set
        m[rng.integers(n_rows)] = coef[0]
    src = with_signed_zeros(rng, rng.standard_normal((n_cols, dim)))
    if non_finite:
        src[rng.integers(n_cols), rng.integers(dim)] = rng.choice([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        got = _Csr.dense(m).product(src, np.empty((n_rows, dim)))
        assert same_bits(got, loop_gather(m, src))
        assert same_bits(got, sparse.csr_matrix(m) @ src)


def test_gather_sums_a_lone_long_row_in_order():
    # one row with many nonzeros and dim 1 (a single-vector product): it must
    # be summed from zero in column order, not pairwise
    rng = np.random.default_rng(5)
    m = np.zeros((3, 12))
    m[1] = rng.standard_normal(12)
    m[0, 3] = -1.0
    src = rng.standard_normal((12, 1)) * 10.0 ** rng.integers(-8, 9, (12, 1))
    got = _Csr.dense(m).product(src, np.empty((3, 1)))
    assert same_bits(got, loop_gather(m, src))
    assert same_bits(got, sparse.csr_matrix(m) @ src)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_csr_triples_sum_each_row_in_given_order(n_rows, n_cols, dim, seed):
    # the simulator's maps list each row's terms in the centralized sum
    # order, which need not be by column; rows may interleave and repeat a column
    rng = np.random.default_rng(seed)
    n = rng.integers(0, 3 * n_rows * n_cols)
    rows, cols = rng.integers(n_rows, size=n), rng.integers(n_cols, size=n)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    src = rng.standard_normal((n_cols, dim)) * 10.0 ** rng.integers(-8, 9, (n_cols, 1))
    want = np.zeros((n_rows, dim))
    for r, c, v in zip(rows, cols, vals):
        want[r] = want[r] + v * src[c]
    got = _Csr((n_rows, n_cols), rows, cols, vals).product(src, np.full((n_rows, dim), np.nan))
    assert identical_bits(got, want)


def test_csr_triples_are_not_summed_by_column():
    src = np.array([[1.0], [1e16], [-1e16]])
    in_order = _Csr((1, 3), [0, 0, 0], [1, 2, 0], [1.0, 1.0, 1.0])
    assert in_order.product(src, np.empty((1, 1)))[0, 0] == 1.0
    assert _Csr.dense(np.ones((1, 3))).product(src, np.empty((1, 1)))[0, 0] == 0.0


def test_csr_product_rejects_what_its_kernel_cannot_check():
    m = _Csr.dense(np.arange(6.0).reshape(2, 3))
    src, out = np.ones((3, 2)), np.zeros((2, 2))
    bad = [
        (np.ones((4, 2)), out), (np.ones(3), out), (np.ones((3, 2, 1)), out),  # src shape
        (src, np.empty((2, 3))), (src, np.empty((3, 2))), (src, np.empty(4)),  # out shape
        (src.astype(np.float32), out), (src.astype(int), out),  # src dtype
        (src, out.astype(np.float32)),  # out dtype
        (src, np.empty((2, 4))[:, ::2]), (src, np.empty((2, 2), order="F")),  # out layout
    ]
    for a, b in bad:
        with pytest.raises(ValueError):
            m.product(a, b)
    for col in (-1, 3):
        with pytest.raises(ValueError, match="outside the 2x3 matrix"):
            _Csr((2, 3), [0], [col], [1.0])


def test_csr_product_reads_a_strided_src_as_its_copy():
    rng = np.random.default_rng(3)
    m = _Csr.dense(rng.standard_normal((4, 5)) * (rng.random((4, 5)) < 0.6))
    wide = rng.standard_normal((10, 6))
    for src in (wide[::2, 1::2], np.asfortranarray(wide[:5, :3]), wide[4::-1, :3]):
        got = m.product(src, np.empty((4, 3)))
        assert identical_bits(got, m.product(src.copy(), np.empty((4, 3))))


# ---------------------------------------------------------------------------
# run diagnostics against full subgradients, and the paper's run invariants

FORMS = ["incidence", "spectral", "node_local"]


def square_mean(xbar):
    return float(xbar @ xbar)


def solve_form(bg, ops, cfg, form, rng):
    """run (Z by incidence or spectral factorization, any n x (n-1) matrix,
    or None for node-local duals) from a random start; returns (state,
    traces, z or None, start)."""
    n, dim = bg.n_nodes, ops[0].dim
    if form == "any_z":
        z = rng.standard_normal((n, n - 1))
        w0 = rng.standard_normal((n - 1, dim))
        return (*run(bg, z, ops, cfg, w0, square_mean), z, w0)
    if form == "node_local":
        wt0 = rng.standard_normal((n, dim))
        wt0 -= wt0.mean(axis=0)
        return (*run(bg, None, ops, cfg, wt0, square_mean), None, wt0)
    if form == "incidence" and not bg.base.is_tree():
        form = "spectral"
    z = (incidence_decomposition if form == "incidence"
         else spectral_decomposition)(bg.base)
    w0 = rng.standard_normal((n - 1, dim))
    return (*run(bg, z, ops, cfg, w0, square_mean), z, w0)


def reference_run(bg, ops, cfg, z, w):
    """The run loop sweep by sweep with the full subgradients of every sweep;
    returns (x, w, a, rows), a row being (residual^2, variance, objective,
    ||sum_i a_i||, rounding floor of that sum, ||x||^2)."""
    n = bg.n_nodes
    lap = laplacian(bg.base)
    m = lap + sigma_matrix(bg.base) + p_matrix(bg)
    plan = StepPlan(bg, ops, z)
    rows = []
    for k in range(cfg.max_iter):
        theta = cfg.theta_at(k)
        x, w_new, update = step_general(plan, cfg.sigma, theta, w, k)
        if z is None:  # the update is L x: residual <x, L x>
            residual_sq, zw = float(np.sum(x * update)), w
        else:
            residual_sq, zw = float(np.sum(update**2)), z @ w
        a = compute_subgradients(bg, np.eye(n) if z is None else z, cfg.sigma, w, x)
        floor = 1e-12 * (np.linalg.norm(zw) + np.linalg.norm(m @ x)) / cfg.sigma
        rows.append((residual_sq, state_variance(x), square_mean(x.mean(axis=0)),
                     float(np.linalg.norm(a.sum(axis=0))), floor, float(np.sum(x**2))))
        w = w_new
    return x, w, a, rows


def relaxed_config(rng, sweeps):
    return SolverConfig(sigma=rng.uniform(0.3, 3.0), theta=rng.uniform(0.1, 1.9),
                        max_iter=sweeps)


@PROPERTY
@given(mixed_problems(), st.sampled_from(FORMS + ["any_z"]))
def test_subgradient_sum_matches_full_subgradients(problem, form):
    # any Z: the sum's formula holds for every matrix, not only where 1^T Z = 0
    bg, ops, rng = problem
    cfg = relaxed_config(rng, SWEEPS)
    state, traces, z, w0 = solve_form(bg, ops, cfg, form, rng)
    x, w, a, rows = reference_run(bg, ops, cfg, z, w0)
    assert state.k == len(traces) == SWEEPS
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.w, w)
    assert np.array_equal(state.a, a)
    for k, (rec, (residual_sq, variance, objective, sum_norm, floor, _)) in enumerate(
        zip(traces, rows)
    ):
        assert (rec.k, rec.residual_sq, rec.variance, rec.objective) == (
            k, residual_sq, variance, objective)
        # balanced graphs sum the subgradients to rounding noise
        assert abs(rec.subgrad_sum_norm - sum_norm) <= max(1e-12 * sum_norm, floor)


CHAIN_SWEEPS = 12


@PROPERTY
@given(mixed_problems(), st.sampled_from(FORMS))
def test_subgradient_variance_residual_chain(problem, form):
    # sigma^2/n^2 ||sum_i a_i||^2 <= u^2 var <= u^2/(n lambda_1) ||Z^T x||^2,
    # u the state graph's unbalance and lambda_1 the base's connectivity
    # the middle bound is tight for complete bases, and variance and residual
    # both cancel to rounding noise of the order of eps ||x||^2
    bg, ops, rng = problem
    n = bg.n_nodes
    cfg = relaxed_config(rng, CHAIN_SWEEPS)
    _, traces, z, w0 = solve_form(bg, ops, cfg, form, rng)
    rows = reference_run(bg, ops, cfg, z, w0)[3]
    u, lam1 = unbalance(bg.state), algebraic_connectivity(bg.base)
    for rec, (*_, sum_norm, floor, x_sq) in zip(traces, rows):
        left = (cfg.sigma / n) ** 2 * rec.subgrad_sum_norm**2
        mid = u**2 * rec.variance
        right = u**2 / (n * lam1) * rec.residual_sq
        noise = 1e-12 * u**2 * x_sq
        sum_noise = (cfg.sigma / n) ** 2 * (2.0 * sum_norm + floor) * floor
        assert left <= mid + noise + sum_noise
        assert mid <= right + 2.0 * noise


KM_SWEEPS = 30


@PROPERTY
@given(mixed_problems(), st.sampled_from(FORMS))
def test_residual_never_rises_at_constant_theta(problem, form):
    # Krasnosel'skii-Mann: ||w_{k+1} - w_k|| = theta ||Z^T x_k|| is
    # nonincreasing for a constant theta in (0, 2)
    bg, ops, rng = problem
    cfg = relaxed_config(rng, KM_SWEEPS)
    _, traces, _, _ = solve_form(bg, ops, cfg, form, rng)
    residuals = [rec.residual_sq for rec in traces]
    for before, after in zip(residuals, residuals[1:]):
        assert after <= before * (1.0 + 1e-9) + 1e-24


# ---------------------------------------------------------------------------
# the reduced map: firmly nonexpansive, and its estimates solve the inclusions

FIRM_PAIRS = 6


def plan_and_duals(bg, ops, form, rng):
    """The StepPlan of form and a draw of random duals for it, zero-sum for
    node-local duals, of a random scale so that hinges fall either side."""
    if form == "node_local":
        plan = StepPlan(bg, ops)
    else:
        if form == "incidence" and not bg.base.is_tree():
            form = "spectral"
        plan = StepPlan(bg, ops, (incidence_decomposition if form == "incidence"
                                  else spectral_decomposition)(bg.base))

    def draw():
        w = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal((plan.z.shape[1], plan.dim))
        return w - w.mean(axis=0) if form == "node_local" else w

    return plan, draw


@PROPERTY
@given(mixed_problems(max_nodes=6), st.sampled_from(FORMS))
def test_reduced_map_is_firmly_nonexpansive(problem, form):
    # T w = w - Z^T x(w), one step at theta = 1, satisfies
    # ||Tw - Tw'||^2 <= <Tw - Tw', w - w'>: in the Euclidean inner product
    # for the duals of a factorization Z, and in <a, L^+ b> (L the base
    # Laplacian) for node-local duals, which are Z w for a spectral Z
    bg, ops, rng = problem
    plan, draw = plan_and_duals(bg, ops, form, rng)
    sigma = rng.uniform(0.3, 3.0)
    node_local = form == "node_local"
    metric = np.linalg.pinv(laplacian(bg.base)) if node_local else np.eye(len(plan.z.T))
    for _ in range(FIRM_PAIRS):
        w = draw()
        w_other = w + 0.1 * draw() if rng.random() < 0.3 else draw()
        dt = step_general(plan, sigma, 1.0, w)[1] - step_general(plan, sigma, 1.0, w_other)[1]
        dw = w - w_other
        slack = np.sum(dt * (metric @ dt)) - np.sum(dt * (metric @ dw))
        assert slack <= 1e-10 * np.sum(dw * dw)


@PROPERTY
@given(mixed_problems(max_nodes=6), st.sampled_from(FORMS))
def test_sweep_estimates_solve_their_node_inclusions(problem, form):
    # the subgradients a = (Z w - M x) / sigma, M = L + Sigma + P, lie in
    # A_i x_i, so J_tau(x_i + tau a_i) = x_i at tau = sigma / d_i; a sweep
    # with every step scaled (A_i turned into a multiple of itself) keeps
    # the map firmly nonexpansive but fails this
    bg, ops, rng = problem
    plan, draw = plan_and_duals(bg, ops, form, rng)
    sigma = rng.uniform(0.3, 3.0)
    tau = sigma / bg.state.degrees()
    for _ in range(FIRM_PAIRS):
        w = draw()
        x = step_general(plan, sigma, 1.0, w)[0]
        a = compute_subgradients(bg, plan.z, sigma, w, x)
        for i, op in enumerate(ops):
            scale = max(1.0, np.abs(x[i]).max(), tau[i] * np.abs(a[i]).max())
            assert np.abs(op(tau[i], x[i] + tau[i] * a[i]) - x[i]).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the lifted iteration reduces to the sweep

LIFTED_STEPS = 50
LIFTED_TOL = 1e-9  # criterion 4's gate


@st.composite
def affine_problems(draw):
    """(bilevel graph, Z, affine terms (mu_i, c_i), rng) on n <= 6 nodes, Z
    the incidence factorization of a tree base or the spectral one of any."""
    factorization = draw(st.sampled_from(["incidence", "spectral"]))
    if factorization == "incidence":
        bg = draw(bilevel_graphs(tree=True, max_nodes=6))
        z = incidence_decomposition(bg.base)
    else:
        bg = draw(bilevel_graphs(max_nodes=6))
        z = spectral_decomposition(bg.base)
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = [(rng.uniform(0.5, 2.0), rng.standard_normal(dim)) for _ in range(bg.n_nodes)]
    return bg, z, terms, rng


@PROPERTY
@given(affine_problems())
def test_lifted_iteration_equals_reduced_sweep(problem):
    # the lifted resolvent on H^(2N-1), applied at (Z w, w) and reduced by
    # w = Z^T x + v, is the reduced map w -> w - Z^T x(w); relaxed lifted
    # steps from u = 0 reduce to the relaxed sweeps from w = 0
    bg, z, terms, rng = problem
    plan = StepPlan(bg, [prox_translated_quadratic(c, mu) for mu, c in terms], z)
    sigma, theta = rng.uniform(0.3, 3.0), rng.uniform(0.2, 1.8)
    for _ in range(SWEEPS):
        w = rng.standard_normal((bg.n_nodes - 1, plan.dim))
        reduced = lifted_resolvent_w(bg, z, terms, sigma, w)
        assert np.abs(reduced - step_general(plan, sigma, 1.0, w)[1]).max() < LIFTED_TOL
    u = np.zeros((2 * bg.n_nodes - 1, plan.dim))
    w = np.zeros((bg.n_nodes - 1, plan.dim))
    for k in range(LIFTED_STEPS):
        u = lifted_ppp_step(bg, z, terms, sigma, theta, u)
        _, w, _ = step_general(plan, sigma, theta, w, k)
        assert np.abs(lifted_reduce(z, u) - w).max() < LIFTED_TOL


# ---------------------------------------------------------------------------
# firm nonexpansiveness of the catalogue

GRID = 3  # the grid divergence acts on 2 * GRID^2 = 18 entries
DIM = 2 * GRID * GRID


def catalogue(rng):
    """One resolvent of each catalogue kind, all on DIM entries."""
    a = rng.standard_normal((DIM, DIM))
    lam = rng.standard_normal((3, DIM))
    div = loop_divergence_matrix(GRID)
    return {
        "affine": project_affine(lam, lam @ rng.standard_normal(DIM)),
        "hinge": prox_hinge_affine(rng.standard_normal(DIM), rng.uniform(-1.0, 1.0)),
        "quadratic": prox_quadratic(a @ a.T / DIM, rng.uniform(0.1, 2.0)),
        "power32": prox_power_three_halves(DIM),
        "group_l1": prox_group_l1(DIM),
        "capacity": project_capacity([0, 4, 5], [1, 8], rng.uniform(0.1, 1.0), DIM),
        "grid_divergence": project_grid_divergence(
            GRID, div @ rng.standard_normal(2 * GRID * GRID)
        ),
        "translated_quadratic": prox_translated_quadratic(rng.standard_normal(DIM), 1.5),
        "zero": zero_operator(DIM),
    }


def blocks_zeroed(rng, v):
    """v with a random subset of its 2-vector blocks set to exact zeros."""
    keep = np.repeat(rng.random(DIM // 2) < 0.5, 2)
    return np.where(keep, v, 0.0)


@PROPERTY
@given(
    st.sampled_from(["affine", "hinge", "quadratic", "power32", "group_l1", "capacity",
                     "grid_divergence", "translated_quadratic", "zero"]),
    st.sampled_from([0.0, 1e-3, 0.5, 1.0, 10.0]),
    st.integers(0, 2**32 - 1),
)
def test_catalogue_is_firmly_nonexpansive(name, tau, seed):
    rng = np.random.default_rng(seed)
    op = catalogue(rng)[name]
    for _ in range(20):
        x = blocks_zeroed(rng, 3.0 * rng.standard_normal(DIM))
        y = blocks_zeroed(rng, x if rng.random() < 0.3 else 3.0 * rng.standard_normal(DIM))
        jx, jy = op(tau, x), op(tau, y)
        lhs = float(np.sum((jx - jy) ** 2))
        rhs = float((jx - jy) @ (x - y))
        assert lhs <= rhs + 1e-9 * (1.0 + x @ x + y @ y)


# ---------------------------------------------------------------------------
# the out= contract of every resolvent

# each resolvent is called twice at its own dimension, so scratch that one
# call leaves behind must not leak into the results of the next


@PROPERTY
@given(st.sampled_from([0.0, 1e-3, 0.5, 10.0]), st.integers(0, 2**32 - 1))
def test_out_is_alias_safe_and_scratch_keeps_no_state_between_shapes(tau, seed):
    rng = np.random.default_rng(seed)
    cases = [(op, [(DIM,)] * 2) for op in catalogue(rng).values()]
    hinges = [prox_hinge_affine(rng.standard_normal(DIM), 1.0) for _ in range(5)]
    rows = [h.hinge for h in hinges]
    cases.append((stack_hinges(rows, rng.integers(1, 6, size=5)), [(5, DIM)] * 2))
    for op, shapes in cases:
        inputs = {s: with_signed_zeros(rng, 3.0 * rng.standard_normal(s)) for s in shapes}
        first = {}
        for shape in shapes:
            r = inputs[shape]
            kept = r.copy()
            fresh = op(tau, r)
            buf = np.full(shape, np.nan)
            alias = r.copy()
            assert op(tau, r, out=buf) is buf and op(tau, alias, out=alias) is alias
            assert same_bits(r, kept), op.name
            assert same_bits(buf, fresh) and same_bits(alias, fresh), op.name
            assert same_bits(first.setdefault(shape, fresh), fresh), op.name
