"""Command-line front end.

Subcommands: solve, enumerate, transport-sweep, svm, simulate.  Every output
is a CSV file whose comment header, written by one helper, records the seed,
the solver flags and the subcommand's own inputs, so repeated invocations are
byte-identical.  Exit codes: 0 success, 2 input error (every input error is a
ValueError, KeyError or OSError), 1 numerical failure.
"""

import argparse
import contextlib
import dataclasses
import os
import stat
import sys

import numpy as np

from .factorization import choose_decomposition
from .graphs import (
    BilevelGraph,
    GraphError,
    algebraic_connectivity,
    complete_digraph,
    enumerate_connected_digraphs,
    read_bilevel_graph,
)
from .operators import prox_translated_quadratic
from .problems import (
    build_svm,
    config_value,
    load_config,
    objective_svm,
    objective_transport,
    svm_from_config,
    transport_from_config,
)
from .simulate import NetworkSim, ProtocolError, write_message_log
from .solver import NumericalError, SolverConfig, run, step_general


class InputError(ValueError):
    """Bad command-line input or malformed file."""


def _parse_vectors(text):
    vecs = [
        np.array([float(v) for v in part.replace(",", " ").split()])
        for part in text.split(";")
        if part.strip()
    ]
    if not vecs:
        raise InputError("empty vector list")
    if len({v.size for v in vecs}) != 1:
        raise InputError("all vectors must share one dimension")
    return vecs


def _build_problem(cfg_path, graph_path, seed):
    """Return (ops, bilevel graph, objective callable), one operator per node.

    The graph is --graph's; only an SVM config builds its own when --graph
    is absent.
    """
    cfg = load_config(cfg_path)
    kind = cfg.get("problem", "quadratic")
    bg = read_bilevel_graph(graph_path) if graph_path else None
    if kind == "quadratic":
        if "centers" not in cfg:
            raise InputError(f"{cfg_path}: quadratic problem needs 'centers'")
        centers = config_value(cfg, "centers", None, _parse_vectors)
        mus = config_value(cfg, "mus", [1.0] * len(centers),
                           lambda text: [float(v) for v in text.replace(",", " ").split()])
        if len(mus) != len(centers):
            raise InputError(f"{cfg_path}: need one mu per center")
        ops = [prox_translated_quadratic(c, m) for c, m in zip(centers, mus)]

        def objective(xbar):
            return sum(
                0.5 * m * float(np.sum((xbar - c) ** 2))
                for c, m in zip(centers, mus)
            )
    elif kind == "transport":
        inst, ops = transport_from_config(cfg)
        objective = lambda xbar: objective_transport(inst, xbar)
    elif kind == "svm":
        if "seed" not in cfg:
            cfg = dict(cfg, seed=str(seed))
        inst, ops, built_bg = svm_from_config(cfg)
        bg = built_bg if bg is None else bg
        objective = lambda xbar: objective_svm(inst, xbar)
    else:
        raise InputError(f"{cfg_path}: unknown problem kind {kind!r}")
    if bg is None:
        raise InputError("this problem kind needs --graph")
    if len(ops) != bg.n_nodes:
        raise InputError(
            f"graph has {bg.n_nodes} nodes but the problem provides {len(ops)} "
            f"operators"
        )
    return ops, bg, objective


@contextlib.contextmanager
def _rewrite(path):
    """Open path for text writing from offset 0, without truncating first.

    Truncating a file that an earlier run has just written can wait on the
    writeback of that run's data; writing over it does not.  On leaving the
    block, normally or by an exception, a regular file is cut to the bytes
    written, so it holds exactly this run's output.  A process killed
    mid-write leaves this run's prefix followed by the old file's tail.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


SOLVER_FLAGS = ("sigma", "theta", "max_iter", "tol")


@contextlib.contextmanager
def _output(args, *extra):
    """Open --out through :func:`_rewrite` and write the '#' header lines:
    the seed, the solver flags the subcommand has, then extra."""
    lines = [f"seed = {args.seed}"]
    lines += [f"{name} = {getattr(args, name):.17g}"
              for name in SOLVER_FLAGS if hasattr(args, name)]
    with _rewrite(args.out) as fh:
        fh.writelines(f"# {line}\n" for line in [*lines, *extra])
        yield fh


def _row(*values):
    """A CSV line: floats to 17 significant digits, None empty, else str."""
    return ",".join(
        "" if v is None else format(v, ".17g") if isinstance(v, float) else str(v)
        for v in values
    ) + "\n"


def _solver_config(args, **overrides):
    """The SolverConfig of the solver flags the subcommand has, with
    overrides replacing flags."""
    flags = {name: getattr(args, name) for name in SOLVER_FLAGS if hasattr(args, name)}
    return SolverConfig(**(flags | overrides))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args):
    ops, bg, objective = _build_problem(args.config, args.graph, args.seed)
    cfg = _solver_config(args)
    _, traces = run(bg, choose_decomposition(bg.base), ops, cfg, objective=objective)
    with _output(args, f"config = {args.config}") as fh:
        fh.write("iter,residual_sq,variance,subgrad_sum_norm,objective\n")
        fh.writelines(_row(*dataclasses.astuple(r)) for r in traces)
    return 0


def cmd_enumerate(args):
    try:
        graphs = enumerate_connected_digraphs(args.n)
    except GraphError as exc:
        raise InputError(f"--n: {exc}") from exc
    with _output(args) as fh:
        fh.write("graph_id,edges,lambda1\n")
        for gid, g in enumerate(graphs, start=1):
            edges = ";".join(f"{i + 1}-{j + 1}" for i, j in g.edges)
            fh.write(_row(gid, edges, algebraic_connectivity(g)))
    return 0


def cmd_transport_sweep(args):
    spec = load_config(args.config) if args.config else {}
    spec.setdefault("p", args.p)
    spec.setdefault("cap", args.cap)
    inst, ops = transport_from_config(spec)
    graphs = enumerate_connected_digraphs(4)
    complete = complete_digraph(4)
    cfg = _solver_config(args)
    with _output(args, f"p = {inst.p}", f"cap = {inst.cap:.17g}") as fh:
        fh.write("graph_id,mode,lambda1,iter,variance\n")
        for gid, g in enumerate(graphs, start=1):
            lam1 = algebraic_connectivity(g)
            for mode, bg in (
                ("a", BilevelGraph(g, g)),
                ("b", BilevelGraph(complete, g)),
            ):
                _, traces = run(bg, choose_decomposition(bg.base), ops, cfg)
                fh.writelines(_row(gid, mode, lam1, r.k, r.variance) for r in traces)
    return 0


def cmd_svm(args):
    inst, ops, bg = build_svm(
        args.n,
        args.officials,
        args.per_official,
        gamma=args.gamma,
        kernel_width=args.kernel_width,
        seed=args.seed,
    )
    sigmas = np.logspace(-2, 1, 10)
    # checks every flag before --out is opened
    cfg = _solver_config(args, sigma=float(sigmas[0]))
    with _output(args, f"n = {args.n}", f"officials = {args.officials}",
                 f"gamma = {args.gamma:.17g}",
                 f"kernel_width = {args.kernel_width:.17g}") as fh:
        fh.write("sigma,iter,residual_sq,variance,objective\n")
        for sigma in sigmas:
            cfg = dataclasses.replace(cfg, sigma=float(sigma))
            _, traces = run(bg, choose_decomposition(bg.base), ops, cfg,
                            objective=lambda xbar: objective_svm(inst, xbar))
            fh.writelines(_row(sigma, r.k, r.residual_sq, r.variance, r.objective)
                          for r in traces)
    return 0


def cmd_simulate(args):
    """Step sim.plan in lockstep with the simulated rounds for the
    max_deviation report, then open --out and write the message log from
    the send table: nothing is kept per round, so memory does not grow with
    --rounds, and a round that fails leaves --out as it was."""
    if args.rounds < 1:
        raise InputError(f"--rounds must be >= 1, got {args.rounds}")
    ops, bg, _ = _build_problem(args.config, args.graph, args.seed)
    cfg = _solver_config(args, max_iter=args.rounds)
    sim = NetworkSim(bg, ops, cfg, protocol=args.protocol)
    w, max_dev = np.zeros((sim.plan.z.shape[1], sim.plan.dim)), 0.0
    # every round compared with a centralized step before --out is opened,
    # as the header holds the totals; only a round whose bits differ can
    # deviate, so only its deviation is measured
    for rnd, (x_sim, _) in enumerate(sim.rounds(args.rounds)):
        x, w, _ = step_general(sim.plan, cfg.sigma, cfg.theta_at(rnd), w, rnd)
        if x_sim.tobytes() != x.tobytes():
            max_dev = max(max_dev, float(np.abs(x_sim - x).max()))
    messages = sim.total_messages(args.rounds)
    header = [f"protocol = {args.protocol}", f"rounds = {args.rounds}",
              f"max_deviation = {max_dev:.17g}", f"total_messages = {messages}"]
    with _output(args, *header) as fh:
        write_message_log(sim, args.rounds, fh)
    print(f"protocol={args.protocol} rounds={args.rounds} "
          f"max_deviation={max_dev:.17g} messages={messages}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, sigma=1.0, stopping=True):
    """The solver flags (no --sigma when sigma is None), --seed and --out."""
    if sigma is not None:
        p.add_argument("--sigma", type=float, default=sigma, help="step size > 0")
    p.add_argument("--theta", type=float, default=1.0, help="relaxation in (0, 2)")
    if stopping:
        p.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
        p.add_argument("--tol", type=float, default=0.0,
                       help="stop when the squared residual drops below this; 0 = off")
    else:
        # not flags, but the CSV header has always recorded these defaults
        p.set_defaults(max_iter=1000, tol=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdrs",
        description="Graph-based Douglas-Rachford solver and experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solver on a graph + problem config")
    p.add_argument("--graph", help="bilevel graph file (STATE/BASE sections)")
    p.add_argument("--config", required=True, help="problem config (key = value)")
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("enumerate", help="census of connected ordered digraphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser(
        "transport-sweep",
        help="variance traces over all 4-node graphs on the transport problem",
    )
    p.add_argument("--p", type=int, default=35, help="grid side length")
    p.add_argument("--cap", type=float, default=5e-2, help="bridge capacity")
    p.add_argument("--config", help="transport config overriding --p/--cap")
    _add_common(p, sigma=2.0)
    p.set_defaults(fn=cmd_transport_sweep)

    p = sub.add_parser("svm", help="SVM step-size sweep (10 log-spaced sigmas)")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--officials", type=int, default=5)
    p.add_argument("--per-official", type=int, default=10, dest="per_official")
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--kernel-width", type=float, default=1.0, dest="kernel_width")
    _add_common(p, sigma=None)  # the sweep sets sigma
    p.set_defaults(fn=cmd_svm)

    p = sub.add_parser("simulate", help="message-passing protocol simulation")
    p.add_argument("--graph", help="bilevel graph file")
    p.add_argument("--config", required=True, help="problem config")
    p.add_argument("--protocol", choices=("tree", "general"), default="tree")
    p.add_argument("--rounds", type=int, default=50,
                   help="sweeps to simulate (no --max-iter/--tol stopping)")
    _add_common(p, stopping=False)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; preserve that
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ProtocolError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
