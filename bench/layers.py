"""Which graphdrs calls the traced run wraps, and the per-layer metrics.

Every function is wrapped under each name any graphdrs module binds it to
(``simulate`` and ``cli`` import solver and problem functions by name), so a
call is traced whichever module makes it.  Methods are wrapped on their
class.  Nothing under ``src/`` changes.
"""

import importlib

MODULES = (
    "graphdrs",
    "graphdrs.graphs",
    "graphdrs.factorization",
    "graphdrs.operators",
    "graphdrs.solver",
    "graphdrs.simulate",
    "graphdrs.problems",
    "graphdrs.cli",
)

# (module, function) -> span name
FUNCTIONS = {
    ("graphdrs.solver", "run"): "solver.run",
    ("graphdrs.solver", "step_general"): "solver.step",
    ("graphdrs.solver", "step_tree"): "solver.step",
    ("graphdrs.solver", "node_solution"): "solver.node_solution",
    ("graphdrs.problems", "build_transport"): "problems.build",
    ("graphdrs.problems", "build_svm"): "problems.build",
    ("graphdrs.problems", "objective_transport"): "problems.objective",
    ("graphdrs.problems", "objective_svm"): "problems.objective",
    ("graphdrs.factorization", "incidence_decomposition"): "factorization.decomposition",
    ("graphdrs.factorization", "spectral_decomposition"): "factorization.decomposition",
    ("graphdrs.factorization", "external_decomposition"): "factorization.decomposition",
    ("graphdrs.graphs", "enumerate_connected_digraphs"): "graphs.enumerate",
    ("graphdrs.cli", "main"): "cli.main",
}

RESOLVENT_PREFIX = "operators."
SIM_RUN = "simulate.run"
# spans the benchmark opens itself around each traced set-up and pass
SETUP_SPAN = "bench.setup"
PASS_SPAN = "bench.pass"

# Every per-layer metric with its unit; BENCHMARK.json lists the same names.
# A workload that never calls a layer reports 0 for that layer's metrics.
OPERATOR_NAMES = (
    "affine_projection",
    "power32",
    "group_l1",
    "capacity_projection",
    "hinge",
    "quadratic",
)
UNITS = {
    **{f"operators.{op}.us_per_call": "us" for op in OPERATOR_NAMES},
    "operators.calls_per_sweep": "count",
    "operators.share": "ratio",
    "solver.node_solution.self_us_per_sweep": "us",
    "solver.node_solution.calls_per_sweep": "count",
    "solver.step.self_us_per_sweep": "us",
    "solver.run.self_us_per_sweep": "us",
    "solver.iters_to_tol": "count",
    "simulate.run.self_us_per_round": "us",
    "simulate.messages_per_round": "count",
    "simulate.payload_bytes_per_round": "B",
    "simulate.log_mb": "MB",
    "problems.build_s": "s",
    "problems.objective_us_per_call": "us",
    "factorization.decomposition_ms": "ms",
    "graphs.enumerate_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _sim_counts(args, result):
    log = result.log
    return {
        "rounds": len(result.x_history),
        "messages": len(log),
        "payload_bytes": sum(msg.payload.nbytes for msg in log),
    }


def install(tracer):
    """Wrap every traced graphdrs call; undo with ``tracer.restore()``."""
    modules = [importlib.import_module(name) for name in MODULES]
    for (mod_name, attr), span in FUNCTIONS.items():
        original = getattr(importlib.import_module(mod_name), attr)
        wrapper = tracer.wrap(original, span)
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    tracer.patch(mod, alias, wrapper)
    operators = importlib.import_module("graphdrs.operators")
    simulate = importlib.import_module("graphdrs.simulate")
    tracer.patch(
        operators.Resolvent,
        "__call__",
        tracer.wrap(
            operators.Resolvent.__call__,
            lambda op, *_: RESOLVENT_PREFIX + op.name,
        ),
    )
    tracer.patch(
        simulate.NetworkSim,
        "run",
        tracer.wrap(simulate.NetworkSim.run, SIM_RUN, count=_sim_counts),
    )


def _per(num, den):
    return num / den if den else 0.0


def metrics(summary, counters, iters_to_tol, overhead_s, traced_solve_s):
    """Per-layer metrics from the spans of the traced passes and set-ups.

    summary maps span name to calls/total_s/self_s (see tracing.summarize);
    counters holds the simulator's message counts; traced_solve_s is the
    summed wall time of the traced solves.  A sweep is one solver step or
    one simulated round.
    """

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    sim = counters.get(SIM_RUN, {})
    rounds = sim.get("rounds", 0)
    sweeps = get("solver.step", "calls") + rounds
    op_names = [n for n in summary if n.startswith(RESOLVENT_PREFIX)]
    op_calls = sum(summary[n]["calls"] for n in op_names)
    op_time = sum(summary[n]["total_s"] for n in op_names)
    out = {
        f"operators.{op}.us_per_call": 1e6
        * _per(get(f"operators.{op}", "total_s"), get(f"operators.{op}", "calls"))
        for op in OPERATOR_NAMES
    }
    out.update({
        "operators.calls_per_sweep": _per(op_calls, sweeps),
        "operators.share": _per(op_time, traced_solve_s),
        "solver.node_solution.self_us_per_sweep": 1e6
        * _per(get("solver.node_solution", "self_s"), sweeps),
        "solver.node_solution.calls_per_sweep": _per(
            get("solver.node_solution", "calls"), sweeps
        ),
        "solver.step.self_us_per_sweep": 1e6
        * _per(get("solver.step", "self_s"), get("solver.step", "calls")),
        "solver.run.self_us_per_sweep": 1e6 * _per(get("solver.run", "self_s"), sweeps),
        "solver.iters_to_tol": iters_to_tol,
        "simulate.run.self_us_per_round": 1e6 * _per(get(SIM_RUN, "self_s"), rounds),
        "simulate.messages_per_round": _per(sim.get("messages", 0), rounds),
        "simulate.payload_bytes_per_round": _per(sim.get("payload_bytes", 0), rounds),
        "simulate.log_mb": _per(sim.get("payload_bytes", 0), get(SIM_RUN, "calls")) / 1e6,
        "problems.build_s": _per(get("problems.build", "total_s"), get("problems.build", "calls")),
        "problems.objective_us_per_call": 1e6
        * _per(get("problems.objective", "total_s"), get("problems.objective", "calls")),
        "factorization.decomposition_ms": 1e3
        * _per(
            get("factorization.decomposition", "total_s"),
            get("factorization.decomposition", "calls"),
        ),
        "graphs.enumerate_ms": 1e3
        * _per(get("graphs.enumerate", "total_s"), get("graphs.enumerate", "calls")),
        "cli.self_s": _per(get("cli.main", "self_s"), get("cli.main", "calls")),
        "trace.overhead_s": overhead_s,
    })
    return out
