"""The names graphdrs exports.  Removing one breaks callers: edit this pin
and record the removal in CHANGES.md.  Each export's scalar arguments are
probed with malformed values, or the export is listed as unchecked."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdrs

EXPORTS = {
    # factorization
    "FactorizationError", "align", "choose_decomposition",
    "external_decomposition", "incidence_decomposition", "spectral_decomposition",
    # graphs
    "BilevelGraph", "GraphError", "OrderedDigraph", "algebraic_connectivity",
    "enumerate_connected_digraphs", "laplacian", "read_bilevel_graph", "unbalance",
    # operators
    "OperatorError", "Resolvent", "project_affine", "project_capacity",
    "project_grid_divergence", "prox_group_l1", "prox_hinge_affine",
    "prox_power_three_halves", "prox_quadratic", "prox_translated_quadratic",
    "zero_operator",
    # problems
    "SvmInstance", "TransportInstance", "build_svm", "build_transport",
    "objective_svm", "objective_transport",
    # simulate
    "NetworkSim", "ProtocolError", "run_general_protocol", "run_tree_protocol",
    # solver
    "NumericalError", "SolverConfig", "SolverState", "StepPlan", "TraceRecord",
    "make_classical_drs", "make_malitsky_tam", "make_ryu", "make_three_op_complete",
    "run", "state_variance", "step_general", "step_tree",
    "tree_decomposition",
}


def test_exported_names_are_pinned():
    names = {
        name for name, value in vars(graphdrs).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == EXPORTS


# ---------------------------------------------------------------------------
# the scalar arguments of the exported constructors and entry points

BAD = [math.nan, math.inf, -math.inf, -1, 0, 2.5, True, "1", None]
K, LAM = np.eye(2), np.array([[1.0, 1.0]])


def _sim_args():
    bg = graphdrs.make_malitsky_tam(3)
    ops = [graphdrs.prox_translated_quadratic([0.0, 1.0]) for _ in range(3)]
    return bg, ops, graphdrs.SolverConfig(sigma=1.0, max_iter=2)


def _step_general(sigma, theta):
    bg, ops, _ = _sim_args()
    return graphdrs.step_general(graphdrs.StepPlan(bg, ops), sigma, theta, np.zeros((3, 2)))


def _step_tree(sigma, theta):
    bg, ops, _ = _sim_args()
    return graphdrs.step_tree(bg, ops, sigma, theta, np.zeros((2, 2)))


# export: (a call taking the scalar arguments by name, {argument: (a valid
# value, the word a message that names the argument uses)})
SCALARS = {
    "OrderedDigraph": (lambda n_nodes: graphdrs.OrderedDigraph(n_nodes, [(0, 1)]),
                       {"n_nodes": (2, "node")}),
    "enumerate_connected_digraphs": (graphdrs.enumerate_connected_digraphs, {"n": (3, "n")}),
    "Resolvent": (lambda dim, rows: graphdrs.Resolvent(dim, None, rows=rows),
                  {"dim": (2, "dimension"), "rows": (3, "rows")}),
    "prox_quadratic": (lambda weight: graphdrs.prox_quadratic(K, weight),
                       {"weight": (0.5, "weight")}),
    "prox_hinge_affine": (lambda offset: graphdrs.prox_hinge_affine([1.0, 0.0], offset),
                          {"offset": (1.0, "offset")}),
    "prox_power_three_halves": (graphdrs.prox_power_three_halves, {"dim": (4, "dimension")}),
    "prox_group_l1": (graphdrs.prox_group_l1, {"dim": (4, "dimension")}),
    "project_affine": (lambda range_tol: graphdrs.project_affine(LAM, [0.0], range_tol),
                       {"range_tol": (1e-6, "range_tol")}),
    "project_grid_divergence": (lambda p: graphdrs.project_grid_divergence(p, np.zeros(9)),
                                {"p": (3, "p")}),
    "project_capacity": (lambda cap, dim: graphdrs.project_capacity([0], [1], cap, dim),
                         {"cap": (0.5, "capacity"), "dim": (4, "dimension")}),
    "prox_translated_quadratic": (lambda mu: graphdrs.prox_translated_quadratic([0.0], mu),
                                  {"mu": (1.5, "mu")}),
    "zero_operator": (graphdrs.zero_operator, {"dim": (2, "dimension")}),
    "build_svm": (graphdrs.build_svm, {
        "n": (6, "n"), "officials": (3, "officials"), "per_official": (2, "per_official"),
        "gamma": (0.1, "gamma"), "kernel_width": (1.0, "kernel width"), "seed": (3, "seed")}),
    "build_transport": (graphdrs.build_transport, {"p": (5, "p"), "cap": (0.05, "capacity")}),
    "SolverConfig": (graphdrs.SolverConfig, {
        "sigma": (1.0, "sigma"), "theta": (1.5, "theta"), "max_iter": (5, "max_iter"),
        "tol": (1e-9, "tol")}),
    "step_general": (_step_general, {"sigma": (1.0, "sigma"), "theta": (1.5, "theta")}),
    "step_tree": (_step_tree, {"sigma": (1.0, "sigma"), "theta": (1.5, "theta")}),
    "make_ryu": (graphdrs.make_ryu, {"n": (4, "n")}),
    "make_malitsky_tam": (graphdrs.make_malitsky_tam, {"n": (4, "n")}),
    "align": (lambda tol: graphdrs.align(K, K, tol), {"tol": (1e-8, "tol")}),
    "NetworkSim": (lambda protocol: graphdrs.NetworkSim(*_sim_args(), protocol),
                   {"protocol": ("general", "protocol")}),
    "run_tree_protocol": (lambda rounds: graphdrs.run_tree_protocol(*_sim_args(), rounds),
                          {"rounds": (2, "rounds")}),
    "run_general_protocol": (lambda rounds: graphdrs.run_general_protocol(*_sim_args(), rounds),
                             {"rounds": (2, "rounds")}),
}
UNCHECKED = {
    # no scalar argument (read_bilevel_graph's path is opened as given)
    "FactorizationError", "GraphError", "NumericalError", "OperatorError", "ProtocolError",
    "BilevelGraph", "StepPlan", "algebraic_connectivity", "choose_decomposition",
    "external_decomposition", "incidence_decomposition", "laplacian", "make_classical_drs",
    "make_three_op_complete", "objective_svm", "objective_transport", "read_bilevel_graph",
    "run", "spectral_decomposition", "state_variance", "tree_decomposition", "unbalance",
    # records the builders and the run loop fill, not checked
    "SolverState", "SvmInstance", "TraceRecord", "TransportInstance",
}


def test_every_export_is_probed_or_listed_as_unchecked():
    assert set(SCALARS) | UNCHECKED == EXPORTS and not set(SCALARS) & UNCHECKED


@pytest.mark.parametrize("export", sorted(SCALARS))
@settings.get_profile("derandomized")
@given(data=st.data())
def test_scalar_arguments_are_taken_or_rejected_by_name(export, data):
    call, args = SCALARS[export]
    drawn = {name: data.draw(st.sampled_from([valid, *BAD]), label=name)
             for name, (valid, _) in args.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**drawn)
        except ValueError as exc:
            named = [name for name, (valid, word) in args.items()
                     if drawn[name] is not valid and re.search(rf"\b{word}\b", str(exc))]
            assert named, f"{exc!r} names none of the drawn arguments"
