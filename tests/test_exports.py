"""The names graphdrs exports.  Removing one breaks callers: edit this pin
and record the removal in CHANGES.md."""

import inspect

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
