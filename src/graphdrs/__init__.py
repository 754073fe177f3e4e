"""Graph-based Douglas-Rachford splitting for N-operator monotone inclusions."""

from .factorization import (
    FactorizationError,
    align,
    choose_decomposition,
    external_decomposition,
    incidence_decomposition,
    spectral_decomposition,
)
from .graphs import (
    BilevelGraph,
    GraphError,
    OrderedDigraph,
    algebraic_connectivity,
    enumerate_connected_digraphs,
    laplacian,
    read_bilevel_graph,
    unbalance,
)
from .operators import (
    OperatorError,
    Resolvent,
    project_affine,
    project_capacity,
    project_grid_divergence,
    prox_group_l1,
    prox_hinge_affine,
    prox_power_three_halves,
    prox_quadratic,
    prox_translated_quadratic,
    zero_operator,
)
from .problems import (
    SvmInstance,
    TransportInstance,
    build_svm,
    build_transport,
    objective_svm,
    objective_transport,
)
from .simulate import (
    NetworkSim,
    ProtocolError,
    run_general_protocol,
    run_tree_protocol,
)
from .solver import (
    NumericalError,
    SolverConfig,
    SolverState,
    StepPlan,
    TraceRecord,
    make_classical_drs,
    make_malitsky_tam,
    make_ryu,
    make_three_op_complete,
    run,
    state_variance,
    step_general,
    step_tree,
    tree_decomposition,
)

__version__ = "0.1.0"
