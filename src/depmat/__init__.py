"""Activity-graph toolkit: dependency matrices, critical paths, and
critical-first fault localization with a seeded fault-injection simulator."""

from .graph import (
    Activity,
    ActivityEdge,
    ActivityGraph,
    CyclicScheduleError,
    GraphBuildError,
    UnknownNodeError,
    ValidationIssue,
    ValidationReport,
    build_graph,
    scheduling_subgraph,
    validate,
)
from .matrices import (
    AdjacencyMatrix,
    AlreadyClosedError,
    CapacityError,
    CondensedGraph,
    DependencyMatrix,
    DimensionMismatchError,
    IncidenceMatrix,
    NotClosedError,
    adjacency_matrix,
    condense_sccs,
    dependency_matrix,
    incidence_matrix,
    transitive_closure,
)
from .schedule import (
    Classification,
    EmptyGraphError,
    Schedule,
    backward_pass,
    classify_activities,
    compute_schedule,
    forward_pass,
)
from .localization import (
    AnnotatedMatrix,
    Candidate,
    LocalizationReport,
    VIEW_ALL,
    VIEW_SCHEDULING,
    annotate_matrix,
    candidate_set,
    independent_faults,
    localize,
)
from .simulation import (
    ExperimentReport,
    FaultScenario,
    GeneratorParams,
    InvalidParamsError,
    TrialMetrics,
    TrialRow,
    generate_graph,
    inject,
    run_experiment,
    run_trial,
)
from .fileio import (
    ParseError,
    SchemaError,
    export_dot,
    matrix_csv,
    matrix_text,
    parse_graph,
    serialize_graph,
)

__version__ = "0.1.0"
