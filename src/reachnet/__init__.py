"""Transposition reachability networks: construction, verification, search."""

from .analyze import (
    DeficitReport,
    EdgeColoring,
    EdgeRecord,
    OccurrenceClasses,
    VertexDeficit,
    color_edges,
    deficit_report,
    star_occurrence_classes,
)
from .constructors import (
    BipartiteSupport,
    RandomConstruction,
    RandomConstructionParams,
    check_expansion,
    default_epsilon,
    iroot,
    lazy_to_star,
    network_to_star,
    one_reach,
    phase_count,
    sample_support,
    t_reach_random_full,
    two_reach,
    two_reach_length,
    two_reach_star,
    two_reach_star_length,
    two_unif_star,
    waksman_length,
    waksman_permutation_network,
)
from .core import (
    CounterTuple,
    Distribution,
    LazyNetwork,
    LazyTransposition,
    Network,
    Transposition,
    TupleSet,
    parse_network,
    rational,
    render_network,
    start_tuple,
)
from .errors import (
    BudgetExceededError,
    CapExhaustedError,
    ParseError,
    RetriesExceededError,
)
from .search import (
    SearchResult,
    SearchSpec,
    exists_network,
    min_length,
)
from .verify import (
    DEFAULT_BUDGET,
    ReachVerdict,
    UniformityVerdict,
    reach_set,
    tuple_distribution,
    verify_reachability,
    verify_uniformity,
)

__version__ = "0.1.0"
