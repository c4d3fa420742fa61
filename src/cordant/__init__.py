"""Equitable and distinct-sum group labelings of paths, cycles, and trees.

The package covers finite Abelian groups presented as direct products
of cyclic factors.  It verifies labelings (equitable class counts, and
injective labelings with pairwise distinct vertex sums), constructs
them by explicit routes, decides existence by closed formulas, and
cross-checks everything against exhaustive backtracking searches whose
results are deterministic at any level of parallelism.
"""

from .certificates import (
    Certificate,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    NOTIONS,
    certificate_dumps,
    certificate_loads,
    certificate_from_obj,
    certificate_to_obj,
    load_demo_certificate,
    make_edge_certificate,
    make_vertex_certificate,
)
from .constructions import (
    AntLayout,
    ConstructionResult,
    STATUS_IMPOSSIBLE,
    ant_layout,
    construct_ant_path,
    construct_path_antimagic,
    construct_path_ek,
    cycle_to_path,
    cycle_vertex_to_edge,
    decide_cycle_zk_cordial,
    decide_path_a_antimagic,
    decide_path_ek_cordial,
    decide_tree_2mod4_obstruction,
    project_labeling,
    rotate_to_star,
    rstar_to_path_antimagic,
    shift_labeling,
    sigma_max_formula,
)
from .errors import (
    CapExceededError,
    CordantError,
    InapplicableGroupError,
    InternalCheckError,
    InvalidElementError,
    InvalidGraphError,
    InvalidLabelingError,
    InvalidSpecError,
    PreconditionError,
)
from .explore import ExploreReport, ExploreRow, explore_conjecture
from .graphs import (
    CYCLE,
    GENERAL,
    PATH,
    SimpleGraph,
    TREE,
    cycle_graph,
    path_graph,
    star_graph,
    tree_graph,
)
from .groups import (
    AntDecomposition,
    Element,
    GroupSpec,
    TRIVIAL_GROUP,
    abelian_groups_of_order,
    add,
    ant_decomposition,
    canonicalize_spec,
    element_at,
    element_index,
    enumerate_elements,
    format_group,
    group,
    involution_count,
    is_elementary_two,
    isomorphism,
    negate,
    parse_group,
    sum_elements,
    sylow_split,
)
from .labelings import (
    EdgeLabeling,
    Verdict,
    VertexLabeling,
    class_counts,
    induce_edge_labels,
    induce_vertex_labels,
    is_equitable,
    verify_a_antimagic,
    verify_a_cordial,
    verify_a_star_antimagic,
    verify_ea_cordial,
)
from .search import (
    DEFAULT_BUDGET,
    HamiltonianCycle,
    MAX_DEPTH,
    RStarSequence,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    SearchOutcome,
    SigmaMaxResult,
    compute_sigma_max,
    search_a_antimagic,
    search_a_cordial,
    search_a_star_antimagic,
    search_ea_cordial,
    search_rstar_sequence,
)
from .trees import TREE_ENUM_CAP, canonical_form, enumerate_trees

__version__ = "0.1.0"
