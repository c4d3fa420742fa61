"""Equitable and distinct-sum group labelings of paths, cycles, and trees.

The package covers finite Abelian groups presented as direct products
of cyclic factors.  It verifies labelings (equitable class counts, and
injective labelings with pairwise distinct vertex sums), constructs
them by explicit routes, decides existence by closed formulas, and
cross-checks everything against exhaustive backtracking searches whose
results are deterministic at any level of parallelism.

``import cordant`` imports no submodule.  Each public name below loads
the submodule that defines it on first use (PEP 562), so a caller pays
only for the layers it runs: a decider never loads the search kernels,
and the R*-sequence and sigma-max searches (defined in ``_orderings``,
and exported by ``search`` too) never load the labeling searches.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public names by the submodule that defines them
_EXPORTS = {
    "_vocab": (
        "DEFAULT_BUDGET",
        "NOTION_A_ANTIMAGIC",
        "NOTION_A_CORDIAL",
        "NOTION_A_STAR_ANTIMAGIC",
        "NOTION_EA_CORDIAL",
        "NOTIONS",
        "STATUS_FOUND",
        "STATUS_NOT_EXISTS",
        "STATUS_UNKNOWN",
    ),
    "certificates": (
        "Certificate",
        "certificate_dumps",
        "certificate_loads",
        "certificate_from_obj",
        "certificate_to_obj",
        "load_demo_certificate",
        "make_edge_certificate",
        "make_vertex_certificate",
    ),
    "constructions": (
        "ConstructionResult",
        "STATUS_IMPOSSIBLE",
        "construct_ant_path",
        "construct_path_antimagic",
        "construct_path_ek",
        "cycle_to_path",
        "cycle_vertex_to_edge",
        "project_labeling",
    ),
    "deciders": (
        "decide_cycle_zk_cordial",
        "decide_path_a_antimagic",
        "decide_path_ek_cordial",
        "decide_tree_2mod4_obstruction",
        "sigma_max_formula",
    ),
    "errors": (
        "CapExceededError",
        "CordantError",
        "InapplicableGroupError",
        "InternalCheckError",
        "InvalidElementError",
        "InvalidGraphError",
        "InvalidLabelingError",
        "InvalidSpecError",
        "PreconditionError",
    ),
    "explore": ("ExploreReport", "ExploreRow", "explore_conjecture"),
    "graphs": (
        "CYCLE",
        "GENERAL",
        "PATH",
        "SimpleGraph",
        "TREE",
        "cycle_graph",
        "path_graph",
        "star_graph",
        "tree_graph",
    ),
    "groups": (
        "AntDecomposition",
        "Element",
        "GroupSpec",
        "TRIVIAL_GROUP",
        "abelian_groups_of_order",
        "add",
        "ant_decomposition",
        "canonicalize_spec",
        "element_at",
        "element_index",
        "enumerate_elements",
        "format_group",
        "group",
        "involution_count",
        "is_elementary_two",
        "isomorphism",
        "negate",
        "parse_group",
        "sum_elements",
        "sylow_split",
    ),
    "labelings": (
        "EdgeLabeling",
        "Verdict",
        "VertexLabeling",
        "class_counts",
        "induce_edge_labels",
        "induce_vertex_labels",
        "is_equitable",
        "verify_a_antimagic",
        "verify_a_cordial",
        "verify_a_star_antimagic",
        "verify_ea_cordial",
    ),
    "_orderings": (
        "HamiltonianCycle",
        "RStarSequence",
        "SigmaMaxResult",
        "compute_sigma_max",
        "search_rstar_sequence",
    ),
    "_runner": ("MAX_DEPTH", "SearchOutcome"),
    "search": (
        "search_a_antimagic",
        "search_a_cordial",
        "search_a_star_antimagic",
        "search_ea_cordial",
    ),
    "trees": ("TREE_ENUM_CAP", "canonical_form", "enumerate_trees"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = tuple(module for module in _EXPORTS if module[0] != "_")

__all__ = sorted([*_SUBMODULES, *_ORIGIN])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
