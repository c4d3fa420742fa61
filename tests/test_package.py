"""The package's public surface: every name, loaded on first use."""

import importlib

import pytest

import cordant

# the public names of the package, by the submodule each was first
# exported from; the submodules are public names too
PUBLIC = {
    "certificates": (
        "Certificate", "NOTION_A_ANTIMAGIC", "NOTION_A_CORDIAL",
        "NOTION_A_STAR_ANTIMAGIC", "NOTION_EA_CORDIAL", "NOTIONS",
        "certificate_dumps", "certificate_loads", "certificate_from_obj",
        "certificate_to_obj", "load_demo_certificate",
        "make_edge_certificate", "make_vertex_certificate",
    ),
    "constructions": (
        "AntLayout", "ConstructionResult", "STATUS_IMPOSSIBLE", "ant_layout",
        "construct_ant_path", "construct_path_antimagic", "construct_path_ek",
        "cycle_to_path", "cycle_vertex_to_edge", "decide_cycle_zk_cordial",
        "decide_path_a_antimagic", "decide_path_ek_cordial",
        "decide_tree_2mod4_obstruction", "project_labeling", "rotate_to_star",
        "rstar_to_path_antimagic", "shift_labeling", "sigma_max_formula",
    ),
    "errors": (
        "CapExceededError", "CordantError", "InapplicableGroupError",
        "InternalCheckError", "InvalidElementError", "InvalidGraphError",
        "InvalidLabelingError", "InvalidSpecError", "PreconditionError",
    ),
    "explore": ("ExploreReport", "ExploreRow", "explore_conjecture"),
    "graphs": (
        "CYCLE", "GENERAL", "PATH", "SimpleGraph", "TREE", "cycle_graph",
        "path_graph", "star_graph", "tree_graph",
    ),
    "groups": (
        "AntDecomposition", "Element", "GroupSpec", "TRIVIAL_GROUP",
        "abelian_groups_of_order", "add", "ant_decomposition",
        "canonicalize_spec", "element_at", "element_index",
        "enumerate_elements", "format_group", "group", "involution_count",
        "is_elementary_two", "isomorphism", "negate", "parse_group",
        "sum_elements", "sylow_split",
    ),
    "labelings": (
        "EdgeLabeling", "Verdict", "VertexLabeling", "class_counts",
        "induce_edge_labels", "induce_vertex_labels", "is_equitable",
        "verify_a_antimagic", "verify_a_cordial", "verify_a_star_antimagic",
        "verify_ea_cordial",
    ),
    "search": (
        "DEFAULT_BUDGET", "HamiltonianCycle", "MAX_DEPTH", "RStarSequence",
        "STATUS_FOUND", "STATUS_NOT_EXISTS", "STATUS_UNKNOWN",
        "SearchOutcome", "SigmaMaxResult", "compute_sigma_max",
        "search_a_antimagic", "search_a_cordial", "search_a_star_antimagic",
        "search_ea_cordial", "search_rstar_sequence",
    ),
    "trees": ("TREE_ENUM_CAP", "canonical_form", "enumerate_trees"),
}
NAMES = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])


def test_the_surface_has_110_names():
    assert len(NAMES) == len(set(NAMES)) == 110


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"cordant.{module}")
    assert getattr(cordant, module) is sub
    for name in PUBLIC[module]:
        assert getattr(cordant, name) is getattr(sub, name), name


def test_dir_and_star_import_list_every_name():
    assert set(NAMES) <= set(dir(cordant))
    assert sorted(cordant.__all__) == NAMES
    namespace = {}
    exec("from cordant import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'cordant'.*'no_such_name'"):
        cordant.no_such_name  # noqa: B018
    assert not hasattr(cordant, "no_such_name")
