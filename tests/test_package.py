"""Properties of the library source as a whole."""

import ast
import pathlib
import re

import regracut

ENV_READ = re.compile(r"\benviron\b|\bgetenv\b")


def test_library_reads_no_environment_variable():
    # results depend on arguments only; no variable may change what or how
    # the library computes
    root = pathlib.Path(regracut.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    readers = [
        f"{path.relative_to(root)}:{number}"
        for path in modules
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ENV_READ.search(line)
    ]
    assert readers == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, by stdlib `ast` alone."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # __init__.py imports to re-export, so only the other modules are read
    root = pathlib.Path(regracut.__file__).parent
    modules = [path for path in sorted(root.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 5
    unused = {path.name: _unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        "os (line 1)", "e (line 2)",
    ]


# The public surface, by module.  The submodules are attributes of the
# package but not public names, so `from regracut import *` binds none.
PUBLIC_NAMES = {
    "RegracutError",
    # graphs
    "DIGRAPH_STATES", "P0", "P1", "P2", "P3", "P4", "PALETTES", "STATE_BACK", "STATE_BI",
    "STATE_FWD", "STATE_NONE", "ColoredGraph", "Digraph", "Palette", "dumps_graph", "flip_state",
    "loads_graph", "new_digraph", "new_rgraph", "palette", "read_graph", "sample_digraph",
    "sample_rgraph", "validate_arrow_distribution", "validate_color_distribution", "write_graph",
    # partitions
    "Equipartition", "equipartition", "is_refinement", "load_partition", "refine_equipartition",
    # density
    "IRREGULAR", "REGULAR", "UNKNOWN", "CorollaryCheck", "DefectCheck", "RegularityReport",
    "RegularityWitness", "certify", "channel_labels", "corollary_cs_check", "defect_cs_check",
    "density_vector", "pair_density_tensor", "partition_index",
    # decomposition
    "DecompositionResult", "EpsilonFunction", "PairStats", "RegularizeResult", "SlicingReport",
    "SubclusterSelection", "decompose", "regularize", "select_subclusters", "verify_slicing",
    # embedding
    "CopyCount", "EmbeddingConstants", "EmbeddingReport", "bad_vertices", "check_embedding_lemma",
    "count_spanning_copies", "embedding_constants",
    # typegraphs
    "BoundReport", "ForbiddenFamily", "TypeFamily", "TypeGraph", "canonical_key", "dirtype",
    "edit_distance_lower_bound", "embeds", "enumerate_types", "expected_edit_fraction", "rtype",
    "theorem_error_terms", "type_from_json", "type_to_json", "validate_type",
    # editdist
    "ConstructResult", "FitResult", "construct_type_from_partition", "distance_to_property",
    "edit_distance", "find_induced_copy", "fit_to_type", "has_induced_copy",
}


def test_public_names_are_pinned():
    # a new public name is a choice made here, not a side effect of an import
    assert len(PUBLIC_NAMES) == 86
    assert set(regracut.__all__) == PUBLIC_NAMES

