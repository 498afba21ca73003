"""Properties of the library source as a whole."""

import ast
import dataclasses
import inspect
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
    "theorem_error_terms", "type_from_json", "type_to_json",
    # editdist
    "ConstructResult", "FitResult", "construct_type_from_partition", "distance_to_property",
    "edit_distance", "find_induced_copy", "fit_to_type", "has_induced_copy",
}


def test_public_names_are_pinned():
    # a new public name is a choice made here, not a side effect of an import
    assert len(PUBLIC_NAMES) == 85
    assert set(regracut.__all__) == PUBLIC_NAMES



# Parameter names of each public function and of each public class that is
# neither a dataclass (its fields are its data) nor an exception
PUBLIC_SIGNATURES = {
    # graphs
    "dumps_graph": ("G",),
    "flip_state": ("state",),
    "loads_graph": ("text",),
    "new_digraph": ("n", "assignments"),
    "new_rgraph": ("n", "r", "assignments"),
    "palette": ("name",),
    "read_graph": ("path",),
    "sample_digraph": ("n", "p", "q", "seed"),
    "sample_rgraph": ("n", "p", "seed"),
    "validate_arrow_distribution": ("p", "q"),
    "validate_color_distribution": ("p",),
    "write_graph": ("G", "path"),
    "ColoredGraph": ("n", "r", "matrix"),
    "Digraph": ("n", "matrix"),
    "Palette": ("name", "allowed"),
    # partitions
    "equipartition": ("n", "k", "seed"),
    "is_refinement": ("child", "parent"),
    "load_partition": ("path",),
    "refine_equipartition": ("part", "ell", "seed"),
    "Equipartition": ("blocks", "parent"),
    # density
    "certify": ("G", "A", "B", "gamma", "method", "exact_cap"),
    "channel_labels": ("G",),
    "corollary_cs_check": ("G", "A", "B", "a_blocks", "b_blocks", "channel", "eps"),
    "defect_cs_check": ("xs", "m"),
    "density_vector": ("G", "A", "B"),
    "pair_density_tensor": ("G", "part"),
    "partition_index": ("G", "part"),
    # decomposition
    "decompose": ("G", "m", "efun", "cap", "certifier", "seed"),
    "regularize": ("G", "m", "eps", "cap", "certifier", "seed"),
    "select_subclusters": ("G", "result", "efun", "trials", "seed", "certifier"),
    "verify_slicing": ("G", "A", "B", "A_sub", "B_sub", "gamma"),
    "EpsilonFunction": ("table", "default"),
    # embedding
    "bad_vertices": ("G", "part_from", "part_to", "channel", "eta", "gamma"),
    "check_embedding_lemma": ("G", "H", "parts", "eta"),
    "count_spanning_copies": ("G", "H", "parts", "eta"),
    "embedding_constants": ("eta", "k"),
    # typegraphs
    "canonical_key": ("K",),
    "dirtype": ("pal", "self_labels", "edge_labels"),
    "edit_distance_lower_bound": ("dist", "family", "n"),
    "embeds": ("H", "K"),
    "enumerate_types": ("kind", "k_max", "family"),
    "expected_edit_fraction": ("K", "dist"),
    "rtype": ("r", "self_labels", "edge_labels"),
    "theorem_error_terms": ("n", "k", "r", "eps"),
    "type_from_json": ("obj",),
    "type_to_json": ("K",),
    "ForbiddenFamily": ("members",),
    # editdist
    "construct_type_from_partition": ("G", "blocks", "delta", "efun", "family", "certifier", "palette"),
    "distance_to_property": ("G", "family"),
    "edit_distance": ("G", "H"),
    "find_induced_copy": ("G", "H"),
    "fit_to_type": ("G", "K", "assignment", "trials", "seed"),
    "has_induced_copy": ("G", "H"),
}


def test_public_signatures_are_pinned():
    # a new parameter, like a new public name, is a choice made here
    signatures = {}
    for name in regracut.__all__:
        obj = getattr(regracut, name)
        if inspect.isclass(obj) and (dataclasses.is_dataclass(obj) or issubclass(obj, BaseException)):
            continue
        if callable(obj):
            signatures[name] = inspect.signature(obj).parameters
    assert {name: tuple(params) for name, params in signatures.items()} == PUBLIC_SIGNATURES
    functions = [params for name, params in signatures.items() if not inspect.isclass(getattr(regracut, name))]
    params = [param for each in functions for param in each.values()]
    assert (len(functions), len(params)) == (47, 137)
    assert sum(param.default is not param.empty for param in params) == 21


# Public method and property names of each exported class that has any;
# exceptions are left out, as their methods are BaseException's
PUBLIC_METHODS = {
    "ColoredGraph": ("color", "matrix", "pairs", "with_color"),
    "ConstructResult": ("ok",),
    "Digraph": ("arc", "matrix", "pair_state", "pairs", "with_state"),
    "EpsilonFunction": ("constant", "parse", "reciprocal"),
    "Equipartition": ("n", "order", "sizes"),
    "ForbiddenFamily": ("kind", "r"),
    "TypeGraph": ("phi",),
}


def test_public_methods_are_pinned():
    # a new method or property, like a new parameter, is a choice made here
    methods = {}
    for name in regracut.__all__:
        cls = getattr(regracut, name)
        if inspect.isclass(cls) and not issubclass(cls, BaseException):
            methods[name] = tuple(sorted(
                member for member, value in inspect.getmembers(cls)
                if not member.startswith("_") and (callable(value) or isinstance(value, property))))
    assert len(methods) == 23
    assert {name: names for name, names in methods.items() if names} == PUBLIC_METHODS
