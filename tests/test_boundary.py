"""One vertex-set rule at every public function that takes vertex sets,
one integer rule for every count, seed and vertex index, and one
real-number rule for every tolerance, threshold and probability.

Each set must hold only integers, be nonempty (except where a function
counts over possibly empty parts), hold no vertex twice and lie inside
0..n-1, and no two sets may share a vertex.  Errors name a set by its
role: "A" or "B" in a pair, "part i" or "block i" in a list.  A count or
seed must be a Python or numpy integer (not a bool) in its range.  A real
parameter must be a Python or numpy real (not a bool, a string, None or
NaN); an int beyond the float range reads as +-inf.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import regracut as rg
from regracut.cli import main
from regracut.errors import (
    BadDistribution,
    BadEta,
    BadM,
    BadOrder,
    BadPartition,
    ColorOutOfRange,
    EmptySet,
    GraphTooSmall,
    OverlappingSets,
    RefinementTooFine,
    RegracutError,
    SliceTooSmall,
)

from helpers import mono_rgraph

N = 10
PAIR = mono_rgraph(2, 2, 1)
EFUN = rg.EpsilonFunction(default=0.3)
FAMILY = rg.ForbiddenFamily([rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])])

# entry point -> (call on two vertex sets, the names its errors give them)
ENTRY_POINTS = {
    "density_vector": (lambda G, A, B: rg.density_vector(G, A, B), ("A", "B")),
    "certify": (lambda G, A, B: rg.certify(G, A, B, 0.3), ("A", "B")),
    "is_regular_exact": (lambda G, A, B: rg.is_regular_exact(G, A, B, 0.3), ("A", "B")),
    "irregularity_witness_heuristic": (
        lambda G, A, B: rg.irregularity_witness_heuristic(G, A, B, 0.3), ("A", "B")),
    "corollary_cs_check": (
        lambda G, A, B: rg.corollary_cs_check(G, A, B, [A], [B], 1, 0.3), ("A", "B")),
    "verify_slicing": (lambda G, A, B: rg.verify_slicing(G, A, B, A, B, 0.3), ("A", "B")),
    "count_spanning_copies": (
        lambda G, A, B: rg.count_spanning_copies(G, PAIR, [A, B]), ("part 0", "part 1")),
    "bad_vertices": (
        lambda G, A, B: rg.bad_vertices(G, A, B, 1, 0.5, 0.1), ("part_from", "part_to")),
    "check_embedding_lemma": (
        lambda G, A, B: rg.check_embedding_lemma(G, PAIR, [A, B], 0.4), ("part 0", "part 1")),
    "construct_type_from_partition": (
        lambda G, A, B: rg.construct_type_from_partition(G, [A, B], 0.4, EFUN, FAMILY),
        ("block 0", "block 1")),
}

# condition -> (A, B, exception class, message with {a} and {b} for the names)
CONDITIONS = {
    "empty": ([], [5, 6, 7], EmptySet, "{a} is empty"),
    "repeated": ([0, 1, 1], [5, 6, 7], RegracutError, "{a} contains repeated vertices"),
    "minus-one": ([-1, 0, 1], [5, 6, 7], RegracutError, f"{{a}} contains vertices outside 0..{N - 1}"),
    "n": ([0, 1, N], [5, 6, 7], RegracutError, f"{{a}} contains vertices outside 0..{N - 1}"),
    "overlap": ([0, 1, 2], [2, 5, 6], OverlappingSets, "{a} and {b} overlap"),
}

# the counters take empty parts; an empty side of a slicing check has an
# empty slice, which is too small
EMPTY_ALLOWED = {"count_spanning_copies", "bad_vertices"}


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_rule_at_every_entry_point(entry, condition):
    call, (a, b) = ENTRY_POINTS[entry]
    A, B, error, message = CONDITIONS[condition]
    G = mono_rgraph(N, 2, 1)
    if condition == "empty" and entry in EMPTY_ALLOWED:
        call(G, A, B)
        return
    if condition == "empty" and entry == "verify_slicing":
        error, message = SliceTooSmall, "slices must be nonempty"
    with pytest.raises(RegracutError) as info:
        call(G, A, B)
    assert type(info.value) is error
    assert str(info.value) == message.format(a=a, b=b)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_second_set_named_by_its_role(entry):
    call, (_, b) = ENTRY_POINTS[entry]
    with pytest.raises(RegracutError, match=f"^{b} contains repeated vertices$"):
        call(mono_rgraph(N, 2, 1), [0, 1, 2], [5, 5, 6])


@pytest.mark.parametrize("value", [0.0, -0.1, float("nan")])
@pytest.mark.parametrize("entry", ["certify", "irregularity_witness_heuristic", "verify_slicing",
                                   "construct_type_from_partition", "corollary_cs_check"])
def test_tolerance_must_be_positive(entry, value):
    G, A, B = mono_rgraph(N, 2, 1), [0, 1, 2], [5, 6, 7]
    calls = {
        "certify": lambda: rg.certify(G, A, B, value),
        "irregularity_witness_heuristic": lambda: rg.irregularity_witness_heuristic(G, A, B, value),
        "verify_slicing": lambda: rg.verify_slicing(G, A, B, A, B, value),
        "construct_type_from_partition": lambda: rg.construct_type_from_partition(
            G, [A, B], 0.4, lambda k: value, FAMILY),
        "corollary_cs_check": lambda: rg.corollary_cs_check(G, A, B, [A], [B], 1, value),
    }
    name = "eps" if entry == "corollary_cs_check" else "gamma"
    rule = "be a real number" if value != value else "be positive"  # NaN is not a real number
    with pytest.raises(RegracutError) as info:
        calls[entry]()
    assert type(info.value) is RegracutError
    assert str(info.value) == f"{name} must {rule}, got {value}"


@pytest.mark.parametrize("method, verdict",
                         [("exact", rg.REGULAR), ("auto", rg.REGULAR), ("heuristic", rg.UNKNOWN)])
def test_infinite_gamma_answers_like_any_gamma_above_one(method, verdict):
    """At gamma >= 1 only the whole pair qualifies, so nothing refutes it;
    gamma = inf takes that path too instead of sizing subsets."""
    G = rg.sample_rgraph(N, (0.5, 0.5), seed=2)
    A, B = [0, 1, 2, 3], [5, 6, 7]
    for gamma in (1.0, 1e300, float("inf")):
        assert rg.certify(G, A, B, gamma, method) == rg.RegularityReport(gamma, verdict)


def test_check_embedding_lemma_takes_a_lone_empty_part():
    report = rg.check_embedding_lemma(mono_rgraph(4, 2, 1), rg.new_rgraph(1, 2, []), [[]], 0.4)
    assert report.copies.count == 0 and report.pairs == ()


class TestSlicing:
    def test_repeated_slice_vertex_rejected(self):
        G = mono_rgraph(N, 2, 1)
        with pytest.raises(RegracutError, match="^A_sub contains repeated vertices$"):
            rg.verify_slicing(G, [0, 1, 2, 3], [4, 5, 6, 7], [0, 0, 1], [4, 5], 0.3)
        with pytest.raises(RegracutError, match="^B_sub contains repeated vertices$"):
            rg.verify_slicing(G, [0, 1, 2, 3], [4, 5, 6, 7], [0, 1], [4, 5, 5], 0.3)

    def test_repeated_side_vertex_rejected(self):
        with pytest.raises(RegracutError, match="^B contains repeated vertices$"):
            rg.verify_slicing(mono_rgraph(N, 2, 1), [0, 1], [4, 4, 5], [0, 1], [4, 5], 0.3)

    @pytest.mark.parametrize(
        "A, B, A_sub, B_sub", [([], [4, 5], [], [4]), ([0, 1], [], [0], [])]
    )
    def test_empty_side_and_slice_too_small(self, A, B, A_sub, B_sub):
        with pytest.raises(SliceTooSmall, match="^slices must be nonempty$"):
            rg.verify_slicing(mono_rgraph(N, 2, 1), A, B, A_sub, B_sub, 0.3)


def test_overlapping_sub_blocks_do_not_partition():
    G = mono_rgraph(8, 2, 1)
    A, B = [0, 1, 2, 3], [4, 5, 6, 7]
    with pytest.raises(BadPartition, match="^sub-blocks do not partition A$"):
        rg.corollary_cs_check(G, A, B, [[0, 1], [1, 2]], [[4, 5], [6, 7]], 1, 0.3)
    with pytest.raises(EmptySet, match="^B sub-block 1 is empty$"):
        rg.corollary_cs_check(G, A, B, [[0, 1], [2, 3]], [[4, 5, 6, 7], []], 1, 0.3)


class TestConstructBlocks:
    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[0, 0, 9]], "block 0 contains repeated vertices"),
            ([[0, 99]], "block 0 contains vertices outside 0..9"),
            ([[-1, 0]], "block 0 contains vertices outside 0..9"),
        ],
    )
    def test_lone_block_checked(self, blocks, message):
        with pytest.raises(RegracutError, match=f"^{message}$"):
            rg.construct_type_from_partition(mono_rgraph(N, 2, 1), blocks, 0.4, EFUN, FAMILY)

    @pytest.mark.parametrize("blocks, empty", [([[]], 0), ([[0, 1], []], 1)])
    def test_empty_block_is_an_empty_set(self, blocks, empty):
        with pytest.raises(EmptySet, match=f"^block {empty} is empty$"):
            rg.construct_type_from_partition(mono_rgraph(N, 2, 1), blocks, 0.4, EFUN, FAMILY)


# ---------------------------------------------------------------------------
# the integer rule
# ---------------------------------------------------------------------------

G10 = rg.sample_rgraph(N, (0.5, 0.5), seed=3)
PART = rg.equipartition(N, 2, seed=1)
RESULT = rg.decompose(G10, 2, EFUN, cap=8, seed=1)
TYPES = rg.enumerate_types(2, 2, FAMILY)
TEMPLATE = TYPES.types[0]

# count or seed -> (call on the value, the name its messages give, the
# exception class, a value below its range and the message for that value)
COUNTS = {
    "ColoredGraph n": (lambda v: rg.ColoredGraph(v, 2, np.zeros((2, 2))), "n", RegracutError,
                       0, "n must be at least 1, got 0"),
    "ColoredGraph r": (lambda v: rg.ColoredGraph(2, v, np.zeros((2, 2))), "r", RegracutError,
                       1, "r must be at least 2, got 1"),
    "Digraph n": (lambda v: rg.Digraph(v, -np.eye(2)), "n", RegracutError,
                  0, "n must be at least 1, got 0"),
    "new_rgraph n": (lambda v: rg.new_rgraph(v, 2, []), "n", RegracutError,
                     -1, "n must be at least 1, got -1"),
    "new_rgraph r": (lambda v: rg.new_rgraph(3, v, []), "r", RegracutError,
                     0, "r must be at least 2, got 0"),
    "new_digraph n": (lambda v: rg.new_digraph(v, []), "n", RegracutError,
                      0, "n must be at least 1, got 0"),
    "sample_rgraph n": (lambda v: rg.sample_rgraph(v, (0.5, 0.5)), "n", RegracutError,
                        0, "n must be at least 1, got 0"),
    "sample_digraph n": (lambda v: rg.sample_digraph(v, 0.2, 0.3), "n", RegracutError,
                         0, "n must be at least 1, got 0"),
    "sample_rgraph seed": (lambda v: rg.sample_rgraph(4, (0.5, 0.5), seed=v), "seed", RegracutError,
                           -1, "seed must be at least 0, got -1"),
    "sample_digraph seed": (lambda v: rg.sample_digraph(4, 0.2, 0.3, seed=v), "seed", RegracutError,
                            -1, "seed must be at least 0, got -1"),
    "equipartition k": (lambda v: rg.equipartition(N, v), "order k", BadOrder,
                        0, f"order k=0 must lie in 1..{N}"),
    "equipartition seed": (lambda v: rg.equipartition(N, 2, seed=v), "seed", RegracutError,
                           -1, "seed must be at least 0, got -1"),
    "refine_equipartition ell": (lambda v: rg.refine_equipartition(PART, v), "split factor",
                                 RefinementTooFine, 0, "split factor must be at least 1, got 0"),
    "refine_equipartition seed": (lambda v: rg.refine_equipartition(PART, 2, seed=v), "seed",
                                  RegracutError, -1, "seed must be at least 0, got -1"),
    "regularize m": (lambda v: rg.regularize(G10, v, 0.3), "order m", GraphTooSmall,
                     0, f"order m=0 must lie in 1..{N}"),
    "regularize cap": (lambda v: rg.regularize(G10, 2, 0.3, cap=v), "cap", RegracutError,
                       0, "cap must be at least 1, got 0"),
    "regularize seed": (lambda v: rg.regularize(G10, 2, 0.3, seed=v), "seed", RegracutError,
                        -1, "seed must be at least 0, got -1"),
    "regularize seed with start": (lambda v: rg.regularize(G10, 2, 0.3, seed=v, start=PART), "seed",
                                   RegracutError, -1, "seed must be at least 0, got -1"),
    "decompose m": (lambda v: rg.decompose(G10, v, EFUN), "order m", GraphTooSmall,
                    0, f"order m=0 must lie in 1..{N}"),
    "decompose cap": (lambda v: rg.decompose(G10, 2, EFUN, cap=v), "cap", RegracutError,
                      0, "cap must be at least 1, got 0"),
    "decompose seed": (lambda v: rg.decompose(G10, 2, EFUN, seed=v), "seed", RegracutError,
                       -1, "seed must be at least 0, got -1"),
    "EpsilonFunction order": (lambda v: EFUN(v), "order", RegracutError,
                              -1, "order must be at least 0, got -1"),
    "EpsilonFunction table order": (lambda v: rg.EpsilonFunction({v: 0.3}, 0.2), "order",
                                    RegracutError, -1, "order must be at least 0, got -1"),
    "select_subclusters trials": (lambda v: rg.select_subclusters(G10, RESULT, EFUN, trials=v),
                                  "trials", RegracutError, 0, "trials must be at least 1, got 0"),
    "select_subclusters seed": (lambda v: rg.select_subclusters(G10, RESULT, EFUN, seed=v), "seed",
                                RegracutError, -1, "seed must be at least 0, got -1"),
    "fit_to_type trials": (lambda v: rg.fit_to_type(G10, TEMPLATE, "best_of", trials=v), "trials",
                           RegracutError, 0, "trials must be at least 1, got 0"),
    "fit_to_type seed": (lambda v: rg.fit_to_type(G10, TEMPLATE, "best_of", seed=v), "seed",
                         RegracutError, -1, "seed must be at least 0, got -1"),
    "defect_cs_check m": (lambda v: rg.defect_cs_check([1.0, 2.0, 3.0], v), "m", BadM,
                          0, "m=0 must lie in 1..2"),
    "embedding_constants k": (lambda v: rg.embedding_constants(0.5, v), "k", RegracutError,
                              0, "k must be at least 1, got 0"),
    "enumerate_types k_max": (lambda v: rg.enumerate_types(2, v, FAMILY), "k_max", RegracutError,
                              0, "k_max must be at least 1, got 0"),
    "theorem_error_terms n": (lambda v: rg.theorem_error_terms(v, 2, 2, 0.1), "n", RegracutError,
                              0, "n must be at least 1, got 0"),
    "theorem_error_terms k": (lambda v: rg.theorem_error_terms(N, v, 2, 0.1), "k", RegracutError,
                              0, f"k=0 must lie in 1..{N}"),
    "theorem_error_terms r": (lambda v: rg.theorem_error_terms(N, 2, v, 0.1), "r", RegracutError,
                              1, "r must be at least 2, got 1"),
    "distance_to_property cap": (lambda v: rg.distance_to_property(PAIR, FAMILY, cap=v), "cap",
                                 RegracutError, 0, "cap must be at least 1, got 0"),
    "certify exact_cap": (lambda v: rg.certify(G10, [0, 1, 2], [5, 6, 7], 0.3, "exact", v),
                          "exact_cap", RegracutError, -1, "exact_cap must be at least 0, got -1"),
    "balanced_sizes n": (lambda v: rg.balanced_sizes(v, 2), "n", BadOrder,
                         -3, "n must be at least 0, got -3"),
    "balanced_sizes k": (lambda v: rg.balanced_sizes(5, v), "order k", BadOrder,
                         -2, "order k must be at least 1, got -2"),
    "subdivision_counts ell": (lambda v: rg.subdivision_counts([4, 3], v), "split factor",
                               RefinementTooFine, 0, "split factor must be at least 1, got 0"),
    "subdivision_counts size": (lambda v: rg.subdivision_counts([4, v], 2), "block size", BadPartition,
                                0, "block size must be at least 1, got 0"),
    "Equipartition block_of": (lambda v: PART.block_of(v), "vertex", RegracutError,
                               -1, f"vertex=-1 must lie in 0..{N - 1}"),
    "edit_distance_lower_bound n": (lambda v: rg.edit_distance_lower_bound((0.5, 0.5), TYPES, v), "n",
                                    RegracutError, -5, "n must be at least 1, got -5"),
}


# None picks the exact-search cap of the graph's kind
NONE_IS_DEFAULT = {"distance_to_property cap"}


@pytest.mark.parametrize("value", [2.0, "3", None, True, "below"])
@pytest.mark.parametrize("entry", COUNTS)
def test_one_integer_rule_for_counts_and_seeds(entry, value):
    call, name, error, below, message = COUNTS[entry]
    if value is None and entry in NONE_IS_DEFAULT:
        call(value)
        return
    if value == "below":
        value = below
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(RegracutError) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ["equipartition k", "decompose m", "sample_rgraph seed",
                                   "fit_to_type trials", "theorem_error_terms k"])
def test_numpy_integers_count_as_integers(entry):
    call = COUNTS[entry][0]
    assert call(np.int64(2)) == call(2)


@pytest.mark.parametrize("vertex", [0.7, 1.0, "1", None, True, np.float64(1.0), np.True_])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integer_vertex_refused(entry, vertex):
    """`int(v)` would read 0.7 as vertex 0 and "1" as vertex 1."""
    call, (a, _) = ENTRY_POINTS[entry]
    with pytest.raises(RegracutError) as info:
        call(mono_rgraph(N, 2, 1), [0, vertex], [5, 6])
    assert type(info.value) is RegracutError
    assert str(info.value) == f"{a} contains the non-integer vertex {vertex!r}"


@pytest.mark.parametrize("vertex", [1.0, 1.5, "1", True])
def test_equipartition_refuses_non_integer_vertices(vertex):
    with pytest.raises(BadPartition, match=r"^block 0 contains the non-integer vertex "):
        rg.Equipartition([[0, vertex], [2, 3]])


K2 = rg.rtype(2, [{1}, {2}], {(0, 1): {1, 2}})

# integer entries of list and set arguments -> (call, exception class, message);
# `int()` read 0.7 as template vertex 0, 2.5 as r = 2 and 0.5 as parent 0
INTEGER_ENTRIES = {
    "fit_to_type assignment": (lambda: rg.fit_to_type(G10, K2, assignment=[0.7, 1.9] + [0, 1] * 4),
                               RegracutError, "assignment entry must be an integer, got 0.7"),
    "fit_to_type assignment range": (lambda: rg.fit_to_type(G10, K2, assignment=[2] + [0] * 9),
                                     RegracutError, "assignment entry=2 must lie in 0..1"),
    "rtype r": (lambda: rg.rtype(2.5, [{1}], {}), RegracutError, "r must be an integer, got 2.5"),
    "rtype self label": (lambda: rg.rtype(3, [{1.5}], {}), ColorOutOfRange,
                         "color must be an integer, got 1.5"),
    "rtype pair label": (lambda: rg.rtype(3, [{1}, {2}], {(0, 1): {True}}), ColorOutOfRange,
                         "color must be an integer, got True"),
    "type_from_json r": (lambda: rg.type_from_json({"kind": "rtype", "r": 3.0, "self": [[1]], "edges": []}),
                         RegracutError, "r must be an integer, got 3.0"),
    "type_from_json k": (lambda: rg.type_from_json({"kind": "rtype", "r": 2, "k": 2.7, "self": [[1], [2]],
                                                    "edges": [{"u": 0, "v": 1, "labels": [1]}]}),
                         RegracutError, "k must be an integer, got 2.7"),
    "type_from_json pair": (lambda: rg.type_from_json({"kind": "rtype", "r": 2, "self": [[1], [2]],
                                                       "edges": [{"u": 0.5, "v": 1.9, "labels": [1]}]}),
                            RegracutError, "template pair vertices must be integers, got (0.5, 1.9)"),
    "rtype pair": (lambda: rg.rtype(2, [{1}, {2}], {(0.0, 1.0): {1}}), RegracutError,
                   "template pair vertices must be integers, got (0.0, 1.0)"),
    "rtype bool pair": (lambda: rg.rtype(2, [{1}, {2}], {(True, np.False_): {1}}), RegracutError,
                        "template pair vertices must be integers, got (True, np.False_)"),
    "dirtype pair": (lambda: rg.dirtype("P0", [{"none"}, {"bi"}], {(0, "1"): {"fwd"}}), RegracutError,
                     "template pair vertices must be integers, got (0, '1')"),
    "rtype pair range": (lambda: rg.rtype(2, [{1}, {2}], {(0, 2): {1}}), RegracutError,
                         "bad template pair (0, 2)"),
    "Equipartition parent": (lambda: rg.Equipartition([[0, 1], [2, 3]], parent=[0.5, 1.5]),
                             BadPartition, "parent index must be an integer, got 0.5"),
    "Equipartition parent range": (lambda: rg.Equipartition([[0, 1], [2, 3]], parent=[0, -1]),
                                   BadPartition, "parent index must be at least 0, got -1"),
    "Equipartition block_of range": (lambda: PART.block_of(99), RegracutError,
                                     f"vertex=99 must lie in 0..{N - 1}"),
    "balanced_sizes zero k": (lambda: rg.balanced_sizes(5, 0), BadOrder, "order k must be at least 1, got 0"),
    "subdivision_counts no blocks": (lambda: rg.subdivision_counts([], 2), BadPartition,
                                     "a partition needs at least one block"),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_integer_entries_follow_the_integer_rule(entry):
    call, error, message = INTEGER_ENTRIES[entry]
    with pytest.raises(RegracutError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_numpy_integer_entries_read_as_python_ints():
    assign = [0, 1] * 5
    assert rg.fit_to_type(G10, K2, assignment=np.array(assign)) == rg.fit_to_type(G10, K2, assignment=assign)
    K = rg.rtype(np.int64(2), [{np.int8(1)}, {np.uint16(2)}], {(0, 1): {np.int64(1), 2}})
    assert K == K2 and K.r == 2 and type(K.r) is int
    assert {type(c) for label in K.self_labels + K.pair_labels for c in label} == {int}
    assert rg.rtype(2, [{1}, {2}], {(np.int64(1), np.int8(0)): {1, 2}}) == K2
    part = rg.Equipartition([[0, 1], [2, 3]], parent=np.array([1, 0]))
    assert part.parent == (1, 0) and {type(i) for i in part.parent} == {int}
    assert PART.block_of(np.int64(3)) == PART.block_of(3)


def test_numpy_template_r_writes_as_json():
    """`validate_type` accepts a numpy r; its JSON form holds a Python int."""
    K = dataclasses.replace(K2, r=np.int64(2))
    assert K == K2 and json.dumps(rg.type_to_json(K)) == json.dumps(rg.type_to_json(K2))

def test_numpy_vertices_read_as_python_ints(tmp_path):
    part = rg.Equipartition([np.array([2, 0]), np.arange(1, 4, 2, dtype=np.int32)])
    assert part.blocks == ((0, 2), (1, 3))
    assert {type(v) for block in part.blocks for v in block} == {int}
    path = tmp_path / "part.json"
    rg.save_partition(part, path)
    assert json.loads(path.read_text()) == [[0, 2], [1, 3]]
    G = rg.sample_rgraph(N, (0.5, 0.5), seed=2)
    assert np.array_equal(rg.density_vector(G, np.array([0, 1]), np.array([5, 6], dtype=np.uint8)),
                          rg.density_vector(G, [0, 1], [5, 6]))


class TestGraphAccessors:
    """Vertex indices follow the integer rule: no wrap-around from -1 and no
    bare IndexError at n."""

    G = rg.sample_rgraph(4, (0.3, 0.3, 0.4), seed=5)
    D = rg.sample_digraph(4, 0.2, 0.3, seed=5)
    CALLS = {
        "color": lambda G, D, u, v: G.color(u, v),
        "with_color": lambda G, D, u, v: G.with_color(u, v, 1),
        "arc": lambda G, D, u, v: D.arc(u, v),
        "pair_state": lambda G, D, u, v: D.pair_state(u, v),
        "with_state": lambda G, D, u, v: D.with_state(u, v, "fwd"),
    }

    @pytest.mark.parametrize("u, v, message", [
        (-1, 0, "vertex=-1 must lie in 0..3"),
        (0, -1, "vertex=-1 must lie in 0..3"),
        (4, 0, "vertex=4 must lie in 0..3"),
        (0, 1.0, "vertex must be an integer, got 1.0"),
        (True, 0, "vertex must be an integer, got True"),
        (2, 2, None),
    ])
    @pytest.mark.parametrize("call", CALLS)
    def test_indices_checked(self, call, u, v, message):
        if message is None:
            message = f"no {'color' if call in ('color', 'with_color') else 'state'} on the diagonal"
        with pytest.raises(RegracutError) as info:
            self.CALLS[call](self.G, self.D, u, v)
        assert type(info.value) is RegracutError
        assert str(info.value) == message

    def test_with_color_changes_one_pair(self):
        H = self.G.with_color(np.int64(3), 1, 3)
        m = self.G.matrix.copy()
        m[1, 3] = m[3, 1] = 3
        assert H == rg.ColoredGraph(4, 3, m) and H.color(1, 3) == 3
        assert not self.G.matrix.flags.writeable and not H.matrix.flags.writeable

    @pytest.mark.parametrize("state", rg.DIGRAPH_STATES)
    def test_with_state_changes_one_pair(self, state):
        H = self.D.with_state(3, 0, state)
        m = self.D.matrix.copy()
        m[0, 3] = rg.DIGRAPH_STATES.index(state)
        m[3, 0] = rg.DIGRAPH_STATES.index(rg.flip_state(state))
        assert H == rg.Digraph(4, m)
        assert H.arc(0, 3) == state and H.pair_state(3, 0) == state

    def test_with_color_refuses_a_non_integer_color(self):
        with pytest.raises(RegracutError, match=r"^color must be an integer, got 1\.5$"):
            self.G.with_color(0, 1, 1.5)
        with pytest.raises(RegracutError, match=r"^color=4 must lie in 1\.\.3$"):
            self.G.with_color(0, 1, 4)


# ---------------------------------------------------------------------------
# the real-number rule
# ---------------------------------------------------------------------------

A3, B3 = [0, 1, 2], [5, 6, 7]

# real parameter -> (call on the value, the name its messages give, the
# exception class)
REALS = {
    "certify gamma": (lambda v: rg.certify(G10, A3, B3, v), "gamma", RegracutError),
    "is_regular_exact gamma": (lambda v: rg.is_regular_exact(G10, A3, B3, v), "gamma", RegracutError),
    "irregularity_witness_heuristic gamma": (
        lambda v: rg.irregularity_witness_heuristic(G10, A3, B3, v), "gamma", RegracutError),
    "verify_slicing gamma": (lambda v: rg.verify_slicing(G10, A3, B3, A3, B3, v), "gamma", RegracutError),
    "construct_type_from_partition efun(k)": (
        lambda v: rg.construct_type_from_partition(G10, [A3, B3], 0.4, lambda k: v, FAMILY),
        "gamma", RegracutError),
    "construct_type_from_partition delta": (
        lambda v: rg.construct_type_from_partition(G10, [A3, B3], v, EFUN, FAMILY), "delta", RegracutError),
    "corollary_cs_check eps": (lambda v: rg.corollary_cs_check(G10, A3, B3, [A3], [B3], 1, v), "eps",
                               RegracutError),
    "theorem_error_terms eps": (lambda v: rg.theorem_error_terms(40, 5, 2, v), "eps", RegracutError),
    "regularize eps": (lambda v: rg.regularize(G10, 2, v), "eps", RegracutError),
    "embedding_constants eta": (lambda v: rg.embedding_constants(v, 3), "eta", BadEta),
    "count_spanning_copies eta": (lambda v: rg.count_spanning_copies(G10, PAIR, [A3, B3], v), "eta", BadEta),
    "check_embedding_lemma eta": (lambda v: rg.check_embedding_lemma(G10, PAIR, [A3, B3], v), "eta", BadEta),
    "bad_vertices eta": (lambda v: rg.bad_vertices(G10, A3, B3, 1, v, 0.1), "eta", RegracutError),
    "bad_vertices gamma": (lambda v: rg.bad_vertices(G10, A3, B3, 1, 0.5, v), "gamma", RegracutError),
    "EpsilonFunction table value": (lambda v: rg.EpsilonFunction({0: v}, 0.2), "epsilon value",
                                    RegracutError),
    "EpsilonFunction constant": (lambda v: rg.EpsilonFunction.constant(v), "epsilon value", RegracutError),
    "EpsilonFunction callable": (lambda v: rg.EpsilonFunction(default=lambda k: v), "epsilon value",
                                 RegracutError),
    "validate_color_distribution entry": (lambda v: rg.validate_color_distribution((v, 0.5)),
                                          "each probability", BadDistribution),
    "sample_rgraph entry": (lambda v: rg.sample_rgraph(5, (0.5, v)), "each probability", BadDistribution),
    "validate_arrow_distribution p": (lambda v: rg.validate_arrow_distribution(v, 0.3), "p", BadDistribution),
    "validate_arrow_distribution q": (lambda v: rg.validate_arrow_distribution(0.2, v), "q", BadDistribution),
    "sample_digraph p": (lambda v: rg.sample_digraph(5, v, 0.3), "p", BadDistribution),
    "sample_digraph q": (lambda v: rg.sample_digraph(5, 0.2, v), "q", BadDistribution),
    "defect_cs_check entry": (lambda v: rg.defect_cs_check([1.0, v, 3.0], 1), "each entry", RegracutError),
    "EpsilonFunction.reciprocal a": (lambda v: rg.EpsilonFunction.reciprocal(v), "a", RegracutError),
}

# None asks for no count guarantee, or for no default epsilon value
NONE_IS_NO_VALUE = {"count_spanning_copies eta": None,
                    "EpsilonFunction constant": "an epsilon function needs a table or a default"}


@pytest.mark.parametrize("value", ["0.3", None, True, np.True_, float("nan"), np.float32("nan")])
@pytest.mark.parametrize("entry", REALS)
def test_one_real_number_rule(entry, value):
    """A string or a bool once passed through `float()`, or leaked a bare
    TypeError; NaN slipped past some checks as an answer."""
    call, name, error = REALS[entry]
    message = f"{name} must be a real number, got {value!r}"
    if value is None and entry in NONE_IS_NO_VALUE:
        message = NONE_IS_NO_VALUE[entry]
        if message is None:
            call(value)
            return
    with pytest.raises(RegracutError) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


# call -> a value that each of the real types below holds exactly
REAL_CALLS = {
    "certify": (lambda v: rg.certify(G10, A3, B3, v), 0.25),
    "regularize": (lambda v: rg.regularize(G10, 2, v, cap=8).partition, 0.25),
    "sample_rgraph": (lambda v: rg.sample_rgraph(N, (v, 1 - v), seed=4), 0.25),
    "sample_digraph": (lambda v: rg.sample_digraph(N, v, v, seed=4), 0.25),
    "embedding_constants": (lambda v: rg.embedding_constants(v, 3), 0.5),
    "EpsilonFunction": (lambda v: rg.EpsilonFunction.constant(v)(3), 0.375),
    "theorem_error_terms": (lambda v: rg.theorem_error_terms(40, 5, 2, v), 0.125),
    "defect_cs_check": (lambda v: rg.defect_cs_check([v, 2.0, 3.0], 1), 0.5),
}


@pytest.mark.parametrize("kind", [np.float32, np.float64, Fraction])
@pytest.mark.parametrize("entry", REAL_CALLS)
def test_numpy_and_fraction_reals_read_as_floats(entry, kind):
    call, value = REAL_CALLS[entry]
    assert call(kind(value)) == call(value)


@pytest.mark.parametrize("method", ["exact", "auto", "heuristic"])
def test_huge_int_gamma_reads_as_inf(method):
    report = rg.certify(G10, A3, B3, 10**400, method)
    assert report == rg.certify(G10, A3, B3, float("inf"), method) and report.gamma == float("inf")
    with pytest.raises(RegracutError, match=r"^gamma must be positive, got -10{400}$"):
        rg.certify(G10, A3, B3, -10**400, method)


@pytest.mark.parametrize("command", ["sample", "decompose"])
def test_negative_seed_refused_by_the_cli(tmp_path, capsys, command):
    """numpy's generator refuses a negative seed with a bare ValueError, so
    the boundary refuses it first."""
    gpath = tmp_path / "g.graph"
    rg.write_graph(rg.sample_rgraph(24, (0.5, 0.5), seed=1), gpath)
    argv = {
        "sample": ["sample", "--kind", "rgraph", "--n", "24", "--p", "0.5,0.5", "--seed", "-1"],
        "decompose": ["decompose", "--input", str(gpath), "--m", "3", "--eps", "0.3",
                      "--seed", "-1", "--trials", "1"],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be at least 0, got -1\n"
