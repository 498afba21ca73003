"""One vertex-set rule at every public function that takes vertex sets.

Each set must be nonempty (except where a function counts over possibly
empty parts), hold no vertex twice and lie inside 0..n-1, and no two sets
may share a vertex.  Errors name a set by its role: "A" or "B" in a pair,
"part i" or "block i" in a list.
"""

import pytest

import regracut as rg
from regracut.errors import (
    BadPartition,
    EmptySet,
    OverlappingSets,
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
    with pytest.raises(RegracutError) as info:
        calls[entry]()
    assert type(info.value) is RegracutError
    assert str(info.value) == f"{name} must be positive, got {value}"


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
