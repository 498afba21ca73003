"""Labeled templates: validation, canonical keys, embedding, enumeration, edit fractions."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut import typegraphs as tg
from regracut.errors import (
    ArrowClosureViolation,
    BadDistribution,
    BadState,
    ColorOutOfRange,
    DimensionMismatch,
    EmptyFamily,
    EmptyLabel,
    FullSelfLabel,
    KindMismatch,
    MissingPair,
    RegracutError,
    SearchSpaceTooLarge,
    SymmetryViolation,
)

from helpers import (
    class_representatives_reference,
    embeds_reference,
    enumerate_types_reference,
    expected_edit_fraction_reference,
    mono_digraph,
    mono_rgraph,
)

ALL_STATES = ("none", "bi", "fwd", "back")


def embeds_brute(H, K):
    """Reference embedding search: every map, checked from the definition."""
    directed = K.kind == "dirtype"
    for f in itertools.product(range(K.k), repeat=H.n):
        if _map_conforms(H, K, f, directed):
            return True, f
    return False, None


def _map_conforms(H, K, f, directed):
    for u, v in itertools.combinations(range(H.n), 2):
        if f[u] == f[v]:
            continue
        s = H.arc(u, v) if directed else H.color(u, v)
        if s not in K.phi(f[u], f[v]):
            return False
    for x in range(K.k):
        fiber = [v for v in range(H.n) if f[v] == x]
        lab = K.phi(x, x)
        if not directed:
            if any(H.color(a, b) not in lab for a, b in itertools.combinations(fiber, 2)):
                return False
            continue
        arcs = []
        for a, b in itertools.combinations(fiber, 2):
            s = H.arc(a, b)
            if s == "none":
                if "none" not in lab:
                    return False
            elif s == "bi":
                if "bi" not in lab:
                    return False
            elif s == "fwd":
                arcs.append((a, b))
            else:
                arcs.append((b, a))
        has_fwd, has_back = "fwd" in lab, "back" in lab
        if arcs and not (has_fwd or has_back):
            return False
        if has_fwd != has_back and not _fits_some_order(fiber, arcs):
            return False
    return True


def _fits_some_order(fiber, arcs):
    # Permutation search keeps this independent of the library's cycle test.
    for order in itertools.permutations(fiber):
        pos = {v: i for i, v in enumerate(order)}
        if all(pos[a] < pos[b] for a, b in arcs):
            return True
    return False


def color_triangle(color=1, r=2):
    return rg.new_rgraph(3, r, [(0, 1, color), (0, 2, color), (1, 2, color)])


class TestValidation:
    def test_empty_self_label_rejected(self):
        with pytest.raises(EmptyLabel):
            rg.rtype(2, [set()], {})

    def test_empty_edge_label_rejected(self):
        with pytest.raises(EmptyLabel):
            rg.rtype(2, [{1}, {2}], {(0, 1): set()})

    def test_full_color_self_label_rejected(self):
        with pytest.raises(FullSelfLabel):
            rg.rtype(2, [{1, 2}], {})

    def test_full_state_self_label_rejected(self):
        with pytest.raises(FullSelfLabel):
            rg.dirtype(rg.P0, [set(ALL_STATES)], {})

    def test_both_arrow_self_label_is_valid(self):
        # Under the two-arrow palette the whole palette is still a strict
        # subset of the four states, so a tournament fiber is legal.
        K = rg.dirtype(rg.P4, [{"fwd", "back"}], {})
        assert K.k == 1 and K.phi(0, 0) == frozenset({"fwd", "back"})

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRange):
            rg.rtype(2, [{3}], {})
        with pytest.raises(ColorOutOfRange):
            rg.rtype(2, [{1}, {2}], {(0, 1): {0}})

    def test_state_outside_palette(self):
        with pytest.raises(BadState):
            rg.dirtype(rg.P4, [{"bi"}], {})
        with pytest.raises(BadState):
            rg.dirtype(rg.P0, [{"zap"}], {})

    def test_missing_pair_label(self):
        with pytest.raises(MissingPair):
            rg.rtype(2, [{1}, {2}], {})
        with pytest.raises(MissingPair):
            rg.dirtype(rg.P4, [{"fwd"}, {"back"}], {})

    def test_symmetric_duplicate_keys(self):
        K = rg.rtype(2, [{1}, {2}], {(0, 1): {1}, (1, 0): {1}})
        assert K.phi(0, 1) == frozenset({1})
        with pytest.raises(SymmetryViolation):
            rg.rtype(2, [{1}, {2}], {(0, 1): {1}, (1, 0): {2}})

    def test_arrow_closure(self):
        K = rg.dirtype(rg.P4, [{"fwd"}, {"back"}], {(0, 1): {"fwd"}, (1, 0): {"back"}})
        assert K.phi(0, 1) == frozenset({"fwd"})
        assert K.phi(1, 0) == frozenset({"back"})
        with pytest.raises(ArrowClosureViolation):
            rg.dirtype(rg.P4, [{"fwd"}, {"back"}], {(0, 1): {"fwd"}, (1, 0): {"fwd"}})

    def test_bad_pair_keys(self):
        with pytest.raises(RegracutError):
            rg.rtype(2, [{1}, {2}], {(0, 2): {1}})
        with pytest.raises(RegracutError):
            rg.rtype(2, [{1}, {2}], {(0, 0): {1}, (0, 1): {1}})

    def test_phi_flips_direction(self):
        K = rg.dirtype(rg.P0, [{"none"}, {"bi"}], {(0, 1): {"fwd", "bi"}})
        assert K.phi(0, 1) == frozenset({"fwd", "bi"})
        assert K.phi(1, 0) == frozenset({"back", "bi"})

    def test_color_count_follows_the_integer_rule(self):
        """A numpy color count is a color count; a float, a bool or too few
        colors are refused with the integer rule's messages."""
        K = rg.rtype(2, [{1}, {2}], {(0, 1): {1, 2}})
        rg.validate_type(dataclasses.replace(K, r=np.int64(2)))
        for r, message in ((1, "r must be at least 2, got 1"), (2.0, "r must be an integer, got 2.0"),
                           (True, "r must be an integer, got True")):
            with pytest.raises(RegracutError, match=f"^{re.escape(message)}$"):
                rg.validate_type(dataclasses.replace(K, r=r))


class TestCanonicalKeys:
    def test_worked_key(self):
        K = rg.rtype(2, [{2}, {2}], {(0, 1): {1, 2}})
        assert rg.canonical_key(K) == ("rtype", 2, 2, (((2,), (1, 2)), ((1, 2), (2,))))

    def test_relabeling_invariance_pair(self):
        a = rg.rtype(2, [{1}, {2}], {(0, 1): {1}})
        b = rg.rtype(2, [{2}, {1}], {(0, 1): {1}})
        assert rg.canonical_key(a) == rg.canonical_key(b)

    def test_distinct_types_distinct_keys(self):
        a = rg.rtype(2, [{1}, {2}], {(0, 1): {1}})
        b = rg.rtype(2, [{1}, {2}], {(0, 1): {2}})
        assert rg.canonical_key(a) != rg.canonical_key(b)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance_random(self, data):
        r = data.draw(st.integers(2, 3), label="r")
        k = data.draw(st.integers(1, 4), label="k")
        colors = list(range(1, r + 1))
        proper = [c for c in _subsets(colors) if len(c) < r]
        selfs = [data.draw(st.sampled_from(proper)) for _ in range(k)]
        edges = {
            (i, j): data.draw(st.sampled_from(_subsets(colors)))
            for i, j in itertools.combinations(range(k), 2)
        }
        K = rg.rtype(r, selfs, edges)
        perm = data.draw(st.permutations(range(k)), label="perm")
        Kp = rg.rtype(
            r,
            [K.phi(perm[i], perm[i]) for i in range(k)],
            {
                (i, j): K.phi(perm[i], perm[j])
                for i, j in itertools.combinations(range(k), 2)
            },
        )
        assert rg.canonical_key(K) == rg.canonical_key(Kp)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance_directed(self, data):
        pal = data.draw(st.sampled_from([rg.P0, rg.P1, rg.P2, rg.P4]), label="palette")
        states = [s for s in ALL_STATES if s in pal]
        k = data.draw(st.integers(1, 3), label="k")
        full = frozenset(ALL_STATES)
        selfs_pool = [s for s in _subsets(states) if frozenset(s) != full]
        selfs = [data.draw(st.sampled_from(selfs_pool)) for _ in range(k)]
        edges = {
            (i, j): data.draw(st.sampled_from(_subsets(states)))
            for i, j in itertools.combinations(range(k), 2)
        }
        K = rg.dirtype(pal, selfs, edges)
        perm = data.draw(st.permutations(range(k)), label="perm")
        Kp = rg.dirtype(
            pal,
            [K.phi(perm[i], perm[i]) for i in range(k)],
            {
                (i, j): K.phi(perm[i], perm[j])
                for i, j in itertools.combinations(range(k), 2)
            },
        )
        assert rg.canonical_key(K) == rg.canonical_key(Kp)


def _subsets(elements):
    out = []
    for size in range(1, len(elements) + 1):
        out.extend(set(c) for c in itertools.combinations(elements, size))
    return out


class TestEmbeds:
    def test_single_vertex_embeds_everywhere(self):
        lone = rg.new_rgraph(1, 2, [])
        for selfs in ([{1}], [{2}], [{1}, {2}]):
            edges = {(0, 1): {1}} if len(selfs) == 2 else {}
            found, wit = rg.embeds(lone, rg.rtype(2, selfs, edges))
            assert found and wit == (0,)

    def test_more_colors_than_a_mask_holds_refused(self):
        K = rg.rtype(64, [{1}], {})
        with pytest.raises(RegracutError, match="^labels over r=64 colors do not fit an int64 mask$"):
            rg.embeds(rg.new_rgraph(1, 64, []), K)
        assert rg.embeds(rg.new_rgraph(1, 63, []), rg.rtype(63, [{63}], {})) == (True, (0,))

    def test_edge_against_wrong_fiber(self):
        edge = rg.new_rgraph(2, 2, [(0, 1, 1)])
        assert rg.embeds(edge, rg.rtype(2, [{2}], {})) == (False, None)
        found, wit = rg.embeds(edge, rg.rtype(2, [{2}, {2}], {(0, 1): {1}}))
        assert found and wit == (0, 1)

    def test_triangle_needs_a_matching_fiber(self):
        # Three vertices into two template vertices: some pair collapses,
        # and neither fiber accepts color 1.
        K = rg.rtype(2, [{2}, {2}], {(0, 1): {1}})
        assert rg.embeds(color_triangle(), K) == (False, None)
        assert embeds_brute(color_triangle(), K)[0] is False

    def test_directed_cycle_versus_one_way_fiber(self):
        cyc = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])
        assert rg.embeds(cyc, rg.dirtype(rg.P4, [{"fwd"}], {})) == (False, None)
        found, _ = rg.embeds(cyc, rg.dirtype(rg.P4, [{"fwd", "back"}], {}))
        assert found

    def test_transitive_triangle_fits_one_way_fiber(self):
        tt = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "fwd")])
        found, wit = rg.embeds(tt, rg.dirtype(rg.P4, [{"fwd"}], {}))
        assert found and wit == (0, 0, 0)

    def test_one_way_fiber_ignores_vertex_indexing(self):
        # The lone arc points high-to-low, but a transitive order exists.
        back_edge = rg.new_digraph(2, [(0, 1, "back")])
        assert rg.embeds(back_edge, rg.dirtype(rg.P4, [{"fwd"}], {}))[0]

    def test_fiber_state_membership(self):
        K_one_way = rg.dirtype(rg.P4, [{"fwd"}], {})
        K_undirected = rg.dirtype(rg.P3, [{"none", "bi"}], {})
        assert rg.embeds(rg.new_digraph(2, [(0, 1, "none")]), K_one_way) == (False, None)
        assert rg.embeds(rg.new_digraph(2, [(0, 1, "bi")]), K_one_way) == (False, None)
        assert rg.embeds(rg.new_digraph(2, [(0, 1, "fwd")]), K_undirected) == (False, None)
        assert rg.embeds(mono_digraph(3, "bi"), K_undirected)[0]

    def test_kind_and_arity_guards(self):
        edge = rg.new_rgraph(2, 2, [(0, 1, 1)])
        with pytest.raises(KindMismatch):
            rg.embeds(edge, rg.dirtype(rg.P4, [{"fwd"}], {}))
        with pytest.raises(KindMismatch):
            rg.embeds(mono_digraph(2, "bi"), rg.rtype(2, [{1}], {}))
        with pytest.raises(KindMismatch):
            rg.embeds(edge, rg.rtype(3, [{1}], {}))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_search_rgraph(self, data):
        r = data.draw(st.integers(2, 3), label="r")
        n = data.draw(st.integers(1, 5), label="n")
        H = rg.new_rgraph(
            n,
            r,
            [
                (u, v, data.draw(st.integers(1, r)))
                for u, v in itertools.combinations(range(n), 2)
            ],
        )
        k = data.draw(st.integers(1, 3), label="k")
        colors = list(range(1, r + 1))
        proper = [c for c in _subsets(colors) if len(c) < r]
        K = rg.rtype(
            r,
            [data.draw(st.sampled_from(proper)) for _ in range(k)],
            {
                (i, j): data.draw(st.sampled_from(_subsets(colors)))
                for i, j in itertools.combinations(range(k), 2)
            },
        )
        found, wit = rg.embeds(H, K)
        ref_found, ref_wit = embeds_brute(H, K)
        assert found == ref_found
        if found:
            assert wit == ref_wit  # lexicographically first witness
            assert _map_conforms(H, K, wit, directed=False)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_search_digraph(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        H = rg.new_digraph(
            n,
            [
                (u, v, data.draw(st.sampled_from(ALL_STATES)))
                for u, v in itertools.combinations(range(n), 2)
            ],
        )
        pal = data.draw(st.sampled_from(rg.PALETTES), label="palette")
        states = [s for s in ALL_STATES if s in pal]
        full = frozenset(ALL_STATES)
        selfs_pool = [s for s in _subsets(states) if frozenset(s) != full]
        k = data.draw(st.integers(1, 3), label="k")
        K = rg.dirtype(
            pal,
            [data.draw(st.sampled_from(selfs_pool)) for _ in range(k)],
            {
                (i, j): data.draw(st.sampled_from(_subsets(states)))
                for i, j in itertools.combinations(range(k), 2)
            },
        )
        found, wit = rg.embeds(H, K)
        ref_found, ref_wit = embeds_brute(H, K)
        assert found == ref_found
        if found:
            assert wit == ref_wit
            assert _map_conforms(H, K, wit, directed=True)


    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_unvalidated_templates_match_reference(self, data):
        # labels may be empty, full or use states outside the palette: the
        # search reads them over the whole alphabet, as given
        directed = data.draw(st.booleans(), label="directed")
        r = 2 if directed else data.draw(st.integers(2, 4), label="r")
        alphabet = list(ALL_STATES) if directed else list(range(1, r + 1))
        labels = st.sets(st.sampled_from(alphabet)).map(frozenset)
        n = data.draw(st.integers(1, 4), label="n")
        pairs = itertools.combinations(range(n), 2)
        if directed:
            H = rg.new_digraph(n, [(u, v, data.draw(st.sampled_from(ALL_STATES))) for u, v in pairs])
            head = {"kind": "dirtype", "palette": data.draw(st.sampled_from(rg.PALETTES))}
        else:
            H = rg.new_rgraph(n, r, [(u, v, data.draw(st.integers(1, r))) for u, v in pairs])
            head = {"kind": "rtype", "r": r}
        k = data.draw(st.integers(0, 4), label="k")
        K = rg.TypeGraph(
            k=k,
            self_labels=tuple(data.draw(labels) for _ in range(k)),
            pair_labels=tuple(data.draw(labels) for _ in range(k * (k - 1) // 2)),
            **head,
        )
        assert rg.embeds(H, K) == embeds_reference(H, K)


class TestEnumerateTypes:
    def setup_method(self):
        self.family = rg.ForbiddenFamily([color_triangle()])

    def test_counts_by_size_bound(self):
        for k_max, expected in ((1, 1), (2, 4), (3, 10)):
            fam = rg.enumerate_types(2, k_max, self.family)
            assert len(fam) == expected and fam.size_bound == k_max

    @pytest.mark.parametrize("r", [np.int64(2), np.uint8(2), np.int32(3)])
    def test_numpy_color_count_is_a_color_count(self, r):
        family = rg.ForbiddenFamily([color_triangle(r=int(r))])
        fam = rg.enumerate_types(r, 2, family)
        assert fam == rg.enumerate_types(int(r), 2, family)
        assert {type(K.r) for K in fam.types} == {int}

    @pytest.mark.parametrize("kind", [{"fwd", "back"}, 2.0])
    def test_kind_neither_color_count_nor_palette_refused(self, kind):
        family = rg.ForbiddenFamily([rg.new_digraph(2, [(0, 1, "bi")])])
        with pytest.raises(RegracutError, match="^digraph template needs a palette$"):
            rg.enumerate_types(kind, 1, family)

    def test_two_vertex_membership(self):
        fam = rg.enumerate_types(2, 2, self.family)
        keys = {rg.canonical_key(K) for K in fam}
        wanted = [rg.rtype(2, [{2}], {})] + [
            rg.rtype(2, [{2}, {2}], {(0, 1): lab}) for lab in ({1}, {2}, {1, 2})
        ]
        assert keys == {rg.canonical_key(K) for K in wanted}

    def test_growing_bound_only_adds(self):
        prev: set = set()
        for k_max in (1, 2, 3):
            keys = {rg.canonical_key(K) for K in rg.enumerate_types(2, k_max, self.family)}
            assert prev <= keys
            prev = keys

    def test_no_member_embeds_and_no_duplicates(self):
        fam = rg.enumerate_types(2, 3, self.family)
        keys = [rg.canonical_key(K) for K in fam]
        assert len(keys) == len(set(keys))
        for K in fam:
            assert embeds_brute(color_triangle(), K) == (False, None)

    def test_single_vertex_member_empties_the_family(self):
        lone = rg.ForbiddenFamily([rg.new_rgraph(1, 2, [])])
        assert len(rg.enumerate_types(2, 2, lone)) == 0

    def test_directed_single_vertex_labels(self):
        bi_pair = rg.ForbiddenFamily([mono_digraph(2, "bi")])
        fam = rg.enumerate_types(rg.P4, 1, bi_pair)
        labels = [sorted(K.self_labels[0]) for K in fam]
        assert labels == [["fwd"], ["back"], ["back", "fwd"]]

    def test_search_budget_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            rg.enumerate_types(2, 6, self.family)
        bi_pair = rg.ForbiddenFamily([mono_digraph(2, "bi")])
        with pytest.raises(SearchSpaceTooLarge):
            rg.enumerate_types(rg.P0, 3, bi_pair)

    def test_kind_guards(self):
        with pytest.raises(KindMismatch):
            rg.enumerate_types(3, 2, self.family)
        with pytest.raises(KindMismatch):
            rg.enumerate_types(2, 2, rg.ForbiddenFamily([mono_digraph(2, "bi")]))
        with pytest.raises(EmptyFamily):
            rg.ForbiddenFamily([])
        with pytest.raises(RegracutError):
            rg.enumerate_types(2, 0, self.family)

    def test_deterministic_order(self):
        a = rg.enumerate_types(2, 3, self.family)
        b = rg.enumerate_types(2, 3, self.family)
        assert [rg.canonical_key(K) for K in a] == [rg.canonical_key(K) for K in b]


# Largest k_max per kind at which the one-candidate-at-a-time reference
# stays fast enough for a property test.
REFERENCE_KMAX = {2: 3, 3: 2, "P0": 2, "P1": 2, "P2": 2, "P3": 3, "P4": 3}


def _representative_cases():
    """(kind, k, chunk) for every kind and size the budget admits, at the
    default chunk size, and at 7 candidates a chunk up to 80,000 candidates
    (r=3 at k=3 included)."""
    cases = []
    for kind in (2, 3, 4, 5, 6, 7, "P0", "P1", "P2", "P3", "P4"):
        codec = tg._LabelCodec(rg.palette(kind) if isinstance(kind, str) else kind)
        for k in itertools.count(1):
            total = len(codec.self_masks) ** k * len(codec.masks) ** (k * (k - 1) // 2)
            if total > tg._CANDIDATE_BUDGET:
                break
            cases += [(kind, k, tg._CHUNK)] + [(kind, k, 7)] * (total <= 80_000)
    return cases


REPRESENTATIVE_CASES = _representative_cases()


def _random_family(data, kind):
    members = []
    for _ in range(data.draw(st.integers(1, 2), label="members")):
        n = data.draw(st.integers(1, 4), label="n")
        pairs = itertools.combinations(range(n), 2)
        if isinstance(kind, int):
            colors = st.integers(1, kind)
            members.append(rg.new_rgraph(n, kind, [(u, v, data.draw(colors)) for u, v in pairs]))
        else:
            states = st.sampled_from(ALL_STATES)
            members.append(rg.new_digraph(n, [(u, v, data.draw(states)) for u, v in pairs]))
    return rg.ForbiddenFamily(members)


def _template_elements(kind):
    if isinstance(kind, int):
        return tuple(range(1, kind + 1)), {"kind": "rtype", "r": kind}
    pal = rg.palette(kind)
    return tuple(s for s in ALL_STATES if s in pal), {"kind": "dirtype", "palette": pal}


class TestEnumerationAgainstReference:
    """The code-tensor enumeration against the one-candidate-at-a-time loop."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, data):
        kind = data.draw(st.sampled_from(sorted(REFERENCE_KMAX, key=str)), label="kind")
        k_max = data.draw(st.integers(1, REFERENCE_KMAX[kind]), label="k_max")
        family = _random_family(data, kind)
        assert rg.enumerate_types(kind, k_max, family) == enumerate_types_reference(
            kind, k_max, family
        )

    @pytest.mark.parametrize(
        "kind, k_max, family",
        [
            (2, 0, rg.ForbiddenFamily([color_triangle()])),
            (3, 2, rg.ForbiddenFamily([color_triangle()])),
            ("P0", 2, rg.ForbiddenFamily([color_triangle()])),
            (2, 2, rg.ForbiddenFamily([mono_digraph(2, "bi")])),
            ("P9", 1, rg.ForbiddenFamily([mono_digraph(2, "bi")])),
            (2, 6, rg.ForbiddenFamily([color_triangle()])),
            ("P0", 3, rg.ForbiddenFamily([mono_digraph(2, "bi")])),
        ],
    )
    def test_same_errors(self, kind, k_max, family):
        with pytest.raises(RegracutError) as ref:
            enumerate_types_reference(kind, k_max, family)
        with pytest.raises(type(ref.value), match=re.escape(str(ref.value))):
            rg.enumerate_types(kind, k_max, family)

    def test_budget_checked_before_any_label_is_built(self):
        # 2**40 labels would exhaust memory; the count alone rejects them
        family = rg.ForbiddenFamily([rg.new_rgraph(2, 40, [(0, 1, 1)])])
        with pytest.raises(SearchSpaceTooLarge):
            rg.enumerate_types(40, 1, family)

    @pytest.mark.parametrize(
        "member",
        [rg.new_rgraph(2, 14, [(0, 1, 1)]),
         rg.new_rgraph(3, 14, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])],
    )
    def test_many_colors_one_vertex(self, member):
        # 2**14 labels: the label tables must stay linear in their number
        family = rg.ForbiddenFamily([member])
        assert rg.enumerate_types(14, 1, family) == enumerate_types_reference(14, 1, family)

    @pytest.mark.parametrize(
        "states, member",
        [(["none"], mono_digraph(2, "bi")),
         (["none"], rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])),
         ([], mono_digraph(2, "bi"))],
    )
    def test_one_label_or_none_past_k5(self, states, member):
        # at most one candidate per k, so the budget lets k_max grow; no
        # k! relabeling table may be built for it
        family = rg.ForbiddenFamily([member])
        pal = rg.Palette("X", states)
        k_max = 6 if states else 20
        assert rg.enumerate_types(pal, k_max, family) == enumerate_types_reference(
            pal, k_max, family
        )

    @pytest.mark.parametrize("r, k_max", [(2, 9), (6, 5)])
    def test_flat_indices_must_fit_int64(self, monkeypatch, r, k_max):
        # r=2 at k=9 has 2**9 * 3**36 candidates and r=6 at k=5 has
        # 62**5 * 63**10, past int64; a larger budget must fail loudly before
        # any candidate is generated
        monkeypatch.setattr(tg, "_CANDIDATE_BUDGET", 10**30)
        monkeypatch.setattr(tg, "_class_representatives",
                            lambda *args: pytest.fail("candidates generated past int64"))
        with pytest.raises(AssertionError, match="int64"):
            rg.enumerate_types(r, k_max, rg.ForbiddenFamily([color_triangle(r=r)]))

    @pytest.mark.parametrize("kind, k, chunk", REPRESENTATIVE_CASES)
    def test_representatives_as_reference(self, monkeypatch, kind, k, chunk):
        codec = tg._LabelCodec(rg.palette(kind) if isinstance(kind, str) else kind)
        expect = np.concatenate(list(class_representatives_reference(k, codec)))
        monkeypatch.setattr(tg, "_CHUNK", chunk)
        got = list(tg._class_representatives(k, codec))
        assert all(M.dtype == np.int64 and M.shape[1:] == (k, k) for M in got)
        assert np.array_equal(np.concatenate(got), expect)

    @pytest.mark.parametrize(
        "kind, k_max, member",
        [
            (2, 3, color_triangle()),
            (3, 2, color_triangle(r=3)),
            ("P1", 2, mono_digraph(3, "bi")),
            ("P3", 3, mono_digraph(3, "none")),
            ("P4", 3, rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])),
        ],
    )
    def test_chunk_boundaries(self, monkeypatch, kind, k_max, member):
        family = rg.ForbiddenFamily([member])
        monkeypatch.setattr(tg, "_CHUNK", 7)
        assert rg.enumerate_types(kind, k_max, family) == enumerate_types_reference(
            kind, k_max, family
        )

    @pytest.mark.parametrize(
        "kind, k_max, members",
        [
            (2, 3, [color_triangle(), rg.new_rgraph(4, 2, [(0, 1, 1), (0, 2, 2), (0, 3, 1),
                                                          (1, 2, 1), (1, 3, 2), (2, 3, 2)])]),
            (3, 3, [color_triangle(r=3), rg.new_rgraph(3, 3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])]),
            ("P0", 2, [mono_digraph(3, "fwd"), mono_digraph(2, "none")]),
            ("P2", 3, [rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])]),
            ("P3", 3, [mono_digraph(3, "bi"), rg.new_digraph(3, [(0, 1, "none"), (0, 2, "bi"),
                                                              (1, 2, "none")])]),
            ("P4", 3, [rg.new_digraph(4, [(0, 1, "fwd"), (1, 2, "fwd"), (2, 3, "fwd"),
                                          (0, 3, "back"), (0, 2, "fwd"), (1, 3, "back")]),
                       mono_digraph(3, "fwd")]),
        ],
    )
    def test_batched_filter_agrees_with_embeds(self, monkeypatch, kind, k_max, members):
        batches = []
        batched = tg._embeds_batch

        def recording(H, M, codec):
            hit, maps = batched(H, M, codec)
            batches.append((H, M, hit))
            return hit, maps

        monkeypatch.setattr(tg, "_embeds_batch", recording)
        rg.enumerate_types(kind, k_max, rg.ForbiddenFamily(members))
        elements, head = _template_elements(kind)

        def label(mask):
            return frozenset(e for i, e in enumerate(elements) if mask >> i & 1)

        verdicts = set()
        for H, M, hit in batches:
            k = M.shape[1]
            pairs = list(itertools.combinations(range(k), 2))
            for m, flag in zip(M.tolist(), hit.tolist()):
                K = rg.TypeGraph(
                    k=k,
                    self_labels=tuple(label(m[x][x]) for x in range(k)),
                    pair_labels=tuple(label(m[u][v]) for u, v in pairs),
                    **head,
                )
                assert flag == embeds_reference(H, K)[0]
                verdicts.add(flag)
        assert verdicts == {True, False}


class TestExpectedEditFraction:
    def test_single_vertex_complement_weight(self):
        K = rg.rtype(2, [{1}], {})
        for p1 in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert rg.expected_edit_fraction(K, (p1, 1 - p1)) == pytest.approx(
                1 - p1, abs=1e-12
            )

    def test_split_template_quarter_for_any_weights(self):
        K = rg.rtype(2, [{1}, {2}], {(0, 1): {1, 2}})
        for p1 in (0.0, 0.3, 0.5, 0.75, 1.0):
            assert rg.expected_edit_fraction(K, (p1, 1 - p1)) == pytest.approx(
                0.25, abs=1e-12
            )

    def test_hand_expansion(self):
        # phi(0,0)={1}, phi(1,1)={2}, phi(0,1)={1}: terms 0.7+0.3+0.7+0.7 over 4.
        K = rg.rtype(2, [{1}, {2}], {(0, 1): {1}})
        assert rg.expected_edit_fraction(K, (0.3, 0.7)) == pytest.approx(0.6, abs=1e-12)

    def test_tournament_template(self):
        K = rg.dirtype(rg.P4, [{"fwd", "back"}], {})
        assert rg.expected_edit_fraction(K, (0.0, 0.5)) == pytest.approx(0.0, abs=1e-12)
        assert rg.expected_edit_fraction(K, (0.0, 0.3)) == pytest.approx(0.4, abs=1e-12)

    def test_directed_state_weights(self):
        # none carries weight 1-p-2q, bi carries p, each arrow direction q.
        assert rg.expected_edit_fraction(
            rg.dirtype(rg.P3, [{"none"}], {}), (0.2, 0.1)
        ) == pytest.approx(0.4, abs=1e-12)
        assert rg.expected_edit_fraction(
            rg.dirtype(rg.P1, [{"bi"}], {}), (0.4, 0.3)
        ) == pytest.approx(0.6, abs=1e-12)

    @given(
        p1=st.floats(0, 1),
        q1=st.floats(0, 1),
        lam=st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_in_the_weights(self, p1, q1, lam):
        K = rg.rtype(2, [{1}, {2}], {(0, 1): {2}})
        a, b = (p1, 1 - p1), (q1, 1 - q1)
        mix = tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
        expect = lam * rg.expected_edit_fraction(K, a) + (1 - lam) * rg.expected_edit_fraction(K, b)
        assert rg.expected_edit_fraction(K, mix) == pytest.approx(expect, abs=1e-9)

    def test_unit_interval_over_enumerated_family(self):
        fam = rg.enumerate_types(2, 3, rg.ForbiddenFamily([color_triangle()]))
        for K in fam:
            for p1 in (0.0, 0.2, 0.5, 0.8, 1.0):
                f = rg.expected_edit_fraction(K, (p1, 1 - p1))
                assert -1e-12 <= f <= 1 + 1e-12

    def test_weight_count_guards(self):
        with pytest.raises(DimensionMismatch):
            rg.expected_edit_fraction(rg.rtype(3, [{1}], {}), (0.5, 0.5))
        with pytest.raises(DimensionMismatch):
            rg.expected_edit_fraction(rg.dirtype(rg.P4, [{"fwd"}], {}), (0.1, 0.2, 0.3))


def _weights(data, kind):
    """A distribution for templates of the kind: r color weights or (p, q)."""
    if isinstance(kind, int):
        w = [data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="w")
             for _ in range(kind)]
        w[0] += sum(w) == 0
        return tuple(x / sum(w) for x in w)
    q = data.draw(st.floats(0.0, 0.5), label="q")
    return data.draw(st.floats(0.0, 1.0 - 2 * q), label="p"), q


def _hand_built(data, kind):
    """A template built through the public factories; digraph pairs are
    given from either endpoint."""
    elements, head = _template_elements(kind)
    k = data.draw(st.integers(1, 4), label="k")
    label = st.frozensets(st.sampled_from(elements), min_size=1)
    full = frozenset(elements if isinstance(kind, int) else ALL_STATES)
    selfs = [data.draw(label.filter(lambda lab: lab != full), label="self") for _ in range(k)]
    edges = {}
    for u, v in itertools.combinations(range(k), 2):
        lab = data.draw(label, label="pair")
        if data.draw(st.booleans(), label="from v") and not isinstance(kind, int):
            edges[(v, u)] = {rg.flip_state(x) for x in lab} & set(elements)
        else:
            edges[(u, v)] = lab
    if isinstance(kind, int):
        return rg.rtype(kind, selfs, edges)
    return rg.dirtype(head["palette"], selfs, edges)


class TestPricingAgainstReference:
    """Edit fractions and bounds equal, bit for bit, the Python loop over
    `TypeGraph.phi` that `expected_edit_fraction` used to be."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_templates(self, data):
        kind = data.draw(st.sampled_from([2, 3, 4, "P0", "P1", "P2", "P3", "P4"]), label="kind")
        K = _hand_built(data, kind)
        dist = _weights(data, kind)
        assert rg.expected_edit_fraction(K, dist) == expected_edit_fraction_reference(K, dist)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_enumerated_families_and_their_bound(self, data):
        kind = data.draw(st.sampled_from(sorted(REFERENCE_KMAX, key=str)), label="kind")
        k_max = data.draw(st.integers(1, REFERENCE_KMAX[kind]), label="k_max")
        family = rg.enumerate_types(kind, k_max, _random_family(data, kind))
        # a few hand-built templates of other sizes, appended out of order
        extra = tuple(_hand_built(data, kind) for _ in range(data.draw(st.integers(0, 2))))
        family = rg.TypeFamily(types=family.types + extra, size_bound=k_max)
        dist = _weights(data, kind)
        n = data.draw(st.integers(2, 500), label="n")
        if not family.types:
            return
        expect = [expected_edit_fraction_reference(K, dist) for K in family]
        assert [rg.expected_edit_fraction(K, dist) for K in family] == expect
        best = expect.index(max(expect))
        rep = rg.edit_distance_lower_bound(dist, family, n)
        assert rep.type is family.types[best]
        assert rep.fraction == expect[best] and rep.value == expect[best] * n * (n - 1) / 2

    def test_the_bench_family(self):
        # the bench's largest templates job, at a few weight vectors
        family = rg.enumerate_types(3, 3, rg.ForbiddenFamily([color_triangle(r=3)]))
        for dist in [(0.2, 0.3, 0.5), (1 / 3,) * 3, (0.0, 0.0, 1.0), (0.7, 0.2, 0.1)]:
            expect = [expected_edit_fraction_reference(K, dist) for K in family]
            rep = rg.edit_distance_lower_bound(dist, family, 100)
            assert rep.fraction == max(expect) and rep.type is family.types[expect.index(max(expect))]


class TestErrorTerms:
    def test_hand_formula(self):
        n, k, r, eps = 100, 3, 2, 0.1
        lo, hi = n // k, math.ceil(n / k)
        pairs = k * (k - 1) // 2
        terms = rg.theorem_error_terms(n, k, r, eps)
        assert terms["rounding"] == pytest.approx(n * (n - 1) / 2 - k * k / 2 * lo * lo)
        assert terms["diagonal"] == pytest.approx(k / 2 * lo * lo)
        assert terms["density_concentration"] == pytest.approx(r * pairs * lo ** (5 / 3))
        assert terms["irregular_pairs"] == pytest.approx(eps * r * pairs * hi * hi)
        assert terms["deviating_pairs"] == pytest.approx(eps * k * k * hi * hi)
        assert terms["total"] == pytest.approx(
            sum(v for key, v in terms.items() if key != "total")
        )

    def test_domain_guard(self):
        with pytest.raises(RegracutError):
            rg.theorem_error_terms(5, 0, 2, 0.1)
        with pytest.raises(RegracutError):
            rg.theorem_error_terms(3, 5, 2, 0.1)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_eps_must_be_positive(self, eps):
        rule = "be a real number" if eps != eps else "be positive"  # NaN is not a real number
        with pytest.raises(RegracutError, match=f"^eps must {rule}, got {eps}$"):
            rg.theorem_error_terms(40, 5, 2, eps)


class TestLowerBound:
    def test_worked_example(self):
        fam = rg.TypeFamily(types=(rg.rtype(2, [{2}], {}),), size_bound=1)
        rep = rg.edit_distance_lower_bound((0.5, 0.5), fam, 10)
        assert rep.fraction == pytest.approx(0.5, abs=1e-12)
        assert rep.value == pytest.approx(22.5, abs=1e-12)

    def test_argmax_over_family(self):
        ka, kb = rg.rtype(2, [{1}], {}), rg.rtype(2, [{2}], {})
        fam = rg.TypeFamily(types=(ka, kb), size_bound=1)
        rep = rg.edit_distance_lower_bound((0.3, 0.7), fam, 10)
        assert rep.type is ka
        assert rep.fraction == pytest.approx(0.7, abs=1e-12)
        assert rep.value == pytest.approx(0.7 * 45, abs=1e-12)

    def test_tie_keeps_enumeration_order(self):
        ka, kb = rg.rtype(2, [{1}], {}), rg.rtype(2, [{2}], {})
        fam = rg.TypeFamily(types=(ka, kb), size_bound=1)
        assert rg.edit_distance_lower_bound((0.5, 0.5), fam, 10).type is ka

    def test_degenerate_weights(self):
        fam = rg.TypeFamily(types=(rg.rtype(2, [{2}], {}),), size_bound=1)
        rep = rg.edit_distance_lower_bound((1.0, 0.0), fam, 6)
        assert rep.fraction == pytest.approx(1.0, abs=1e-12)
        assert rep.value == pytest.approx(15.0, abs=1e-12)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            rg.edit_distance_lower_bound((0.5, 0.5), rg.TypeFamily(types=(), size_bound=1), 5)

    @pytest.mark.parametrize(
        "K, dist",
        [
            (rg.rtype(3, [{1}], {}), (5, 5, 5)),
            (rg.rtype(2, [{1}], {}), (1.5, -0.5)),
            (rg.rtype(3, [{2}], {}), (math.nan, 0.5, 0.5)),
            (rg.rtype(2, [{2}], {}), (0.5, 0.6)),
            (rg.dirtype(rg.P0, [{"none"}], {}), (-0.1, 0.2)),
            (rg.dirtype(rg.P4, [{"fwd"}], {}), (math.nan, 0.5)),
            (rg.dirtype(rg.P3, [{"bi"}], {}), (0.5, 0.4)),
        ],
    )
    def test_weights_must_be_a_distribution(self, K, dist):
        fam = rg.TypeFamily(types=(K,), size_bound=K.k)
        with pytest.raises(BadDistribution):
            rg.edit_distance_lower_bound(dist, fam, 10)
        with pytest.raises(BadDistribution):
            rg.expected_edit_fraction(K, dist)

    def test_weight_count_checked_first(self):
        # the length check comes before the distribution check, for every
        # template kind in the family
        fam = rg.TypeFamily(types=(rg.rtype(2, [{1}], {}), rg.rtype(3, [{1}], {})), size_bound=1)
        with pytest.raises(DimensionMismatch, match="expected 3 weights, got 2"):
            rg.edit_distance_lower_bound((0.5, 0.5), fam, 10)
        with pytest.raises(DimensionMismatch, match="expected 2 weights, got 3"):
            rg.edit_distance_lower_bound((5, 5, 5), fam, 10)
        with pytest.raises(DimensionMismatch, match=re.escape("expected (p, q), got 3 weights")):
            rg.expected_edit_fraction(rg.dirtype(rg.P0, [{"none"}], {}), (-1, -1, -1))

    def test_weights_read_once(self):
        # a one-shot iterable serves every template kind of a mixed family
        fam = rg.TypeFamily(types=(rg.rtype(2, [{1}], {}), rg.dirtype(rg.P3, [{"none"}], {})),
                            size_bound=1)
        rep = rg.edit_distance_lower_bound(iter((1.0, 0.0)), fam, 10)
        assert rep.type is fam.types[1] and rep.fraction == 1.0


class TestTypeJson:
    def test_round_trip_rtype(self):
        K = rg.rtype(2, [{1}, {2}], {(0, 1): {1, 2}})
        obj = rg.type_to_json(K)
        assert obj == {
            "kind": "rtype",
            "r": 2,
            "k": 2,
            "self": [[1], [2]],
            "edges": [{"u": 0, "v": 1, "labels": [1, 2]}],
        }
        assert rg.canonical_key(rg.type_from_json(obj)) == rg.canonical_key(K)

    def test_round_trip_dirtype(self):
        K = rg.dirtype(rg.P4, [{"fwd", "back"}], {})
        obj = rg.type_to_json(K)
        assert obj == {
            "kind": "dirtype",
            "palette": "P4",
            "k": 1,
            "self": [["fwd", "back"]],
            "edges": [],
        }
        assert rg.canonical_key(rg.type_from_json(obj)) == rg.canonical_key(K)

    def test_round_trip_enumerated_family(self):
        fam = rg.enumerate_types(2, 3, rg.ForbiddenFamily([color_triangle()]))
        for K in fam:
            assert rg.canonical_key(rg.type_from_json(rg.type_to_json(K))) == rg.canonical_key(K)

    def test_malformed_objects_rejected(self):
        with pytest.raises(KindMismatch):
            rg.type_from_json({"kind": "ztype", "r": 2, "k": 1, "self": [[1]], "edges": []})
        with pytest.raises(FullSelfLabel):
            rg.type_from_json({"kind": "rtype", "r": 2, "k": 1, "self": [[1, 2]], "edges": []})
        with pytest.raises(MissingPair):
            rg.type_from_json(
                {"kind": "rtype", "r": 2, "k": 2, "self": [[1], [2]], "edges": []}
            )
        with pytest.raises(BadState):
            rg.type_from_json(
                {"kind": "dirtype", "palette": "P9", "k": 1, "self": [["fwd"]], "edges": []}
            )
