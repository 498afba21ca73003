"""Edit distance, induced copies, property distance, template fitting."""

import gc
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import regracut as rg
from regracut import editdist
from regracut import typegraphs as tg
from regracut.editdist import _MAP_BUDGET
from regracut.errors import (
    BadState,
    KindMismatch,
    OverlappingSets,
    RegracutError,
    SearchSpaceTooLarge,
    SizeMismatch,
    TooLargeForExact,
)

from helpers import (
    construct_type_reference,
    distance_to_property_reference,
    fit_to_type_reference,
    induced_copy_reference,
    mono_digraph,
    mono_rgraph,
)
from test_typegraphs import _map_conforms

ALL_STATES = ("none", "bi", "fwd", "back")


def color_triangle(color=1):
    return rg.new_rgraph(3, 2, [(0, 1, color), (0, 2, color), (1, 2, color)])


def differing_pairs(G, H):
    directed = isinstance(G, rg.Digraph)
    count = 0
    for u, v in itertools.combinations(range(G.n), 2):
        a = G.arc(u, v) if directed else G.color(u, v)
        b = H.arc(u, v) if directed else H.color(u, v)
        count += a != b
    return count


def copy_exists_brute(G, H):
    directed = isinstance(G, rg.Digraph)
    for image in itertools.permutations(range(G.n), H.n):
        if _image_matches(G, H, image, directed):
            return True
    return False


def _image_matches(G, H, image, directed):
    for i, j in itertools.combinations(range(H.n), 2):
        u, v = image[i], image[j]
        if directed:
            if G.arc(u, v) != H.arc(i, j):
                return False
        elif G.color(u, v) != H.color(i, j):
            return False
    return True


def random_rgraph(data, n, r=2):
    return rg.new_rgraph(
        n,
        r,
        [
            (u, v, data.draw(st.integers(1, r)))
            for u, v in itertools.combinations(range(n), 2)
        ],
    )


def random_digraph(data, n):
    return rg.new_digraph(
        n,
        [
            (u, v, data.draw(st.sampled_from(ALL_STATES)))
            for u, v in itertools.combinations(range(n), 2)
        ],
    )


def induced_subgraph(G, vertices):
    pairs = itertools.combinations(range(len(vertices)), 2)
    if isinstance(G, rg.Digraph):
        return rg.new_digraph(len(vertices), [(i, j, G.arc(vertices[i], vertices[j])) for i, j in pairs])
    return rg.new_rgraph(len(vertices), G.r, [(i, j, G.color(vertices[i], vertices[j])) for i, j in pairs])


def nonempty_subsets(elements, proper):
    sizes = range(1, len(elements) + (0 if proper else 1))
    return [set(c) for s in sizes for c in itertools.combinations(elements, s)]


class TestEditDistance:
    def test_identical_graphs(self):
        G = mono_rgraph(5, 2, 1)
        assert rg.edit_distance(G, G) == 0

    def test_complement_touches_every_pair(self):
        assert rg.edit_distance(mono_rgraph(5, 2, 1), mono_rgraph(5, 2, 2)) == 10

    def test_single_flip(self):
        G = mono_rgraph(4, 2, 1)
        assert rg.edit_distance(G, G.with_color(1, 3, 2)) == 1

    def test_digraph_pair_is_one_edit(self):
        G = mono_digraph(4, "bi")
        assert rg.edit_distance(G, G.with_state(0, 2, "none")) == 1
        assert rg.edit_distance(G, mono_digraph(4, "fwd")) == 6

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_differing_pairs(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        G = random_rgraph(data, n, r=3)
        H = random_rgraph(data, n, r=3)
        d = rg.edit_distance(G, H)
        assert d == differing_pairs(G, H)
        assert d == rg.edit_distance(H, G)

    def test_mismatch_guards(self):
        with pytest.raises(SizeMismatch):
            rg.edit_distance(mono_rgraph(5, 2, 1), mono_rgraph(3, 2, 1))
        with pytest.raises(KindMismatch):
            rg.edit_distance(mono_rgraph(5, 2, 1), mono_digraph(5, "bi"))
        with pytest.raises(KindMismatch):
            rg.edit_distance(mono_rgraph(5, 2, 1), mono_rgraph(5, 3, 1))


class TestInducedCopies:
    def test_planted_triangle_found(self):
        G = rg.new_rgraph(
            4, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 2), (1, 3, 2), (2, 3, 2)]
        )
        image = rg.find_induced_copy(G, color_triangle())
        assert image == (0, 1, 2)
        assert rg.has_induced_copy(G, color_triangle())

    def test_absent_pattern(self):
        assert rg.find_induced_copy(mono_rgraph(5, 2, 2), color_triangle()) is None
        assert not rg.has_induced_copy(mono_rgraph(5, 2, 2), color_triangle())

    def test_pattern_larger_than_host(self):
        assert rg.find_induced_copy(mono_rgraph(2, 2, 1), color_triangle()) is None

    def test_exact_color_match_required(self):
        # A color-2 pair is not a copy of a color-1 pair.
        edge2 = rg.new_rgraph(2, 2, [(0, 1, 2)])
        host = mono_rgraph(3, 2, 1)
        assert rg.find_induced_copy(host, edge2) is None

    def test_arc_direction_match_required(self):
        host = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "fwd")])
        fwd_pair = rg.new_digraph(2, [(0, 1, "fwd")])
        back_pair = rg.new_digraph(2, [(0, 1, "back")])
        image = rg.find_induced_copy(host, fwd_pair)
        assert image is not None
        # back means high-to-low, so the same host arc appears reversed.
        rev = rg.find_induced_copy(host, back_pair)
        assert rev is not None
        u, v = rev
        assert host.arc(u, v) == "back"

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_search(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        m = data.draw(st.integers(1, min(3, n)), label="m")
        G = random_rgraph(data, n)
        H = random_rgraph(data, m)
        image = rg.find_induced_copy(G, H)
        assert (image is not None) == copy_exists_brute(G, H)
        if image is not None:
            assert len(set(image)) == len(image)
            assert _image_matches(G, H, image, directed=False)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_search_digraph(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        m = data.draw(st.integers(1, min(3, n)), label="m")
        G = rg.new_digraph(
            n,
            [
                (u, v, data.draw(st.sampled_from(ALL_STATES)))
                for u, v in itertools.combinations(range(n), 2)
            ],
        )
        H = rg.new_digraph(
            m,
            [
                (u, v, data.draw(st.sampled_from(ALL_STATES)))
                for u, v in itertools.combinations(range(m), 2)
            ],
        )
        image = rg.find_induced_copy(G, H)
        assert (image is not None) == copy_exists_brute(G, H)
        if image is not None:
            assert _image_matches(G, H, image, directed=True)


def first_map_reference(G, H):
    return induced_copy_reference(G._mp1.tolist(), H._mp1.tolist())


class TestCopySearchAgainstReference:
    """The bitset search returns the backtracking reference's first map,
    not just the same yes or no."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_map(self, data):
        directed = data.draw(st.booleans(), label="directed")
        values = ALL_STATES if directed else (1, 2, 3)[:data.draw(st.integers(2, 3), label="r")]
        n = data.draw(st.integers(1, 8), label="n")
        # a sparse host is one value with a few exceptions, so most patterns
        # have no copy and the search exhausts its tree
        base = data.draw(st.sampled_from(values), label="base")
        exceptions = data.draw(st.sampled_from([0.0, 0.1, 1.0]), label="exceptions")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        pairs = itertools.combinations(range(n), 2)
        host = [(u, v, rng.choice(values) if rng.random() < exceptions else base) for u, v in pairs]
        G = rg.new_digraph(n, host) if directed else rg.new_rgraph(n, len(values), host)
        h = data.draw(st.integers(1, 5), label="h")
        if h <= n and data.draw(st.booleans(), label="planted"):
            H = induced_subgraph(G, data.draw(st.permutations(range(n)), label="order")[:h])
        elif directed:
            H = random_digraph(data, h)
        else:
            H = random_rgraph(data, h, len(values))
        image = rg.find_induced_copy(G, H)
        assert image == first_map_reference(G, H)
        assert rg.has_induced_copy(G, H) == (image is not None)

    def test_hosts_wider_than_a_machine_word(self):
        tri = color_triangle()
        for n, p, seed in [(70, (0.5, 0.5), 1), (70, (0.03, 0.97), 2), (130, (0.1, 0.9), 3)]:
            G = rg.sample_rgraph(n, p, seed=seed)
            assert rg.find_induced_copy(G, tri) == first_map_reference(G, tri)
        cycle = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])
        for n, q in [(70, 0.3), (70, 0.01)]:
            G = rg.sample_digraph(n, 0.01, q, seed=4)
            assert rg.find_induced_copy(G, cycle) == first_map_reference(G, cycle)


class TestDistanceToProperty:
    def test_already_avoiding(self):
        family = rg.ForbiddenFamily([color_triangle()])
        d, witness = rg.distance_to_property(mono_rgraph(5, 2, 2), family)
        assert d == 0
        assert rg.edit_distance(witness, mono_rgraph(5, 2, 2)) == 0

    def test_triangle_needs_one_edit(self):
        family = rg.ForbiddenFamily([color_triangle()])
        d, witness = rg.distance_to_property(color_triangle(), family)
        assert d == 1
        assert not rg.has_induced_copy(witness, color_triangle())
        assert rg.edit_distance(color_triangle(), witness) == 1

    def test_forbidden_edge_forces_full_recolor(self):
        # Avoiding a color-1 pair means recoloring every color-1 pair.
        family = rg.ForbiddenFamily([rg.new_rgraph(2, 2, [(0, 1, 1)])])
        for bits in itertools.product((1, 2), repeat=6):
            pairs = list(itertools.combinations(range(4), 2))
            G = rg.new_rgraph(4, 2, [(u, v, c) for (u, v), c in zip(pairs, bits)])
            d, witness = rg.distance_to_property(G, family)
            assert d == sum(1 for c in bits if c == 1)
            assert rg.edit_distance(witness, mono_rgraph(4, 2, 2)) == 0

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_minimum_over_all_recolorings(self, data):
        family = rg.ForbiddenFamily([color_triangle()])
        G = random_rgraph(data, 4)
        d, witness = rg.distance_to_property(G, family)
        assert not rg.has_induced_copy(witness, color_triangle())
        assert rg.edit_distance(G, witness) == d
        best = min(
            differing_pairs(G, H)
            for bits in itertools.product((1, 2), repeat=6)
            for H in [
                rg.new_rgraph(
                    4,
                    2,
                    [
                        (u, v, c)
                        for (u, v), c in zip(itertools.combinations(range(4), 2), bits)
                    ],
                )
            ]
            if not rg.has_induced_copy(H, color_triangle())
        )
        assert d == best

    def test_digraph_family(self):
        family = rg.ForbiddenFamily([rg.new_digraph(2, [(0, 1, "bi")])])
        G = rg.new_digraph(3, [(0, 1, "bi"), (0, 2, "fwd"), (1, 2, "bi")])
        d, witness = rg.distance_to_property(G, family)
        assert d == 2
        assert all(
            witness.arc(u, v) != "bi" for u, v in itertools.combinations(range(3), 2)
        )

    def test_digraph_family_exhaustive(self):
        # the property is "transitive tournament", so witnesses need single arrows
        cycle = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])
        family = rg.ForbiddenFamily(
            [cycle] + [rg.new_digraph(2, [(0, 1, s)]) for s in ("none", "bi")]
        )
        pairs = list(itertools.combinations(range(3), 2))
        graphs = [
            rg.new_digraph(3, [(u, v, s) for (u, v), s in zip(pairs, states)])
            for states in itertools.product(ALL_STATES, repeat=3)
        ]
        free = [H for H in graphs if not any(rg.has_induced_copy(H, F) for F in family)]
        for G in graphs:
            before = G.matrix.copy()
            d, witness = rg.distance_to_property(G, family)
            assert np.array_equal(G.matrix, before)
            assert isinstance(witness, rg.Digraph)
            assert rg.Digraph(3, witness.matrix) == witness
            assert not any(rg.has_induced_copy(witness, F) for F in family)
            assert rg.edit_distance(G, witness) == d
            assert d == min(differing_pairs(G, H) for H in free)

    def test_map_budget_guard(self):
        # 12!/6! = 665,280 maps of a 6-vertex member, refused before any table
        assert math.perm(12, 6) > _MAP_BUDGET
        family = rg.ForbiddenFamily([mono_rgraph(6, 2, 1)])
        with pytest.raises(TooLargeForExact, match="maps"):
            rg.distance_to_property(mono_rgraph(12, 2, 2), family, cap=12)

    def test_table_byte_guard(self):
        """One 7-vertex member at r = 200 has 5,040 maps, within the map
        budget, but its table would hold 21 pairs x 5,040 maps x (201 + 2)
        bytes; it is refused before any table is built."""
        family = rg.ForbiddenFamily([mono_rgraph(7, 200, 1)])
        G = mono_rgraph(7, 200, 2)
        assert math.perm(7, 7) <= _MAP_BUDGET
        assert 21 * 5040 * 203 > editdist._TABLE_BUDGET
        editdist._copy_table.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeForExact, match="maps"):
                rg.distance_to_property(G, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert editdist._copy_table.cache_info().misses == 0
        assert peak < 2**20

    def test_default_caps_stay_within_the_map_budget(self):
        # a member as large as the host at each default cap: n! maps
        assert math.perm(7, 7) <= _MAP_BUDGET
        d, witness = rg.distance_to_property(
            mono_rgraph(7, 2, 1), rg.ForbiddenFamily([mono_rgraph(7, 2, 1)])
        )
        assert d == 1 and rg.edit_distance(witness, mono_rgraph(7, 2, 1)) == 1
        d, _ = rg.distance_to_property(
            mono_digraph(6, "bi"), rg.ForbiddenFamily([mono_digraph(6, "bi")])
        )
        assert d == 1

    def test_exact_cap_guard(self):
        family = rg.ForbiddenFamily([color_triangle()])
        with pytest.raises(TooLargeForExact):
            rg.distance_to_property(mono_rgraph(8, 2, 1), family)

    def test_kind_guards(self):
        family = rg.ForbiddenFamily([color_triangle()])
        with pytest.raises(KindMismatch):
            rg.distance_to_property(mono_digraph(4, "bi"), family)
        with pytest.raises(KindMismatch):
            rg.distance_to_property(mono_rgraph(4, 3, 1), family)

    def test_empty_property_is_an_error(self):
        lone = rg.ForbiddenFamily([rg.new_rgraph(1, 2, [])])
        with pytest.raises(RegracutError):
            rg.distance_to_property(color_triangle(), lone)


def assert_matches_reference(G, family):
    # The reference reruns a copy search at every node and has no bound, so
    # its cost grows about (pairs x values) per level; cases it cannot
    # finish within the node limit are skipped.
    try:
        expected = distance_to_property_reference(G, family, max_nodes=2_000)
    except RegracutError:
        with pytest.raises(RegracutError):
            rg.distance_to_property(G, family)
        return
    assume(expected is not None)
    d, witness = rg.distance_to_property(G, family)
    assert d == expected[0]
    assert np.array_equal(witness.matrix, expected[1].matrix)


class TestDistanceAgainstReference:
    """The copy-table search against a fresh induced-copy search at every
    node: the same distance and the same witness matrix."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_colorings(self, data):
        r = data.draw(st.sampled_from([2, 3]), label="r")
        G = random_rgraph(data, data.draw(st.integers(1, 6), label="n"), r)
        sizes = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=3), label="sizes")
        assert_matches_reference(G, rg.ForbiddenFamily([random_rgraph(data, h, r) for h in sizes]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_digraphs(self, data):
        G = random_digraph(data, data.draw(st.integers(1, 5), label="n"))
        sizes = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3), label="sizes")
        assert_matches_reference(G, rg.ForbiddenFamily([random_digraph(data, h) for h in sizes]))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_family_order_matters(self, data):
        """Members are induced subgraphs of G of different sizes, so each
        has copies and the first copy found, and with it the witness, can
        depend on the family order; both orders are checked."""
        directed = data.draw(st.booleans(), label="directed")
        if directed:
            G = random_digraph(data, 5)
        else:
            G = random_rgraph(data, data.draw(st.integers(5, 6)), data.draw(st.sampled_from([2, 3])))
        sizes = data.draw(st.permutations([2, 3, 4][data.draw(st.integers(0, 1)):]), label="sizes")
        members = [
            induced_subgraph(G, sorted(data.draw(st.sets(st.integers(0, G.n - 1), min_size=h, max_size=h))))
            for h in sizes
        ]
        assert_matches_reference(G, rg.ForbiddenFamily(members))
        assert_matches_reference(G, rg.ForbiddenFamily(members[::-1]))


def brute_columns(n, members):
    """Each class's first map in brute-force `itertools.permutations`
    order, as its column: the code on each host pair read from its lower
    vertex, 0 where the map uses no pair."""
    index = {pair: p for p, pair in enumerate(itertools.combinations(range(n), 2))}
    first = {}
    for H in members:
        mh = H._mp1.tolist()
        for image in itertools.permutations(range(n), H.n):
            column = [0] * len(index)
            for x, y in itertools.permutations(range(H.n), 2):
                if image[x] < image[y]:
                    column[index[image[x], image[y]]] = mh[x][y]
            first.setdefault(tuple(column), len(first))
    return sorted(first, key=first.get)


def table_columns(table):
    """The columns of a copy table, read back from its per-code bitmasks."""
    _, masks, need, _ = table
    return [tuple(next((c for c in range(1, len(row)) if row[c] >> i & 1), 0) for row in need)
            for i in range(len(masks))]


MONO_K4 = mono_rgraph(4, 2, 1)
CYCLIC = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])
COPY_FAMILIES = {
    "rgraph": [(color_triangle(),), (MONO_K4,), (color_triangle(), MONO_K4)],
    "digraph": [(CYCLIC,), (CYCLIC, rg.new_digraph(2, [(0, 1, "none")]), rg.new_digraph(2, [(0, 1, "bi")]))],
}


def relabeled(H, order):
    """The member with vertex order[i] renamed i: an isomorphic copy."""
    return induced_subgraph(H, list(order))


class TestCopyTable:
    """One column per distinct copy, and the search on it against the
    reference that reruns a copy search at every node."""

    def test_mono_triangle_columns(self):
        tri = (color_triangle(),)
        assert math.perm(5, 3) == 60 and math.perm(7, 3) == 210
        assert len(editdist._copy_table(5, tri)[1]) == 10
        assert len(editdist._copy_table(7, tri)[1]) == 35
        assert len(editdist._copy_table(6, (CYCLIC,))[1]) == 40

    @pytest.mark.parametrize("members", [
        (color_triangle(),),
        (color_triangle(), color_triangle()),
        (rg.sample_rgraph(4, (0.5, 0.5), seed=2), MONO_K4, color_triangle(2)),
        (rg.new_rgraph(3, 3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)]),),
        (CYCLIC, relabeled(CYCLIC, (2, 0, 1)), rg.new_digraph(2, [(0, 1, "fwd")])),
        (rg.sample_digraph(4, 0.3, 0.3, seed=5), rg.new_digraph(1, [])),
    ])
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_columns_are_the_first_of_each_class(self, members, n):
        table = pairs, masks, need, width = editdist._copy_table(n, members)
        columns = table_columns(table)
        assert len(set(columns)) == len(columns)
        assert columns == brute_columns(n, members)
        assert masks == tuple(sum(1 << p for p, c in enumerate(col) if c) for col in columns)
        for p in range(len(pairs)):
            assert need[p][0] == sum(1 << i for i, col in enumerate(columns) if col[p])
            for c in range(1, len(need[p])):
                assert need[p][c] == sum(1 << i for i, col in enumerate(columns) if col[p] == c)
        assert 1 << width > max(math.comb(H.n, 2) for H in members)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_collapsing_families_match_the_reference(self, data):
        kind = data.draw(st.sampled_from(sorted(COPY_FAMILIES)), label="kind")
        directed = kind == "digraph"
        members = list(data.draw(st.sampled_from(COPY_FAMILIES[kind]), label="family"))
        h = data.draw(st.integers(2, 3), label="h")
        extra = random_digraph(data, h) if directed else random_rgraph(data, h, members[0].r)
        order = data.draw(st.permutations(range(h)), label="order")
        how = data.draw(st.sampled_from(["plain", "twice", "isomorphic"]), label="how")
        if how == "twice":
            members += [extra, extra]
        elif how == "isomorphic":
            members += [extra, relabeled(extra, order)]
        n = data.draw(st.integers(1, 5 if directed else 6), label="n")
        G = random_digraph(data, n) if directed else random_rgraph(data, n, members[0].r)
        assert_matches_reference(G, rg.ForbiddenFamily(members))


class TestFitToType:
    def test_full_recolor_to_single_fiber(self):
        fit = rg.fit_to_type(mono_rgraph(5, 2, 1), rg.rtype(2, [{2}], {}))
        assert fit.cost == 10
        assert fit.assignment == (0, 0, 0, 0, 0)
        assert rg.edit_distance(fit.graph, mono_rgraph(5, 2, 2)) == 0

    def test_already_conformant_costs_nothing(self):
        pairs = []
        for u, v in itertools.combinations(range(6), 2):
            same = (u < 3) == (v < 3)
            pairs.append((u, v, 2 if same else 1))
        G = rg.new_rgraph(6, 2, pairs)
        K = rg.rtype(2, [{2}, {2}], {(0, 1): {1}})
        fit = rg.fit_to_type(G, K, assignment=[0, 0, 0, 1, 1, 1])
        assert fit.cost == 0
        assert rg.edit_distance(fit.graph, G) == 0

    def test_cross_pair_keeps_allowed_value(self):
        K = rg.rtype(3, [{1}, {2}], {(0, 1): {2, 3}})
        kept = rg.fit_to_type(rg.new_rgraph(2, 3, [(0, 1, 3)]), K, assignment=[0, 1])
        assert kept.cost == 0 and kept.graph.color(0, 1) == 3
        moved = rg.fit_to_type(rg.new_rgraph(2, 3, [(0, 1, 1)]), K, assignment=[0, 1])
        assert moved.cost == 1 and moved.graph.color(0, 1) == 2

    def test_directed_fiber_rebuilds_missing_arrows(self):
        K = rg.dirtype(rg.P4, [{"fwd"}], {})
        fit = rg.fit_to_type(mono_digraph(4, "none"), K)
        assert fit.cost == 6
        assert all(
            fit.graph.arc(u, v) == "fwd" for u, v in itertools.combinations(range(4), 2)
        )

    def test_directed_fiber_breaks_cycles(self):
        cyc = rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])
        K = rg.dirtype(rg.P4, [{"fwd"}], {})
        fit = rg.fit_to_type(cyc, K)
        assert fit.cost == 1
        assert rg.embeds(fit.graph, K)[0]

    def test_index_order_coarseness_documented(self):
        # The one-way fiber is rebuilt along vertex order, so a tournament
        # that is transitive against that order pays for every pair even
        # though it already maps into the template.
        rev = rg.new_digraph(3, [(0, 1, "back"), (0, 2, "back"), (1, 2, "back")])
        K = rg.dirtype(rg.P4, [{"fwd"}], {})
        assert rg.embeds(rev, K)[0]
        assert rg.fit_to_type(rev, K).cost == 3

    def test_existing_single_arrows_kept_on_pairs(self):
        K = rg.dirtype(rg.P0, [{"back"}], {})
        fit = rg.fit_to_type(rg.new_digraph(2, [(0, 1, "fwd")]), K)
        assert fit.cost == 0 and fit.graph.arc(0, 1) == "fwd"

    def test_best_of_is_seeded(self):
        G = mono_rgraph(6, 2, 1)
        K = rg.rtype(2, [{2}, {2}], {(0, 1): {1}})
        a = rg.fit_to_type(G, K, assignment="best_of", trials=8, seed=5)
        b = rg.fit_to_type(G, K, assignment="best_of", trials=8, seed=5)
        assert a.cost == b.cost and a.assignment == b.assignment
        assert rg.edit_distance(G, a.graph) == a.cost

    def test_best_of_ties_keep_the_first_trial(self):
        # every balanced split of a one-color graph into two fibers costs 6
        G = mono_rgraph(6, 2, 1)
        K = rg.rtype(2, [{2}, {2}], {(0, 1): {1, 2}})
        rng = random.Random(3)
        drawn = []
        for _ in range(2):
            order = list(range(6))
            rng.shuffle(order)
            assign = [0] * 6
            for slot, v in enumerate(order):
                assign[v] = slot * 2 // 6
            drawn.append(tuple(assign))
        assert drawn[0] != drawn[1]
        fit = rg.fit_to_type(G, K, assignment="best_of", trials=2, seed=3)
        assert fit.cost == 6 and fit.assignment == drawn[0]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_pair_by_pair_reference(self, data):
        directed = data.draw(st.booleans(), label="directed")
        n = data.draw(st.integers(1, 7), label="n")
        k = data.draw(st.integers(1, 3), label="k")
        if directed:
            pal = data.draw(st.sampled_from(rg.PALETTES), label="palette")
            universe = [s for s in ALL_STATES if s in pal]
            G = random_digraph(data, n)
        else:
            r = data.draw(st.sampled_from([2, 3]), label="r")
            universe = list(range(1, r + 1))
            G = random_rgraph(data, n, r)
        selfs = [data.draw(st.sampled_from(nonempty_subsets(universe, True))) for _ in range(k)]
        edges = {
            pair: data.draw(st.sampled_from(nonempty_subsets(universe, False)))
            for pair in itertools.combinations(range(k), 2)
        }
        K = rg.dirtype(pal, selfs, edges) if directed else rg.rtype(r, selfs, edges)
        mode = data.draw(st.sampled_from(["balanced", "best_of", "explicit"]), label="mode")
        if mode == "explicit":
            mode = [data.draw(st.integers(0, k - 1)) for _ in range(n)]
        trials, seed = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 99))
        fit = rg.fit_to_type(G, K, assignment=mode, trials=trials, seed=seed)
        assert fit.cost == rg.edit_distance(G, fit.graph) == differing_pairs(G, fit.graph)
        assert _map_conforms(fit.graph, K, fit.assignment, directed=directed)
        assert fit == fit_to_type_reference(G, K, assignment=mode, trials=trials, seed=seed)

    def test_assignment_guards(self):
        K = rg.rtype(2, [{2}], {})
        with pytest.raises(SizeMismatch):
            rg.fit_to_type(mono_rgraph(5, 2, 1), K, assignment=[0, 0, 0])
        with pytest.raises(RegracutError):
            rg.fit_to_type(mono_rgraph(5, 2, 1), K, assignment=[0, 0, 0, 0, 5])
        with pytest.raises(RegracutError):
            rg.fit_to_type(mono_rgraph(5, 2, 1), K, assignment="weird")
        with pytest.raises(RegracutError):
            rg.fit_to_type(mono_rgraph(5, 2, 1), K, assignment="best_of", trials=0)
        with pytest.raises(KindMismatch):
            rg.fit_to_type(mono_digraph(4, "bi"), K)
        with pytest.raises(KindMismatch):
            rg.fit_to_type(mono_rgraph(4, 3, 1), K)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cost_counts_disallowed_pairs(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        G = random_rgraph(data, n)
        k = data.draw(st.integers(1, 3), label="k")
        selfs = [data.draw(st.sampled_from([{1}, {2}])) for _ in range(k)]
        edges = {
            (i, j): data.draw(st.sampled_from([{1}, {2}, {1, 2}]))
            for i, j in itertools.combinations(range(k), 2)
        }
        K = rg.rtype(2, selfs, edges)
        assign = [data.draw(st.integers(0, k - 1)) for _ in range(n)]
        fit = rg.fit_to_type(G, K, assignment=assign)
        expected = sum(
            1
            for u, v in itertools.combinations(range(n), 2)
            if G.color(u, v) not in K.phi(assign[u], assign[v])
        )
        assert fit.cost == expected
        assert rg.edit_distance(G, fit.graph) == fit.cost
        assert _map_conforms(fit.graph, K, tuple(assign), directed=False)


class TestConstructType:
    def setup_method(self):
        pairs = []
        for u, v in itertools.combinations(range(12), 2):
            same = (u < 6) == (v < 6)
            pairs.append((u, v, 2 if same else 1))
        self.G = rg.new_rgraph(12, 2, pairs)
        self.blocks = [list(range(6)), list(range(6, 12))]
        self.efun = rg.EpsilonFunction(table={}, default=0.3)
        self.family = rg.ForbiddenFamily([color_triangle()])

    def test_two_block_construction(self):
        res = rg.construct_type_from_partition(self.G, self.blocks, 0.4, self.efun, self.family)
        assert res.ok and res.failure is None
        K = res.type
        assert [sorted(s) for s in K.self_labels] == [[2], [2]]
        assert sorted(K.phi(0, 1)) == [1]
        assert not rg.embeds(color_triangle(), K)[0]

    def test_exact_certifier_agrees_here(self):
        res = rg.construct_type_from_partition(
            self.G, self.blocks, 0.4, self.efun, self.family, certifier="exact"
        )
        assert res.ok
        assert [sorted(s) for s in res.type.self_labels] == [[2], [2]]

    def test_unknown_certifier_rejected(self):
        with pytest.raises(RegracutError, match="unknown certifier"):
            rg.construct_type_from_partition(
                self.G, self.blocks, 0.4, self.efun, self.family, certifier="exakt"
            )

    def test_unreachable_density_threshold(self):
        res = rg.construct_type_from_partition(self.G, self.blocks, 1.5, self.efun, self.family)
        assert not res.ok
        assert res.failure == "empty_edge_label"
        assert "(0, 1)" in res.detail

    def test_unavoidable_family(self):
        lone = rg.ForbiddenFamily([rg.new_rgraph(1, 2, [])])
        res = rg.construct_type_from_partition(self.G, self.blocks, 0.4, self.efun, lone)
        assert not res.ok
        assert res.failure == "no_valid_vertex_labels"

    def test_directed_blocks(self):
        G = mono_digraph(8, "fwd")
        family = rg.ForbiddenFamily([rg.new_digraph(2, [(0, 1, "bi")])])
        res = rg.construct_type_from_partition(
            G, [list(range(4)), list(range(4, 8))], 0.5, self.efun, family
        )
        assert res.ok
        K = res.type
        assert K.palette.name == "P0"
        assert [sorted(s) for s in K.self_labels] == [["none"], ["none"]]
        assert sorted(K.phi(0, 1)) == ["fwd"]
        assert sorted(K.phi(1, 0)) == ["back"]

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[0, 1, 99], [6, 7]], "block 0 contains vertices outside 0..11"),
            ([[0, 1], [6, 99], [8, 9]], "block 1 contains vertices outside 0..11"),
            ([[0, 1], [6, 7], [8, 8]], "block 2 contains repeated vertices"),
        ],
    )
    def test_vertex_errors_name_the_block(self, blocks, message):
        with pytest.raises(RegracutError, match=f"^{message}$"):
            rg.construct_type_from_partition(self.G, blocks, 0.4, self.efun, self.family)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(RegracutError, match="gamma must be positive, got 0.0"):
            rg.construct_type_from_partition(
                self.G, self.blocks, 0.4, lambda k: 0.0, self.family
            )

    def test_palette_name_reads_like_the_palette(self):
        D = mono_digraph(12, "none")
        family = rg.ForbiddenFamily([rg.new_digraph(2, [(0, 1, "bi")])])
        by_name, by_object = (
            rg.construct_type_from_partition(D, [range(12)], 0.5, self.efun, family, palette=pal)
            for pal in ("P3", rg.P3)
        )
        assert by_name == by_object
        assert by_name.ok and by_name.type.self_labels == (frozenset({"none"}),)
        assert by_name.type.palette is rg.P3

    def test_unknown_palette_name_rejected(self):
        D = mono_digraph(4, "none")
        family = rg.ForbiddenFamily([rg.new_digraph(1, [])])
        with pytest.raises(BadState, match="^unknown palette 'P9'$"):
            rg.construct_type_from_partition(D, [[0, 1]], 0.5, self.efun, family, palette="P9")
        with pytest.raises(RegracutError, match="^digraph template needs a palette$"):
            rg.construct_type_from_partition(D, [[0, 1]], 0.5, self.efun, family, palette=3)

    def test_unknown_certifier_rejected_for_a_lone_block(self):
        with pytest.raises(RegracutError, match="^unknown certifier 'bogus'$"):
            rg.construct_type_from_partition(
                self.G, [[0, 1]], 0.4, self.efun, self.family, certifier="bogus"
            )

    def test_fiber_search_over_budget_refused(self):
        # 254 proper labels per block: 254**4 labelings, far past the budget
        G = mono_rgraph(8, 8, 1)
        lone = rg.ForbiddenFamily([rg.new_rgraph(1, 8, [])])
        blocks = [[0, 1], [2, 3], [4, 5], [6, 7]]
        with pytest.raises(SearchSpaceTooLarge, match=f"^{254 ** 4} fiber labelings"):
            rg.construct_type_from_partition(G, blocks, 0.5, self.efun, lone)

    def test_seventy_colors_refused_by_the_budget(self):
        G = mono_rgraph(4, 70, 1)
        lone = rg.ForbiddenFamily([rg.new_rgraph(1, 70, [])])
        with pytest.raises(SearchSpaceTooLarge):
            rg.construct_type_from_partition(G, [[0, 1], [2, 3]], 0.5, self.efun, lone)

    def test_block_validation(self):
        with pytest.raises(OverlappingSets):
            rg.construct_type_from_partition(self.G, [[0, 1], [1, 2]], 0.4, self.efun, self.family)
        with pytest.raises(RegracutError):
            rg.construct_type_from_partition(self.G, [[0, 1], []], 0.4, self.efun, self.family)
        with pytest.raises(KindMismatch):
            rg.construct_type_from_partition(
                mono_digraph(8, "fwd"), [[0, 1], [2, 3]], 0.4, self.efun, self.family
            )


def _construct_case(data):
    """A random construct_type_from_partition call: graph, blocks, density
    threshold, family and palette, sometimes with a vertex outside the
    graph so that the errors are compared too."""
    kind = data.draw(st.sampled_from([2, 3, None, "P0", "P1", "P2", "P3", "P4"]), label="kind")
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.integers(k, 9), label="n")
    pairs = list(itertools.combinations(range(n), 2))
    if isinstance(kind, int):
        G = rg.new_rgraph(n, kind, [(u, v, data.draw(st.integers(1, kind))) for u, v in pairs])
    else:
        # mostly in-palette states, so both success and "outside the palette" occur
        pal = rg.P0 if kind is None else rg.palette(kind)
        inside = [s for s in ALL_STATES if s in pal]
        states = st.one_of(*[st.sampled_from(inside)] * 3, st.sampled_from(ALL_STATES))
        G = rg.new_digraph(n, [(u, v, data.draw(states)) for u, v in pairs])
    order = data.draw(st.permutations(range(n)), label="order")
    cut_points = st.integers(1, max(n - 1, 1))
    cuts = sorted(data.draw(st.sets(cut_points, min_size=k - 1, max_size=k - 1)))
    blocks = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    if data.draw(st.integers(0, 9), label="stray") == 0:
        blocks[-1].append(n)
    members = []
    for _ in range(data.draw(st.integers(1, 2), label="members")):
        h = data.draw(st.integers(1, 4), label="h")
        hp = itertools.combinations(range(h), 2)
        if isinstance(kind, int):
            colors = st.integers(1, kind)
            members.append(rg.new_rgraph(h, kind, [(u, v, data.draw(colors)) for u, v in hp]))
        else:
            states = st.sampled_from(ALL_STATES)
            members.append(rg.new_digraph(h, [(u, v, data.draw(states)) for u, v in hp]))
    delta = data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.4]), label="delta")
    palette = None if isinstance(kind, int) or kind is None else rg.palette(kind)
    return G, blocks, delta, rg.EpsilonFunction(default=0.3), rg.ForbiddenFamily(members), palette


def _outcome(fn, case):
    G, blocks, delta, efun, family, palette = case
    try:
        return fn(G, blocks, delta, efun, family, palette=palette)
    except RegracutError as exc:
        return type(exc), str(exc)


class TestConstructAgainstReference:
    """The batched fiber search against the one-labeling-at-a-time loop."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, data):
        case = _construct_case(data)
        assert _outcome(rg.construct_type_from_partition, case) == _outcome(
            construct_type_reference, case
        )

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_chunk_boundaries(self, data):
        case = _construct_case(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tg, "_CHUNK", 7)
            got = _outcome(rg.construct_type_from_partition, case)
        assert got == _outcome(construct_type_reference, case)

    @pytest.mark.parametrize(
        "r, k, member, failure",
        [
            # only labels without color 1 survive: the first is labeling 43 of 216
            (3, 3, rg.new_rgraph(2, 3, [(0, 1, 1)]), None),
            # every labeling is scanned and rejected
            (3, 3, rg.new_rgraph(1, 3, []), "no_valid_vertex_labels"),
            # the one survivor is the last of 16 labelings
            (2, 4, rg.new_rgraph(2, 2, [(0, 1, 1)]), None),
        ],
    )
    def test_small_chunks_fixed_cases(self, monkeypatch, r, k, member, failure):
        # every block pair is monochromatic in color 2, so its label is {2}
        G = mono_rgraph(3 * k, r, 2)
        blocks = [list(range(3 * i, 3 * i + 3)) for i in range(k)]
        args = (G, blocks, 0.5, rg.EpsilonFunction(default=0.3), rg.ForbiddenFamily([member]))
        expected = construct_type_reference(*args)
        monkeypatch.setattr(tg, "_CHUNK", 7)
        got = rg.construct_type_from_partition(*args)
        assert got == expected and got.failure == failure

    @pytest.mark.parametrize(
        "member", [rg.new_digraph(2, [(0, 1, "bi")]), rg.new_digraph(1, [])]
    )
    def test_state_set_palette_fails_like_reference(self, member):
        # a plain set is no Palette; the template check fails whether or
        # not some labeling avoids the family
        args = (mono_digraph(4, "fwd"), [[0, 1], [2, 3]], 0.5, rg.EpsilonFunction(default=0.3),
                rg.ForbiddenFamily([member]))
        case = (*args, {"fwd", "back"})
        expected = _outcome(construct_type_reference, case)
        assert expected == (RegracutError, "digraph template needs a palette")
        assert _outcome(rg.construct_type_from_partition, case) == expected


def rebuilt(H):
    """An equal graph that shares no object with H."""
    return rg.loads_graph(rg.dumps_graph(H))


# More families than the copy-table cache holds, of both kinds, so that
# interleaved calls evict and rebuild entries.
CACHE_FAMILIES = [
    rg.ForbiddenFamily([color_triangle()]),
    rg.ForbiddenFamily([color_triangle(2), mono_rgraph(4, 2, 1)]),
    rg.ForbiddenFamily([rg.sample_rgraph(4, (0.5, 0.5), seed=1), color_triangle()]),
    rg.ForbiddenFamily([rg.sample_rgraph(3, (0.5, 0.5), seed=s) for s in range(3)]),
    rg.ForbiddenFamily([rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])]),
    rg.ForbiddenFamily([rg.new_digraph(2, [(0, 1, "bi")]), rg.sample_digraph(3, 0.3, 0.2, seed=2)]),
]
CACHE_TEMPLATES = [
    rg.rtype(2, [{2}], {}),
    rg.rtype(2, [{2}, {1}], {(0, 1): {2}}),
    rg.rtype(2, [{1}, {2}, {2}], {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): {2}}),
]


class TestCaches:
    """The cached trial assignments and copy-table layouts: read-only, keyed
    by content, bounded in memory, and invisible in results."""

    def test_cached_arrays_are_read_only(self):
        G = rg.sample_rgraph(6, (0.5, 0.5), seed=1)
        family = CACHE_FAMILIES[1]
        rg.distance_to_property(G, family)
        # the copy table holds only tuples and ints, so nothing in it can change
        pairs, masks, need, width = editdist._copy_table(6, family.members)
        assert isinstance(pairs, tuple) and isinstance(masks, tuple) and isinstance(need, tuple)
        assert all(type(x) is int for x in itertools.chain(masks, *need)) and type(width) is int
        assert all(isinstance(row, tuple) for row in need)
        rg.fit_to_type(G, CACHE_TEMPLATES[1], assignment="best_of", trials=4, seed=7)
        A = editdist._trial_assignments(6, 2, 4, 7)
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 1

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_interleaved_calls_match_the_references(self, data):
        for _ in range(data.draw(st.integers(1, 10), label="calls")):
            if data.draw(st.booleans(), label="fit"):
                G = random_rgraph(data, data.draw(st.integers(1, 7), label="n"))
                K = data.draw(st.sampled_from(CACHE_TEMPLATES), label="K")
                trials, seed = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 3))
                fit = rg.fit_to_type(G, K, assignment="best_of", trials=trials, seed=seed)
                assert fit == fit_to_type_reference(G, K, "best_of", trials, seed)
                continue
            family = data.draw(st.sampled_from(CACHE_FAMILIES), label="family")
            if data.draw(st.booleans(), label="rebuild"):
                family = rg.ForbiddenFamily([rebuilt(H) for H in family])
            n = data.draw(st.integers(1, 5), label="n")
            directed = isinstance(family.members[0], rg.Digraph)
            G = random_digraph(data, n) if directed else random_rgraph(data, n)
            try:
                expected = distance_to_property_reference(G, family, max_nodes=2_000)
            except RegracutError:
                with pytest.raises(RegracutError):
                    rg.distance_to_property(G, family)
                continue
            if expected is not None:
                assert rg.distance_to_property(G, family) == expected

    def test_rebuilt_family_hits_the_cache(self):
        G = rg.sample_rgraph(6, (0.6, 0.4), seed=3)
        first = CACHE_FAMILIES[2]
        again = rg.ForbiddenFamily([rebuilt(H) for H in first])
        assert all(a is not b for a, b in zip(first, again))
        editdist._copy_table.cache_clear()
        assert rg.distance_to_property(G, first) == rg.distance_to_property(G, again)
        info = editdist._copy_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # equal matrices of another color count are another key
        G3 = rg.new_rgraph(6, 3, [(u, v, G.color(u, v)) for u, v in itertools.combinations(range(6), 2)])
        other = rg.ForbiddenFamily([rg.new_rgraph(H.n, 3, [(u, v, H.color(u, v)) for u, v in
                                                           itertools.combinations(range(H.n), 2)])
                                    for H in first])
        d3, _ = rg.distance_to_property(G3, other)
        assert editdist._copy_table.cache_info().misses == 2
        assert d3 == distance_to_property_reference(G3, other)[0]

    def test_memory_kept_after_calls_near_the_map_budget(self):
        """After more near-budget calls than the copy-table cache holds, it
        keeps at most maxsize tables, and each holds what its own layout
        says: its distinct int masks, a tuple slot per column and a little
        per entry.  The trial cache keeps at most maxsize (trials x n) intp
        matrices."""
        members = math.factorial(7)
        maps = _MAP_BUDGET // members * members
        assert _MAP_BUDGET - members < maps <= _MAP_BUDGET
        families = [
            rg.ForbiddenFamily([rg.sample_rgraph(7, (0.5, 0.5), seed=100 * f + i)
                                for i in range(maps // members)])
            for f in range(5)
        ]
        host = mono_rgraph(7, 2, 2)
        big = rg.sample_rgraph(120, (0.5, 0.5), seed=1)
        tables = editdist._copy_table.cache_parameters()["maxsize"]
        trial_sets = editdist._trial_assignments.cache_parameters()["maxsize"]
        assert len(families) > tables
        gc.collect()
        tracemalloc.start()
        try:
            editdist._copy_table.cache_clear()
            editdist._trial_assignments.cache_clear()
            base = tracemalloc.get_traced_memory()[0]
            for family in families:
                assert rg.distance_to_property(host, family)[0] == 0
            for seed in range(trial_sets + 4):
                rg.fit_to_type(big, CACHE_TEMPLATES[1], assignment="best_of", trials=20, seed=seed)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
            cached = [editdist._copy_table(7, family.members) for family in families[-tables:]]
            assert editdist._copy_table.cache_info().misses == len(families)
            held = sum(map(table_bytes, cached))
            columns = sum(len(table[1]) for table in cached)
            del cached
            editdist._copy_table.cache_clear()
            editdist._trial_assignments.cache_clear()
            gc.collect()
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert columns < tables * maps  # repeated copies really collapse
        upper_pairs = 2 * 8 * math.comb(120, 2)  # the n=120 host's cached pair indices
        trials_kept = trial_sets * (8 * 20 * 120 + 2**10) + upper_pairs
        assert kept <= held + 8 * columns + tables * 2**16 + trials_kept
        assert kept >= held + 8 * columns  # the tables really are kept
        assert left < 2**20


def table_bytes(table):
    """Bytes of the distinct int masks a cached copy table holds (small ints
    are shared interpreter objects)."""
    _, masks, need, _ = table
    ints = {id(x): x for x in itertools.chain(masks, *need) if x > 256}
    return sum(map(sys.getsizeof, ints.values()))
