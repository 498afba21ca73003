"""Density vectors, the partition index, regularity certifiers, and the
strengthened Cauchy-Schwarz checks."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut.errors import (
    BadM,
    EmptySet,
    OverlappingSets,
    RegracutError,
    TooLargeForExhaustive,
    UnequalSubBlocks,
)

from regracut import density
from regracut.density import _certify_pairs

from helpers import (
    batch_reports,
    certify_pairs,
    density_direct,
    exact_pair_reference,
    heuristic_reference,
    kernel_witnesses,
    mono_digraph,
    mono_rgraph,
    random_disjoint_sets,
    run_kernel,
    two_block_rgraph,
)


class TestDensityVector:
    def test_hand_values(self):
        G = rg.new_rgraph(4, 2, [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 2), (2, 3, 1)])
        d = rg.density_vector(G, [0, 1], [2, 3])
        # pairs (0,2),(0,3),(1,2),(1,3) carry colors 1,2,2,2
        assert np.array_equal(d, [0.25, 0.75])

    def test_digraph_hand_values(self):
        G = rg.new_digraph(4, [(0, 1, "fwd"), (0, 2, "fwd"), (0, 3, "bi"),
                               (1, 2, "none"), (1, 3, "back"), (2, 3, "none")])
        d = rg.density_vector(G, [0, 1], [2, 3])
        # ordered states from {0,1} to {2,3}: fwd, bi, none, back
        assert np.array_equal(d, [0.25, 0.25, 0.25, 0.25])

    @given(seed=st.integers(0, 2000), n=st.integers(6, 30), r=st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_pair_counting_oracle(self, seed, n, r):
        G = rg.sample_rgraph(n, tuple(1.0 / r for _ in range(r)), seed=seed)
        rng = np.random.default_rng(seed)
        A, B = random_disjoint_sets(rng, n)
        d = rg.density_vector(G, A, B)
        assert np.array_equal(d, density_direct(G, A, B))
        assert abs(d.sum() - 1.0) <= 1e-12

    @given(seed=st.integers(0, 2000), n=st.integers(6, 30))
    @settings(max_examples=60, deadline=None)
    def test_digraph_direction_duality(self, seed, n):
        """Forward density from A to B is the backward density from B to A."""
        G = rg.sample_digraph(n, 0.2, 0.3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        A, B = random_disjoint_sets(rng, n)
        d_ab = rg.density_vector(G, A, B)
        d_ba = rg.density_vector(G, B, A)
        labels = rg.channel_labels(G)
        assert d_ab[labels.index("fwd")] == d_ba[labels.index("back")]
        assert d_ab[labels.index("back")] == d_ba[labels.index("fwd")]
        assert d_ab[labels.index("bi")] == d_ba[labels.index("bi")]
        assert np.array_equal(d_ab, density_direct(G, A, B))

    @pytest.mark.parametrize("n", [12, 96])
    def test_digraph_shifted_matrix_is_read_only(self, n):
        G = rg.sample_digraph(n, 0.25, 0.25, seed=n)
        shifted = G._mp1
        assert shifted.flags.writeable is False
        assert np.array_equal(shifted, G.matrix.astype(np.int16) + 1)
        with pytest.raises(ValueError):
            shifted[0, 1] = 0
        rng = np.random.default_rng(n)
        for _ in range(10):
            A, B = random_disjoint_sets(rng, n)
            assert np.array_equal(rg.density_vector(G, A, B), density_direct(G, A, B))

    def test_input_validation(self):
        G = mono_rgraph(5, 2, 1)
        with pytest.raises(OverlappingSets):
            rg.density_vector(G, [0, 1], [1, 2])
        with pytest.raises(EmptySet):
            rg.density_vector(G, [], [1, 2])


class TestPairDensityTensor:
    @given(seed=st.integers(0, 500), n=st.integers(8, 24), k=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_entries_match_density_vector(self, seed, n, k):
        G = rg.sample_rgraph(n, (0.4, 0.6), seed=seed)
        part = rg.equipartition(n, k, seed=seed)
        T = rg.pair_density_tensor(G, part)
        assert T.shape == (k, k, 2)
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                expected = rg.density_vector(G, part.blocks[i], part.blocks[j])
                assert np.array_equal(T[i, j], expected)

    def test_digraph_tensor_is_ordered(self):
        G = rg.sample_digraph(12, 0.25, 0.25, seed=3)
        part = rg.equipartition(12, 3, seed=3)
        T = rg.pair_density_tensor(G, part)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.array_equal(
                        T[i, j], rg.density_vector(G, part.blocks[i], part.blocks[j])
                    )


    @pytest.mark.parametrize("block", [7, 100])
    def test_row_blocks_count_as_one(self, monkeypatch, block):
        graphs = (rg.sample_rgraph(48, (0.2, 0.3, 0.5), seed=1), rg.sample_digraph(47, 0.2, 0.3, seed=2))
        cases = [(G, rg.equipartition(G.n, k, seed=k)) for G in graphs for k in (3, 8)]
        want = [rg.pair_density_tensor(G, part) for G, part in cases]  # one block each
        monkeypatch.setattr(rg.graphs, "_BLOCK", block)
        for (G, part), expected in zip(cases, want):
            assert np.array_equal(rg.pair_density_tensor(G, part), expected)

    def test_n2000_peak_within_the_matrix(self):
        """Counted one row block at a time, the tensor's temporaries stay
        below the int16 matrix (30.7 MiB traced with one n x n code array)."""
        G = rg.sample_rgraph(2000, (0.3, 0.3, 0.4), seed=1106)
        part = rg.equipartition(2000, 24, seed=1)
        tracemalloc.start()
        try:
            rg.pair_density_tensor(G, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= G.matrix.nbytes


class TestPartitionIndex:
    def test_hand_value_balanced_densities(self):
        # Two blocks with both cross densities 1/2: ind = (1/4)(1/4 + 1/4).
        G = rg.new_rgraph(4, 2, [(0, 1, 1), (2, 3, 1), (0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1)])
        part = rg.Equipartition([(0, 1), (2, 3)])
        assert rg.partition_index(G, part) == pytest.approx(0.125, abs=1e-15)

    def test_hand_value_planted_blocks(self):
        G = two_block_rgraph(6)
        part = rg.Equipartition([tuple(range(6)), tuple(range(6, 12))])
        assert rg.partition_index(G, part) == pytest.approx(0.25, abs=1e-15)

    @given(seed=st.integers(0, 1000), n=st.integers(6, 40), k=st.integers(2, 6),
           r=st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_range(self, seed, n, k, r):
        if k > n:
            return
        G = rg.sample_rgraph(n, tuple(1.0 / r for _ in range(r)), seed=seed)
        part = rg.equipartition(n, k, seed=seed)
        ind = rg.partition_index(G, part)
        assert 0.0 <= ind <= 0.5

    @given(seed=st.integers(0, 300), k=st.integers(2, 4), ell=st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_refinement_never_decreases_index(self, seed, k, ell):
        """The mean-square density index is monotone under refinement (up to
        roundoff) when blocks split evenly."""
        n = k * ell * 4
        G = rg.sample_rgraph(n, (0.3, 0.7), seed=seed)
        part = rg.equipartition(n, k, seed=seed)
        fine = rg.refine_equipartition(part, ell, seed=seed + 1)
        assert rg.partition_index(G, fine) >= rg.partition_index(G, part) - 1e-9


class TestExactRegularity:
    def test_monochromatic_pair_is_regular(self):
        G = mono_rgraph(12, 2, 1)
        rep = rg.certify(G, list(range(6)), list(range(6, 12)), 0.1, "exact")
        assert rep.verdict == rg.REGULAR and rep.witness is None

    def test_planted_half_biclique_is_irregular(self):
        """Half of A times half of B monochromatic in color 1, the rest in
        color 2: the planted quarter deviates from the mean by 3/4."""
        pairs = []
        for u in range(12):
            for v in range(u + 1, 12):
                if u < 6 <= v:
                    color = 1 if (u < 3 and v < 9) else 2
                else:
                    color = 2
                pairs.append((u, v, color))
        G = rg.new_rgraph(12, 2, pairs)
        A, B = list(range(6)), list(range(6, 12))
        rep = rg.certify(G, A, B, 0.3, "exact")
        assert rep.verdict == rg.IRREGULAR
        w = rep.witness
        assert len(w.a_prime) >= 0.3 * 6 and len(w.b_prime) >= 0.3 * 6
        base = rg.density_vector(G, A, B)
        sub = rg.density_vector(G, w.a_prime, w.b_prime)
        ch = rg.channel_labels(G).index(w.color)
        assert abs(sub[ch] - base[ch]) == pytest.approx(w.deviation, abs=1e-12)
        assert w.deviation >= 0.3

    def test_gamma_at_least_one_is_trivially_regular(self):
        G = rg.sample_rgraph(10, (0.5, 0.5), seed=0)
        rep = rg.certify(G, [0, 1, 2], [3, 4, 5], 1.0, "exact")
        assert rep.verdict == rg.REGULAR

    def test_cap_guard(self):
        G = rg.sample_rgraph(30, (0.5, 0.5), seed=0)
        with pytest.raises(TooLargeForExhaustive):
            rg.certify(G, list(range(15)), list(range(15, 30)), 0.3, "exact")

    @given(seed=st.integers(0, 400), gamma=st.sampled_from([0.15, 0.25, 0.4]))
    @settings(max_examples=60, deadline=None)
    def test_irregular_witnesses_are_genuine(self, seed, gamma):
        """Whenever the exhaustive certifier reports a witness, recomputing
        its densities from scratch reproduces the violation."""
        G = rg.sample_rgraph(12, (0.5, 0.5), seed=seed)
        A, B = list(range(6)), list(range(6, 12))
        rep = rg.certify(G, A, B, gamma, "exact")
        if rep.verdict != rg.IRREGULAR:
            return
        w = rep.witness
        assert len(w.a_prime) >= gamma * len(A)
        assert len(w.b_prime) >= gamma * len(B)
        base = density_direct(G, A, B)
        sub = density_direct(G, w.a_prime, w.b_prime)
        ch = rg.channel_labels(G).index(w.color)
        assert abs(sub[ch] - base[ch]) >= gamma


class TestHeuristicRegularity:
    def test_planted_structure_found(self):
        """A 40x40 pair whose top-left 20x20 corner is almost surely color 1
        while the rest leans color 2 is far from regular; the degree-tail
        search must find a certified witness."""
        rng = np.random.default_rng(7)
        n = 80
        pairs = []
        for u in range(n):
            for v in range(u + 1, n):
                if u < 40 <= v:
                    hot = u < 20 and v < 60
                    p1 = 0.9 if hot else 0.1
                    color = 1 if rng.random() < p1 else 2
                else:
                    color = 2 if rng.random() < 0.5 else 1
                pairs.append((u, v, color))
        G = rg.new_rgraph(n, 2, pairs)
        A, B = list(range(40)), list(range(40, 80))
        rep = rg.certify(G, A, B, 0.2, "heuristic")
        assert rep.verdict == rg.IRREGULAR
        w = rep.witness
        base = rg.density_vector(G, A, B)
        sub = rg.density_vector(G, w.a_prime, w.b_prime)
        ch = rg.channel_labels(G).index(w.color)
        assert abs(sub[ch] - base[ch]) >= 0.2
        assert len(w.a_prime) >= 0.2 * 40 and len(w.b_prime) >= 0.2 * 40

    def test_monochromatic_pair_is_unknown(self):
        G = mono_rgraph(20, 2, 1)
        rep = rg.certify(G, list(range(10)), list(range(10, 20)), 0.1, "heuristic")
        assert rep.verdict == rg.UNKNOWN and rep.witness is None

    @given(seed=st.integers(0, 300), gamma=st.sampled_from([0.2, 0.3, 0.45]))
    @settings(max_examples=60, deadline=None)
    def test_never_contradicts_exhaustive_certifier(self, seed, gamma):
        G = rg.sample_rgraph(12, (0.5, 0.5), seed=seed)
        A, B = list(range(6)), list(range(6, 12))
        heur = rg.certify(G, A, B, gamma, "heuristic")
        assert heur.verdict in (rg.IRREGULAR, rg.UNKNOWN)
        if heur.verdict == rg.IRREGULAR:
            exact = rg.certify(G, A, B, gamma, "exact")
            assert exact.verdict == rg.IRREGULAR


def _graph_of_kind(kind, n, seed):
    """A digraph, or an r-graph with r = kind, drawn uniformly."""
    if kind == "digraph":
        return rg.sample_digraph(n, 0.25, 0.25, seed=seed)
    return rg.sample_rgraph(n, tuple(1.0 / kind for _ in range(kind)), seed=seed)


# kinds whose degrees tie almost everywhere, so that tie-breaking decides
# which vertices the degree tails pick
TIE_KINDS = ["mono", "two_block", "mono_digraph"]


def _oracle_graph(kind, n, seed):
    """`_graph_of_kind`, or a tie-heavy graph on at least n vertices: one
    color of an r-graph (r from 2 to 6), two planted halves, or one arrow
    state everywhere."""
    if kind == "mono":
        r = 2 + seed % 5
        return mono_rgraph(n, r, 1 + seed % r)
    if kind == "two_block":
        return two_block_rgraph((n + 1) // 2)
    if kind == "mono_digraph":
        return mono_digraph(n, rg.DIGRAPH_STATES[seed % 4])
    return _graph_of_kind(kind, n, seed)


def _oracle_sides(G, gamma, sides, rng):
    """Two disjoint vertex sets: random ones, or one side ("a_full" or
    "b_full") whose qualifying minimum is the whole side while the other
    side's is not."""
    if sides == "random":
        return random_disjoint_sets(rng, G.n, amin=1)
    perm = rng.permutation(G.n).tolist()
    full = max(s for s in (1, 2) if math.ceil(gamma * s) == s and s + 3 <= G.n)
    other = int(rng.integers(3, G.n - full + 1))
    A, B = sorted(perm[:full]), sorted(perm[full:full + other])
    return (A, B) if sides == "a_full" else (B, A)


class TestHeuristicBatch:
    """The shape-batched kernel behind `_certify_pairs` against the public
    per-pair heuristic, report by report."""

    @given(
        kind=st.sampled_from([2, 3, 4, "digraph"]),
        seed=st.integers(0, 10_000),
        k=st.integers(3, 7),
        small=st.integers(2, 9),
        gamma=st.sampled_from([0.1, 0.2, 0.3, 0.45]),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_batch_matches_per_pair(self, kind, seed, k, small, gamma):
        n = k * small + 1 + seed % (k - 1)  # two block sizes, so several shapes
        G = _graph_of_kind(kind, n, seed)
        part = rg.equipartition(n, k, seed=seed)
        assert len(set(part.sizes())) == 2
        iu, ju = np.triu_indices(k, 1)
        codes, witnesses = certify_pairs(G, part.blocks, iu, ju, gamma, "heuristic", 12)
        reports = batch_reports(gamma, codes, witnesses)
        for i, j, rep in zip(iu, ju, reports):
            A, B = part.blocks[i], part.blocks[j]
            assert rep == rg.certify(G, A, B, gamma, "heuristic")
            if rep.verdict == rg.IRREGULAR:
                w = rep.witness
                whole = rg.density_vector(G, A, B)
                gap = np.abs(rg.density_vector(G, w.a_prime, w.b_prime) - whole)
                assert w.deviation == gap.max()
                assert w.color == rg.channel_labels(G)[int(gap.argmax())]
                assert len(w.a_prime) >= gamma * len(A) and len(w.b_prime) >= gamma * len(B)

    @given(
        kind=st.sampled_from([2, 3, 4, 5, 6, "digraph"] + TIE_KINDS),
        seed=st.integers(0, 10_000),
        n=st.integers(4, 30),
        gamma=st.sampled_from([0.1, 0.25, 0.4, 0.6]),
        sides=st.sampled_from(["random", "a_full", "b_full"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_pair_by_pair_reference(self, kind, seed, n, gamma, sides):
        """One pair (P = 1) on uniform and tie-heavy graphs, and with one
        side whose qualifying minimum is the whole side."""
        G = _oracle_graph(kind, n, seed)
        A, B = _oracle_sides(G, gamma, sides, np.random.default_rng(seed))
        if sides != "random":
            whole = [math.ceil(gamma * len(side)) >= len(side) for side in (A, B)]
            assert whole == ([True, False] if sides == "a_full" else [False, True])
        expected = heuristic_reference(G, A, B, gamma)
        a, b = np.array([A]), np.array([B])
        found = kernel_witnesses(G, a, b, run_kernel(density._heuristic_batch, G, a, b, gamma))
        assert rg.RegularityReport(gamma, rg.IRREGULAR if found else rg.UNKNOWN, found.get(0)) == expected
        assert rg.certify(G, A, B, gamma, "heuristic") == expected

    @pytest.mark.parametrize("kind", [2, 3, 4, "digraph"])
    def test_several_shape_classes_in_one_call(self, kind):
        G = _graph_of_kind(kind, 60, seed=11)
        part = rg.equipartition(60, 7, seed=11)  # blocks of 8 and 9
        iu, ju = np.triu_indices(7, 1)
        codes, witnesses = certify_pairs(G, part.blocks, iu, ju, 0.2, "heuristic", 12)
        shapes = {(len(part.blocks[i]), len(part.blocks[j])) for i, j in zip(iu, ju)}
        assert len(shapes) >= 3
        for i, j, rep in zip(iu, ju, batch_reports(0.2, codes, witnesses)):
            assert rep == rg.certify(G, part.blocks[i], part.blocks[j], 0.2, "heuristic")
        assert witnesses  # the comparison above saw witnesses, not only "unknown"

    @pytest.mark.parametrize("kind", [2, 4, "digraph"])
    def test_only_the_full_pair_qualifies(self, kind):
        G = _graph_of_kind(kind, 31, seed=3)
        part = rg.equipartition(31, 4, seed=3)  # blocks of 7 and 8
        iu, ju = np.triu_indices(4, 1)
        codes, witnesses = certify_pairs(G, part.blocks, iu, ju, 0.95, "heuristic", 12)
        assert witnesses == {} and codes.tolist() == [density._UNK] * 6
        for i, j, rep in zip(iu, ju, batch_reports(0.95, codes, witnesses)):
            assert rep == rg.RegularityReport(0.95, rg.UNKNOWN)
            assert rep == rg.certify(G, part.blocks[i], part.blocks[j], 0.95, "heuristic")


def _pairs_of_shape(G, na, nb, count, rng):
    """`count` disjoint (A, B) pairs of one shape as trusted index arrays."""
    perm = rng.permutation(G.n)[: count * (na + nb)].reshape(count, na + nb)
    return np.sort(perm[:, :na], axis=1), np.sort(perm[:, na:], axis=1)


def _exact_reports(G, A, B, gamma):
    """The exhaustive kernel's reports: a pair it finds no witness for is
    proved regular."""
    found = kernel_witnesses(G, A, B, run_kernel(density._exact_batch, G, A, B, gamma))
    return [rg.RegularityReport(gamma, rg.IRREGULAR if p in found else rg.REGULAR, found.get(p))
            for p in range(len(A))]


class TestExactBatch:
    """The batched exhaustive kernel against the pair-by-pair reference,
    report by report, witnesses included."""

    @given(
        kind=st.sampled_from([2, 3, "digraph"]),
        seed=st.integers(0, 10_000),
        na=st.integers(1, 8),
        nb=st.integers(1, 8),
        count=st.integers(1, 7),
        gamma=st.sampled_from([6.5e-5, 0.2, 0.25, 0.5, 0.9]),
        chunk=st.sampled_from([1, 12, 100, 2 ** 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_pair_by_pair_reference(self, kind, seed, na, nb, count, gamma, chunk):
        G = _graph_of_kind(kind, count * (na + nb) + 3, seed)
        A, B = _pairs_of_shape(G, na, nb, count, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_EXACT_CHUNK", chunk)
            reports = _exact_reports(G, A, B, gamma)
        assert reports == [exact_pair_reference(G, a, b, gamma) for a, b in zip(A, B)]

    @pytest.mark.parametrize("kind", [2, 3, "digraph"])
    @pytest.mark.parametrize("na, nb", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
    @pytest.mark.parametrize("gamma", [6.5e-5, 0.2, 0.25, 0.5, 0.9])
    def test_chunks_split_mixed_verdicts(self, kind, na, nb, gamma):
        """Every pair is planted in one channel: a flat pair, from which no
        sub-pair deviates, or one with a single odd edge, which a 1 x 1
        sub-pair refutes once it qualifies.  A budget of two pairs per
        chunk puts both verdicts on each side of every chunk boundary."""
        flat = [True, False, False, True, True, False, False, True]
        G = _graph_of_kind(kind, len(flat) * (na + nb), seed=na * 10 + nb)
        A, B = _pairs_of_shape(G, na, nb, len(flat), np.random.default_rng(5))
        planted = {}  # (a, b) with a in A -> channel, read from a towards b
        for p, is_flat in enumerate(flat):
            for a in A[p]:
                for b in B[p]:
                    planted[int(a), int(b)] = 1
            if not is_flat:
                planted[int(A[p, 0]), int(B[p, 0])] = 2
        state = {1: "fwd", 2: "bi"}
        assignments = []
        for u in range(G.n):
            for v in range(u + 1, G.n):
                if (u, v) in planted or (v, u) in planted:
                    c = planted.get((u, v)) or planted[v, u]
                    if kind == "digraph":
                        c = rg.flip_state(state[c]) if (u, v) not in planted else state[c]
                elif kind == "digraph":
                    c = G.arc(u, v)
                else:
                    c = G.color(u, v)
                assignments.append((u, v, c))
        if kind == "digraph":
            G = rg.new_digraph(G.n, assignments)
        else:
            G = rg.new_rgraph(G.n, kind, assignments)
        expected = [exact_pair_reference(G, a, b, gamma) for a, b in zip(A, B)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_EXACT_CHUNK", 2 * na * nb)
            assert _exact_reports(G, A, B, gamma) == expected
        single_qualifies = gamma * max(na, nb) <= 1
        mixed = na * nb > 1 and single_qualifies and gamma < 1 - 1 / (na * nb)
        verdicts = [rep.verdict == rg.REGULAR for rep in expected]
        assert verdicts == (flat if mixed else [True] * len(flat))

    @given(
        kind=st.sampled_from([2, 3, "digraph"]),
        seed=st.integers(0, 10_000),
        na=st.integers(3, 9),
        nb=st.integers(2, 9),
        gamma=st.sampled_from([0.05, 0.2, 0.3, 0.45]),
        split=st.sampled_from([1, 2, 3, 7, 10 ** 6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_mask_rows_split_like_one_table(self, kind, seed, na, nb, gamma, split):
        """A budget below one pair's table (split > 1) splits its mask rows;
        the reports, witnesses included, match the unchunked run."""
        G = _graph_of_kind(kind, 3 * (na + nb) + 3, seed)
        A, B = _pairs_of_shape(G, na, nb, 3, np.random.default_rng(seed))
        whole = _exact_reports(G, A, B, gamma)
        masks = sum(math.comb(na, s) for s in range(max(1, math.ceil(gamma * na)), na + 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_EXACT_CHUNK", max(1, masks * nb // split))
            assert _exact_reports(G, A, B, gamma) == whole

    @given(
        kind=st.sampled_from([2, 3, "digraph"]),
        seed=st.integers(0, 10_000),
        na=st.integers(9, 16),
        nb=st.integers(9, 16),
        count=st.integers(1, 2),
        gamma=st.sampled_from([0.1, 0.25, 0.3, 0.45, 0.6]),
        chunk=st.sampled_from([1000, 2 ** 16]),
    )
    @settings(max_examples=12, deadline=None)
    def test_large_sides_match_the_every_size_reference(self, kind, seed, na, nb, count, gamma, chunk):
        """The kernel reads only the minimum qualifying sizes and scans for
        a witness at |B'| = b_min; the reference scans every |A'| and |B'|.
        A budget of 1000 splits the mask rows of both passes."""
        G = _graph_of_kind(kind, count * (na + nb) + 3, seed)
        A, B = _pairs_of_shape(G, na, nb, count, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "_EXACT_CHUNK", chunk)
            reports = _exact_reports(G, A, B, gamma)
        assert reports == [exact_pair_reference(G, a, b, gamma) for a, b in zip(A, B)]

    @pytest.mark.parametrize("gamma, verdict", [(0.25, rg.IRREGULAR), (0.6, rg.REGULAR)])
    def test_sixteen_vertex_sides_stay_small(self, gamma, verdict):
        """No table over all 2^16 mask rows: both passes build their rows
        chunk by chunk."""
        G = rg.sample_rgraph(200, (1 / 3, 1 / 3, 1 / 3), seed=5)
        A, B = list(range(16)), list(range(100, 116))
        tracemalloc.start()
        try:
            report = rg.certify(G, A, B, gamma, "exact", 16)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert report.verdict == verdict
        assert peak < 10

    def test_twelve_vertex_sides_keep_one_table(self):
        # every nonempty mask row of a 12-vertex side against 12 columns
        assert (2 ** 12 - 1) * 12 < density._EXACT_CHUNK

    def test_only_the_full_pair_qualifies(self):
        G = _graph_of_kind(3, 40, seed=4)
        A, B = _pairs_of_shape(G, 3, 4, 5, np.random.default_rng(4))
        reports = _exact_reports(G, A, B, 0.8)  # ceil(2.4) = 3, ceil(3.2) = 4
        assert reports == [rg.RegularityReport(0.8, rg.REGULAR)] * 5
        assert reports == [exact_pair_reference(G, a, b, 0.8) for a, b in zip(A, B)]


class TestExactSideCeiling:
    """Above `_EXACT_MAX_SIDE` vertices per side the exhaustive table is
    out of reach whatever `exact_cap` says."""

    @pytest.mark.parametrize("side", [17, 33])
    def test_exact_raises_above_the_ceiling(self, side):
        G = rg.sample_rgraph(2 * side, (0.5, 0.5), seed=side)
        A, B = list(range(side)), list(range(side, 2 * side))
        with pytest.raises(TooLargeForExhaustive, match="cap 16"):
            rg.certify(G, A, B, 0.3, "exact", exact_cap=40)

    @pytest.mark.parametrize("side", [17, 33])
    def test_auto_falls_back_to_the_heuristic(self, side):
        G = rg.sample_rgraph(2 * side, (0.5, 0.5), seed=side)
        A, B = list(range(side)), list(range(side, 2 * side))
        rep = rg.certify(G, A, B, 0.3, "auto", exact_cap=40)
        assert rep == rg.certify(G, A, B, 0.3, "heuristic")

    def test_exact_runs_at_the_ceiling(self):
        G = rg.sample_rgraph(32, (0.5, 0.5), seed=1)
        A, B = list(range(16)), list(range(16, 32))
        rep = rg.certify(G, A, B, 0.6, "exact", exact_cap=40)
        assert rep == exact_pair_reference(G, A, B, 0.6)


class TestOneExactCap:
    """Only `certify` sets the exhaustive side cap; every other entry point
    certifies at `_EXACT_SIDE_CAP` = 12.  On a one-colour graph the exact
    certifier proves every pair regular and the heuristic never does, so
    the verdict shows which one ran."""

    def test_decompose_exact_runs_up_to_the_cap(self):
        efun = rg.EpsilonFunction.constant(0.3)
        assert density._EXACT_SIDE_CAP == 12
        res = rg.decompose(mono_rgraph(24, 2, 1), 2, efun, cap=2, certifier="exact")
        assert res.coarse.sizes() == (12, 12)
        with pytest.raises(TooLargeForExhaustive, match=r"^\|A\|=13, \|B\|=13 exceed the cap 12$"):
            rg.decompose(mono_rgraph(26, 2, 1), 2, efun, cap=2, certifier="exact")

    @pytest.mark.parametrize("side, verdict", [(12, rg.REGULAR), (13, rg.UNKNOWN)])
    def test_auto_entry_points_share_the_cap(self, side, verdict):
        G = mono_rgraph(2 * side, 2, 1)
        A, B = list(range(side)), list(range(side, 2 * side))
        sliced = rg.verify_slicing(G, A, B, A, B, 0.2)
        assert sliced.regularity == rg.certify(G, A, B, sliced.eta, "auto").verdict == verdict
        lemma = rg.check_embedding_lemma(G, mono_rgraph(2, 2, 1), [A, B], 0.5)
        gamma = lemma.constants.gamma
        assert lemma.pairs[0].regularity == rg.certify(G, A, B, gamma, "auto").verdict == verdict


class TestCertifyPairs:
    """Every method of the shape-grouped core against its per-pair public
    certifier, on partitions whose two block sizes straddle the cap."""

    @given(
        kind=st.sampled_from([2, 3, 4, "digraph"]),
        seed=st.integers(0, 10_000),
        k=st.integers(3, 5),
        small=st.integers(2, 8),
        gamma=st.sampled_from([0.2, 0.35, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_and_auto_match_per_pair(self, kind, seed, k, small, gamma):
        n = k * small + 1 + seed % (k - 1)  # blocks of `small` and `small + 1`
        G = _graph_of_kind(kind, n, seed)
        part = rg.equipartition(n, k, seed=seed)
        iu, ju = np.triu_indices(k, 1)
        codes, witnesses = certify_pairs(G, part.blocks, iu, ju, gamma, "exact", small + 1)
        exact = batch_reports(gamma, codes, witnesses)
        auto = batch_reports(gamma, *certify_pairs(G, part.blocks, iu, ju, gamma, "auto", small))
        assert density._UNK not in codes.tolist()
        assert sorted(witnesses) == np.flatnonzero(codes == density._IRR).tolist()
        for i, j, rep, auto_rep in zip(iu, ju, exact, auto):
            A, B = part.blocks[i], part.blocks[j]
            assert rep == (
                rg.RegularityReport(gamma, rg.REGULAR) if gamma >= 1
                else exact_pair_reference(G, A, B, gamma)
            )
            assert auto_rep == rg.certify(G, A, B, gamma, "auto", small)
            if rep.verdict == rg.IRREGULAR:
                w = rep.witness
                c = rg.channel_labels(G).index(w.color)
                whole = rg.density_vector(G, A, B)[c]
                assert w.deviation == abs(rg.density_vector(G, w.a_prime, w.b_prime)[c] - whole)
        with pytest.raises(TooLargeForExhaustive):
            _certify_pairs(G, part.blocks, iu, ju, gamma, "exact", small)


class TestPairArrays:
    """`_certify_pairs` on index arrays in any order, against `certify` one
    pair at a time."""

    @given(
        kind=st.sampled_from([2, 3, "digraph"]),
        method=st.sampled_from(["heuristic", "exact", "auto"]),
        seed=st.integers(0, 10_000),
        k=st.integers(4, 6),
        small=st.integers(1, 5),
        gamma=st.sampled_from([0.2, 0.35, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_four_shapes_match_per_pair_certify(self, kind, method, seed, k, small, gamma):
        rng = np.random.default_rng(seed)
        n = k * small + int(rng.integers(2, k - 1))  # at least two blocks of each size
        G = _graph_of_kind(kind, n, seed)
        part = rg.equipartition(n, k, seed=seed)
        ia, ib = np.nonzero(~np.eye(k, dtype=bool))  # both orders of every pair
        shuffle = rng.permutation(len(ia))
        ia, ib = ia[shuffle], ib[shuffle]
        sizes = np.array(part.sizes())
        assert len(set(zip(sizes[ia].tolist(), sizes[ib].tolist()))) == 4
        cap = small if method == "auto" else small + 1  # auto runs both kernels
        codes, witnesses = certify_pairs(G, part.blocks, ia, ib, gamma, method, cap)
        expected = [
            rg.certify(G, part.blocks[i], part.blocks[j], gamma, method, cap)
            for i, j in zip(ia, ib)
        ]
        assert batch_reports(gamma, codes, witnesses) == expected
        verdicts = [rep.verdict for rep in expected]
        assert np.count_nonzero(codes == density._IRR) == verdicts.count(rg.IRREGULAR)
        assert np.count_nonzero(codes == density._UNK) == verdicts.count(rg.UNKNOWN)
        assert sorted(witnesses) == [p for p, v in enumerate(verdicts) if v == rg.IRREGULAR]

    def test_no_pairs(self):
        G = _graph_of_kind(2, 6, seed=0)
        codes, witnesses = certify_pairs(G, [[0, 1], [2, 3]], [], [], 0.3, "exact", 12)
        assert codes.shape == (0,) and witnesses == {}


class TestHeuristicSameShapePairs:
    """The product kernel sums in float32 at every pair size (a degree sums
    at most max(|A|, |B|) ones, exact below 2^24); several same-shape pairs
    in one call match the per-pair reference."""

    @given(
        kind=st.sampled_from([2, 3, 4, 6, "digraph"] + TIE_KINDS),
        seed=st.integers(0, 10_000),
        na=st.integers(1, 9),
        nb=st.integers(1, 9),
        count=st.integers(1, 4),
        gamma=st.sampled_from([0.1, 0.25, 0.4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_shape_pairs_match_reference(self, kind, seed, na, nb, count, gamma):
        G = _oracle_graph(kind, count * (na + nb) + 3, seed)
        A, B = _pairs_of_shape(G, na, nb, count, np.random.default_rng(seed))
        single = kernel_witnesses(G, A, B, run_kernel(density._heuristic_batch, G, A, B, gamma))
        reports = [rg.RegularityReport(gamma, rg.IRREGULAR if p in single else rg.UNKNOWN,
                                       single.get(p)) for p in range(len(A))]
        assert reports == [heuristic_reference(G, a, b, gamma) for a, b in zip(A, B)]


class TestSingleCellBatch:
    """The closed-form kernel for qualifying minima of one vertex against
    the degree-tail kernel (every returned array) and the pair-by-pair
    reference (report by report)."""

    @given(
        kind=st.sampled_from([2, 3, 4, 5, 6, "digraph"] + TIE_KINDS),
        seed=st.integers(0, 10_000),
        na=st.integers(1, 20),
        nb=st.integers(1, 20),
        count=st.integers(1, 30),
        gamma=st.sampled_from(["tiny", "half", "whole"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_degree_tail_kernel_and_reference(self, kind, seed, na, nb, count, gamma):
        side = max(na, nb)  # every single vertex qualifies at each of these gammas
        gamma = {"tiny": 1e-4, "half": 1 / (2 * side), "whole": 1 / side}[gamma]
        assert density._qualifying_min(gamma, na) == density._qualifying_min(gamma, nb) == 1
        G = _oracle_graph(kind, count * (na + nb) + 3, seed)
        A, B = _pairs_of_shape(G, na, nb, count, np.random.default_rng(seed))
        hits = run_kernel(density._single_cell_batch, G, A, B, gamma)
        for got, want in zip(hits, run_kernel(density._heuristic_batch, G, A, B, gamma)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        found = kernel_witnesses(G, A, B, hits)
        reports = [rg.RegularityReport(gamma, rg.IRREGULAR if p in found else rg.UNKNOWN,
                                       found.get(p)) for p in range(len(A))]
        # the reference recounts every degree with `density_vector`: check a few pairs
        assert reports[:3] == [heuristic_reference(G, a, b, gamma) for a, b in zip(A[:3], B[:3])]

    @pytest.mark.parametrize("r", [40, 300])
    def test_many_colors(self, r):
        """Most densities are 0 or tie, and the code table has one entry
        per pair and code."""
        G = _graph_of_kind(r, 60, seed=r)
        A, B = _pairs_of_shape(G, 3, 4, 8, np.random.default_rng(r))
        hits = run_kernel(density._single_cell_batch, G, A, B, 0.25)
        for got, want in zip(hits, run_kernel(density._heuristic_batch, G, A, B, 0.25)):
            np.testing.assert_array_equal(got, want)
        assert hits[0].size

    def test_deviation_of_exactly_gamma_is_no_witness(self):
        # a 2 x 2 pair half in each color: every cell deviates by exactly 1/2
        G = rg.new_rgraph(4, 2, [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1), (2, 3, 1)])
        A, B = np.array([[0, 1]]), np.array([[2, 3]])
        assert run_kernel(density._single_cell_batch, G, A, B, 0.5)[0].tolist() == []
        assert run_kernel(density._single_cell_batch, G, A, B, 0.4999)[0].tolist() == [0]

    @pytest.mark.parametrize("kind", [2, 3, "digraph"])
    @pytest.mark.parametrize("n, k", [(40, 16), (55, 16)])  # blocks of 2 and 3, or 3 and 4
    def test_certify_pairs_picks_it_on_small_blocks(self, kind, n, k):
        G = _graph_of_kind(kind, n, seed=n)
        part = rg.equipartition(n, k, seed=n)
        iu, ju = np.triu_indices(k, 1)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            kernel = density._single_cell_batch
            mp.setattr(density, "_single_cell_batch", lambda *args: calls.append(1) or kernel(*args))
            codes, witnesses = certify_pairs(G, part.blocks, iu, ju, 0.0667, "heuristic", 12)
        sizes = np.array(part.sizes())
        assert len(calls) == len(set(zip(sizes[iu].tolist(), sizes[ju].tolist())))  # one per shape
        assert witnesses
        for i, j, rep in zip(iu, ju, batch_reports(0.0667, codes, witnesses)):
            assert rep == rg.certify(G, part.blocks[i], part.blocks[j], 0.0667, "heuristic")


@functools.lru_cache(maxsize=None)
def _large_graph(kind):
    if kind == "digraph":
        return rg.sample_digraph(2000, 0.2, 0.3, seed=0)
    return rg.sample_rgraph(400, tuple(1 / 32 for _ in range(32)), seed=0)


class TestHeuristicMemory:
    """The batched search lines grow with 2 * nch per pair; one large pair
    must stay within 1.25 times a traced peak measured on the same call, in
    MiB: that of the kernel that ran one line at a time, and at gamma 1e-4,
    where single vertices qualify, that of the closed form."""

    @pytest.mark.parametrize(
        "kind, side, gamma, reference_mib",
        [("digraph", 1000, 0.25, 22.0), ("digraph", 1000, 0.1, 21.0), ("rgraph", 200, 0.25, 6.2),
         ("digraph", 1000, 1e-4, 9.6)],
    )
    def test_one_large_pair(self, kind, side, gamma, reference_mib):
        G = _large_graph(kind)
        A, B = list(range(side)), list(range(side, 2 * side))
        tracemalloc.start()
        try:
            rg.certify(G, A, B, gamma)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * reference_mib


class TestCertify:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "method, na, nb, oracle",
        [
            ("exact", 6, 6, "exact"),
            ("heuristic", 6, 6, "heuristic"),
            ("heuristic", 20, 15, "heuristic"),
            ("auto", 6, 6, "exact"),
            ("auto", 12, 12, "exact"),  # both sides at the cap
            ("auto", 13, 6, "heuristic"),  # one side over the cap
            ("auto", 6, 13, "heuristic"),
        ],
    )
    def test_matches_the_certifier_it_names(self, method, na, nb, oracle, seed):
        G = rg.sample_rgraph(na + nb, (0.5, 0.5), seed=seed)
        A, B = list(range(na)), list(range(na, na + nb))
        for gamma in (0.2, 0.45):
            if oracle == "exact":
                expected = exact_pair_reference(G, A, B, gamma)
            else:
                expected = heuristic_reference(G, A, B, gamma)
            assert rg.certify(G, A, B, gamma, method) == expected

    def test_auto_is_regular_at_gamma_one_above_the_cap(self):
        G = rg.sample_rgraph(40, (0.5, 0.5), seed=0)
        A, B = list(range(20)), list(range(20, 40))
        for gamma in (1.0, 1.5):
            rep = rg.certify(G, A, B, gamma, "auto")
            assert rep == rg.RegularityReport(gamma, rg.REGULAR)
        with pytest.raises(OverlappingSets):
            rg.certify(G, A, A, 1.0, "auto")

    def test_exact_keeps_its_cap(self):
        G = rg.sample_rgraph(30, (0.5, 0.5), seed=0)
        with pytest.raises(TooLargeForExhaustive):
            rg.certify(G, list(range(15)), list(range(15, 30)), 0.3, "exact")
        rep = rg.certify(G, list(range(15)), list(range(15, 30)), 0.3, "exact", exact_cap=15)
        assert rep.verdict in (rg.REGULAR, rg.IRREGULAR)

    @pytest.mark.parametrize("method", ["exakt", "spectral", ""])
    def test_unknown_method_rejected(self, method):
        G = rg.sample_rgraph(12, (0.5, 0.5), seed=0)
        with pytest.raises(RegracutError, match="unknown certifier"):
            rg.certify(G, list(range(6)), list(range(6, 12)), 0.3, method)


class TestDefectCauchySchwarz:
    def test_equality_hand_examples(self):
        flat = rg.defect_cs_check([1, 1, 1, 1], 2)
        assert flat.alpha == 0.0
        assert flat.lhs == pytest.approx(flat.rhs, abs=1e-12)
        assert flat.holds
        skew = rg.defect_cs_check([2, 0], 1)
        assert skew.alpha == 1.0
        assert skew.lhs == pytest.approx(4.0, abs=1e-12)
        assert skew.rhs == pytest.approx(4.0, abs=1e-12)
        assert skew.holds

    @given(
        xs=st.lists(st.floats(0, 10, allow_nan=False), min_size=2, max_size=50),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_holds_on_random_sequences(self, xs, data):
        m = data.draw(st.integers(1, len(xs) - 1))
        chk = rg.defect_cs_check(xs, m)
        assert chk.holds
        assert chk.lhs >= chk.rhs - 1e-9
        # alpha is the head-sum imbalance by definition
        expected_alpha = sum(xs[:m]) - m * sum(xs) / len(xs)
        assert chk.alpha == pytest.approx(expected_alpha, abs=1e-9)

    def test_m_validation(self):
        with pytest.raises(BadM):
            rg.defect_cs_check([1.0, 2.0], 0)
        with pytest.raises(BadM):
            rg.defect_cs_check([1.0, 2.0], 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_entries_must_be_finite_and_nonnegative(self, bad):
        """NaN compares false with 0 and inf makes alpha NaN, so both would
        slip past a sign check and return a meaningless check; NaN is
        refused as no real number."""
        message = ("^each entry must be a real number, got nan$" if bad != bad
                   else "^entries must be finite and nonnegative$")
        with pytest.raises(RegracutError, match=message):
            rg.defect_cs_check([bad, 2.0, 3.0], 1)

    @pytest.mark.parametrize("xs", [[1e308, 1e308], [1e200, 0.0, 0.0]])
    def test_overflow_refused(self, xs):
        """Squares or sums beyond float64 would make lhs = rhs = inf: a
        check that "holds" while saying nothing, with an overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RegracutError, match="^entries too large: the check overflows float64$"):
                rg.defect_cs_check(xs, 1)

    def test_large_finite_check_unchanged(self):
        chk = rg.defect_cs_check([1e150, 0.0], 1)
        assert chk.alpha == 5e149 and chk.holds
        assert chk.lhs == pytest.approx(1e300) and chk.rhs == pytest.approx(1e300)


class TestCorollaryCheck:
    def _planted(self):
        """A'1 x B'1 pure color 1, everything else color 2."""
        n = 16
        pairs = []
        for u in range(n):
            for v in range(u + 1, n):
                if u < 8 <= v:
                    color = 1 if (u < 4 and v < 12) else 2
                else:
                    color = 2
                pairs.append((u, v, color))
        return rg.new_rgraph(n, 2, pairs)

    def test_planted_deviations_trigger_conclusion(self):
        G = self._planted()
        A, B = list(range(8)), list(range(8, 16))
        a_blocks = [A[:4], A[4:]]
        b_blocks = [B[:4], B[4:]]
        chk = rg.corollary_cs_check(G, A, B, a_blocks, b_blocks, 1, 0.5)
        # d1(A,B) = 16/64; every 4x4 sub-pair deviates by at least 1/4.
        assert chk.premise_count == 4
        assert chk.premise_met
        assert chk.lhs == pytest.approx(1.0, abs=1e-12)
        assert chk.rhs == pytest.approx(4 * (0.25 ** 2 + 0.5 ** 3 / 8), abs=1e-12)
        assert chk.conclusion_holds

    def test_flat_pair_misses_premise(self):
        G = two_block_rgraph(8)
        A, B = list(range(8)), list(range(8, 16))
        chk = rg.corollary_cs_check(G, A, B, [A[:4], A[4:]], [B[:4], B[4:]], 1, 0.1)
        assert chk.premise_count == 0
        assert not chk.premise_met

    def test_sub_density_mass_identity(self):
        """With equal sub-blocks the sub-densities average to the pair
        density exactly, channel by channel."""
        G = rg.sample_rgraph(24, (0.3, 0.7), seed=5)
        A, B = list(range(12)), list(range(12, 24))
        a_blocks = [A[:4], A[4:8], A[8:]]
        b_blocks = [B[:4], B[4:8], B[8:]]
        d = rg.density_vector(G, A, B)
        total = np.zeros(2)
        for ab in a_blocks:
            for bb in b_blocks:
                total += rg.density_vector(G, ab, bb)
        assert np.allclose(total, 9 * d, atol=1e-12)

    def test_unequal_sub_blocks_rejected(self):
        G = two_block_rgraph(8)
        A, B = list(range(8)), list(range(8, 16))
        with pytest.raises(UnequalSubBlocks):
            rg.corollary_cs_check(G, A, B, [A[:3], A[3:]], [B[:4], B[4:]], 1, 0.1)
