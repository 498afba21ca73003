"""Embedding constants, spanning-copy counting, and the desk-scale
embedding check."""

import itertools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut import embedding as em
from regracut.errors import (
    ArityMismatch,
    BadEta,
    EmptySet,
    KindMismatch,
    OverlappingSets,
    RegracutError,
)

from helpers import count_copies_reference, mono_rgraph


def count_copies_brute(G, H, parts):
    """Independent spanning-copy count by full enumeration."""
    if isinstance(G, rg.ColoredGraph):
        read_g, read_h = G.color, H.color
    else:
        read_g, read_h = G.arc, H.arc
    k = H.n
    count = 0
    for choice in itertools.product(*parts):
        if all(
            read_g(choice[i], choice[j]) == read_h(i, j)
            for i in range(k) for j in range(i + 1, k)
        ):
            count += 1
    return count


def delta_recursive(eta, k):
    """delta(eta, k) by the recursion as the paper states it."""
    if k == 1:
        return 1.0
    g = em._gamma(eta, k)
    return delta_recursive(eta - g, k - 1) * (eta - g) ** (k - 1) * (1 - (k - 1) * g)


class TestConstants:
    def test_frozen_values(self):
        c = rg.embedding_constants(0.5, 2)
        assert c.gamma == pytest.approx(1 / 6, abs=1e-15)
        assert c.delta == pytest.approx(5 / 18, abs=1e-15)

    def test_three_level_recursion_unrolled(self):
        """gamma(0.2,3) = 0.01; then delta follows the recursion through
        eta' = 0.19 where the 1/6 branch stops binding."""
        c = rg.embedding_constants(0.2, 3)
        assert c.gamma == pytest.approx(0.01, abs=1e-15)
        expected_delta = (0.095 * (1 - 0.095)) * 0.19 ** 2 * (1 - 2 * 0.01)
        assert c.delta == pytest.approx(expected_delta, rel=1e-12)

    def test_single_part_is_free(self):
        c = rg.embedding_constants(0.37, 1)
        assert c.delta == 1.0

    def test_eta_domain(self):
        with pytest.raises(BadEta):
            rg.embedding_constants(0.0, 2)
        with pytest.raises(BadEta):
            rg.embedding_constants(1.0, 2)
        with pytest.raises(RegracutError):
            rg.embedding_constants(0.5, 0)

    @pytest.mark.parametrize("eta", [1e-300, 0.01, 0.2, 1 / 3, 0.5, 0.77, 0.9999, 1 - 2**-53])
    def test_delta_matches_recursion_bitwise(self, eta):
        for k in range(1, 61):
            assert rg.embedding_constants(eta, k).delta == delta_recursive(eta, k)
        # levels above _GAMMA_ZERO, where gamma has underflowed to 0.0, are
        # one power of eta: exactly the closed form, and the recursion's
        # step-by-step product up to rounding wherever that is a normal float
        top = em._GAMMA_ZERO
        assert em._gamma(eta, top) == 0.0
        for k in (top + 1, top + 2, 600):
            delta = rg.embedding_constants(eta, k).delta
            assert delta == delta_recursive(eta, top) * eta ** (math.comb(k, 2) - math.comb(top, 2))
            stepwise = delta_recursive(eta, k)
            if stepwise >= np.finfo(float).tiny:
                assert delta == pytest.approx(stepwise, rel=1e-12, abs=0)

    def test_delta_near_one_returns_quickly(self):
        """At eta = 1 - 2**-53, delta stays a normal float for about 5e9
        levels, so a tail taken level by level above _GAMMA_ZERO would take
        seconds at k = 10**8."""
        start = time.perf_counter()
        assert rg.embedding_constants(1 - 1e-9, 10**12).delta == 0.0
        assert 0.0 < rg.embedding_constants(1 - 2**-53, 10**8).delta < 1.0
        assert time.perf_counter() - start < 1.0

    # at 10**200, comb(k, 2) is past the float range: the capped power is 0.0
    @pytest.mark.parametrize("k", [1200, 5000, 10**12, 10**200])
    def test_many_parts_return(self, k):
        c = rg.embedding_constants(0.5, k)
        assert c.gamma == 0.0 and c.delta == 0.0

    def test_monotone_in_eta_and_k(self):
        etas = [0.1 * i for i in range(1, 10)]
        for k in range(2, 7):
            deltas = [rg.embedding_constants(e, k).delta for e in etas]
            assert all(b >= a for a, b in zip(deltas, deltas[1:]))
        for eta in etas:
            by_k = [rg.embedding_constants(eta, k).delta for k in range(1, 7)]
            assert all(b <= a for a, b in zip(by_k, by_k[1:]))
            assert all(0 < d <= 1 for d in by_k)

    def test_inequality_chain(self):
        """The recursion step stays admissible: the shrunk tolerance still
        clears the next level's regularity demand."""
        for eta in [0.1 * i for i in range(1, 10)]:
            for k in range(2, 7):
                c = rg.embedding_constants(eta, k)
                shrunk = eta - c.gamma
                lhs = max(2.0, 1.0 / shrunk) * c.gamma
                rhs = min((shrunk / 2) ** (k - 2), (1 / 6) ** (k - 2))
                assert lhs <= rhs + 1e-12


class TestCountSpanningCopies:
    def test_single_part_counts_vertices(self):
        G = mono_rgraph(9, 2, 1)
        H = rg.new_rgraph(1, 2, [])
        out = rg.count_spanning_copies(G, H, [[0, 3, 5]])
        assert out.count == 3
        assert out.total == 3

    def test_monochromatic_product(self):
        G = mono_rgraph(12, 2, 1)
        H = mono_rgraph(3, 2, 1)
        parts = [[0, 1, 2], [3, 4, 5, 6], [7, 8]]
        out = rg.count_spanning_copies(G, H, parts)
        assert out.count == 3 * 4 * 2
        assert out.total == 3 * 4 * 2

    def test_mismatched_pattern_counts_zero(self):
        G = mono_rgraph(8, 2, 1)
        H = mono_rgraph(2, 2, 2)
        out = rg.count_spanning_copies(G, H, [[0, 1], [2, 3]])
        assert out.count == 0

    @given(seed=st.integers(0, 500), r=st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_rgraph(self, seed, r):
        p = tuple(1.0 / r for _ in range(r))
        G = rg.sample_rgraph(14, p, seed=seed)
        H = rg.sample_rgraph(3, p, seed=seed + 1)
        parts = [[0, 1, 2, 3], [4, 5, 6, 7, 8], [9, 10, 11, 12]]
        out = rg.count_spanning_copies(G, H, parts)
        assert out.count == count_copies_brute(G, H, parts)
        assert out.total == 4 * 5 * 4

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_digraph(self, seed):
        G = rg.sample_digraph(12, 0.25, 0.25, seed=seed)
        H = rg.sample_digraph(3, 0.25, 0.25, seed=seed + 7)
        parts = [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10]]
        out = rg.count_spanning_copies(G, H, parts)
        assert out.count == count_copies_brute(G, H, parts)

    def test_direction_matters(self):
        """A forward pattern arc only matches pairs oriented the same way."""
        G = rg.new_digraph(4, [(0, 1, "none"), (0, 2, "fwd"), (0, 3, "back"),
                               (1, 2, "back"), (1, 3, "fwd"), (2, 3, "none")])
        H = rg.new_digraph(2, [(0, 1, "fwd")])
        out = rg.count_spanning_copies(G, H, [[0, 1], [2, 3]])
        # matching pairs: (0,2) fwd yes; (0,3) back no; (1,2) back no; (1,3) fwd yes
        assert out.count == 2

    def test_four_part_pattern(self):
        G = rg.sample_rgraph(16, (0.5, 0.5), seed=9)
        H = rg.sample_rgraph(4, (0.5, 0.5), seed=2)
        parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9], [10, 11, 12]]
        out = rg.count_spanning_copies(G, H, parts)
        assert out.count == count_copies_brute(G, H, parts)

    def test_eta_attaches_bound(self):
        G = mono_rgraph(12, 2, 1)
        H = mono_rgraph(3, 2, 1)
        parts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        out = rg.count_spanning_copies(G, H, parts, eta=0.4)
        delta = rg.embedding_constants(0.4, 3).delta
        assert out.bound == pytest.approx(delta * 64)
        assert out.satisfied is True
        bare = rg.count_spanning_copies(G, H, parts)
        assert bare.bound is None and bare.satisfied is None

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_einsum_reference(self, data):
        """The clique counter against the einsum it replaced, for k = 1..5,
        with empty and one-vertex parts, graphs using a few of the colors or
        states (so many branches are pruned), and the int64 triangle count
        forced by lowering the float64 limit."""
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6), label="seed"))
        k = data.draw(st.integers(1, 5), label="k")
        sizes = data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k), label="sizes")
        n = sum(sizes) + data.draw(st.integers(0, 2), label="spare") or 1
        if data.draw(st.booleans(), label="directed"):
            alphabet = list(rg.DIGRAPH_STATES)
            build, read = rg.new_digraph, rg.Digraph.arc
        else:
            r = data.draw(st.integers(2, 3), label="r")
            alphabet = list(range(1, r + 1))
            build, read = (lambda n, triples: rg.new_rgraph(n, r, triples)), rg.ColoredGraph.color
        used = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True), label="used")
        G = build(n, [(u, v, used[rng.integers(len(used))])
                      for u, v in itertools.combinations(range(n), 2)])
        order = rng.permutation(n)
        cuts = np.cumsum([0] + sizes)
        parts = [order[cuts[i]:cuts[i + 1]].tolist() for i in range(k)]
        if all(sizes) and data.draw(st.booleans(), label="planted"):
            # the pattern G induces on one vertex per part: at least one copy
            w = [part[0] for part in parts]
            H = build(k, [(u, v, read(G, w[u], w[v]))
                          for u, v in itertools.combinations(range(k), 2)])
        else:
            H = build(k, [(u, v, alphabet[rng.integers(len(alphabet))])
                          for u, v in itertools.combinations(range(k), 2)])
        expected = count_copies_reference(G, H, parts)
        out = rg.count_spanning_copies(G, H, parts)
        assert out.count == expected
        assert out.total == math.prod(sizes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(em, "_FLOAT_EXACT", 1)
            assert rg.count_spanning_copies(G, H, parts).count == expected

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("k", [4, 5])
    def test_real_part_sizes_match_reference(self, k, directed):
        """Parts of 40 to 80 vertices, as the benchmark counts them, with a
        planted copy, in float64 and with the int64 indicators forced.  The
        reference einsum takes |V|^5 steps at k = 5, so parts stay at 40 to
        45 there."""
        rng = np.random.default_rng(10 * k + directed)
        sizes = rng.integers(40, 81 if k == 4 else 46, size=k).tolist()
        n = sum(sizes) + 5
        if directed:
            G, read, build = rg.sample_digraph(n, 0.2, 0.3, seed=k), rg.Digraph.arc, rg.new_digraph
        else:
            G, read = rg.sample_rgraph(n, (0.6, 0.4), seed=k), rg.ColoredGraph.color
            build = lambda n, triples: rg.new_rgraph(n, 2, triples)
        order = rng.permutation(n)
        cuts = np.cumsum([0] + sizes)
        parts = [order[cuts[i]:cuts[i + 1]].tolist() for i in range(k)]
        w = [part[0] for part in parts]
        H = build(k, [(u, v, read(G, w[u], w[v])) for u, v in itertools.combinations(range(k), 2)])
        expected = count_copies_reference(G, H, parts)
        assert expected > 0
        assert rg.count_spanning_copies(G, H, parts).count == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(em, "_FLOAT_EXACT", 1)
            assert rg.count_spanning_copies(G, H, parts).count == expected

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_one_vertex_parts(self, k):
        G = rg.sample_digraph(3 * k, 0.3, 0.3, seed=k)
        parts = [[3 * i + 1] for i in range(k)]
        for sample in range(8):
            H = rg.sample_digraph(k, 0.3, 0.3, seed=sample)
            assert rg.count_spanning_copies(G, H, parts).count == count_copies_brute(G, H, parts)
        H = rg.new_digraph(k, [(u, v, G.arc(3 * u + 1, 3 * v + 1))
                               for u, v in itertools.combinations(range(k), 2)])
        assert rg.count_spanning_copies(G, H, parts).count == 1

    def test_mismatched_first_pair_prunes_every_branch(self, monkeypatch):
        """No pair between the two branching parts matches, so no branch
        reaches a deeper level or a triangle count.  The walk gets every
        indicator already cast: float64 unless the three largest parts'
        sizes multiply to _FLOAT_EXACT or more, then int64."""
        G = mono_rgraph(25, 2, 1)
        H = rg.new_rgraph(5, 2, [(u, v, 2 if (u, v) == (0, 1) else 1)
                                 for u, v in itertools.combinations(range(5), 2)])
        parts = [list(range(5 * i, 5 * i + 5)) for i in range(5)]
        calls = []
        cliques, branches = em._cliques, em._branches

        def spy_cliques(ind, cand):
            calls.append({m.dtype for m in ind.values()})
            return cliques(ind, cand)

        def spy_branches(ind, cand, d):
            calls.append(d)
            return branches(ind, cand, d)

        monkeypatch.setattr(em, "_cliques", spy_cliques)
        monkeypatch.setattr(em, "_branches", spy_branches)
        for float_exact, dtype in ((5**3 + 1, np.float64), (5**3, np.int64)):
            monkeypatch.setattr(em, "_FLOAT_EXACT", float_exact)
            calls.clear()
            out = rg.count_spanning_copies(G, H, parts)
            assert out.count == 0 and out.total == 5**5
            assert calls == [{np.dtype(dtype)}, 0]

    def test_many_parts_need_no_recursion(self):
        """The walk keeps its own stack, so 150 one-vertex parts branch
        147 levels deep under a recursion limit of 120."""
        G = mono_rgraph(150, 2, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            out = rg.count_spanning_copies(G, G, [[v] for v in range(150)])
        finally:
            sys.setrecursionlimit(limit)
        assert out.count == 1 and out.total == 1

    def test_part_validation(self):
        G = mono_rgraph(8, 2, 1)
        H = mono_rgraph(2, 2, 1)
        with pytest.raises(ArityMismatch):
            rg.count_spanning_copies(G, H, [[0, 1]])
        with pytest.raises(OverlappingSets):
            rg.count_spanning_copies(G, H, [[0, 1], [1, 2]])
        with pytest.raises(RegracutError, match="part 0 contains repeated vertices"):
            rg.count_spanning_copies(G, H, [[0, 1, 1], [4, 5, 6]])
        with pytest.raises(KindMismatch):
            rg.count_spanning_copies(G, rg.new_digraph(2, [(0, 1, "fwd")]), [[0], [1]])


class TestBadVertices:
    def test_planted_low_degree_vertices(self):
        """Vertices 0 and 1 see almost no color-1 edges toward the second
        part; everyone else sees all of it."""
        n = 20
        pairs = []
        for u in range(n):
            for v in range(u + 1, n):
                if u < 10 <= v:
                    color = 2 if u < 2 else 1
                else:
                    color = 2
                pairs.append((u, v, color))
        G = rg.new_rgraph(n, 2, pairs)
        part_from = list(range(10))
        part_to = list(range(10, 20))
        bad = rg.bad_vertices(G, part_from, part_to, 1, eta=0.5, gamma=0.1)
        assert isinstance(bad, frozenset)
        assert bad == {0, 1}

    def test_no_bad_vertices_in_complete_channel(self):
        G = mono_rgraph(10, 2, 1)
        bad = rg.bad_vertices(G, [0, 1, 2, 3, 4], [5, 6, 7, 8, 9], 1, eta=0.9, gamma=0.2)
        assert bad == frozenset()

    def test_negative_vertex_rejected(self):
        # -1 would read vertex n - 1 through numpy's negative indexing
        with pytest.raises(RegracutError, match=r"^part_from contains vertices outside 0\.\.9$"):
            rg.bad_vertices(mono_rgraph(10, 2, 1), [-1, 0], [5, 6], 1, eta=0.5, gamma=0.1)

    def test_vertex_past_n_rejected(self):
        with pytest.raises(RegracutError, match=r"^part_to contains vertices outside 0\.\.9$"):
            rg.bad_vertices(mono_rgraph(10, 2, 1), [0, 1], [5, 10], 1, eta=0.5, gamma=0.1)

    @pytest.mark.parametrize("src, dst, side", [([0, 0, 1], [5, 6], 0), ([0, 1], [6, 5, 6], 1)])
    def test_repeated_vertex_rejected(self, src, dst, side):
        name = ("part_from", "part_to")[side]
        with pytest.raises(RegracutError, match=f"^{name} contains repeated vertices$"):
            rg.bad_vertices(mono_rgraph(10, 2, 1), src, dst, 1, eta=0.5, gamma=0.1)


class TestCheckEmbeddingLemma:
    def test_monochromatic_pair_passes_everything(self):
        G = mono_rgraph(24, 2, 1)
        parts = [list(range(12)), list(range(12, 24))]
        H = rg.new_rgraph(2, 2, [(0, 1, 1)])
        report = rg.check_embedding_lemma(G, H, parts, eta=0.4)
        assert report.constants.eta == 0.4 and report.constants.k == 2
        [pair] = report.pairs
        assert pair.channel == 1
        assert pair.density == 1.0 and pair.density_ok
        assert pair.regularity != rg.IRREGULAR
        assert report.premises_hold
        assert report.copies.count == 144
        assert report.copies.satisfied

    def test_large_uniform_pair_passes_premises(self):
        """At block size 400 the degree-tail search finds no certified
        deviation in an iid pair, so the premises hold and the copy count
        clears the guaranteed bound."""
        size = 400
        G = rg.sample_rgraph(2 * size, (0.6, 0.4), seed=0)
        parts = [list(range(size)), list(range(size, 2 * size))]
        H = rg.new_rgraph(2, 2, [(0, 1, 1)])
        report = rg.check_embedding_lemma(G, H, parts, eta=0.4)
        [pair] = report.pairs
        assert pair.density_ok and pair.density > 0.55
        assert pair.regularity == rg.UNKNOWN
        assert report.premises_hold
        assert report.copies.bound == pytest.approx(
            rg.embedding_constants(0.4, 2).delta * size * size
        )
        assert report.copies.satisfied

    def test_small_blocks_are_genuinely_irregular(self):
        """Size-15 iid blocks are not 1/6-regular: two rounds of degree
        tails certify a real deviation, so the premise honestly fails even
        though the copy count still clears the bound."""
        size = 15
        G = rg.sample_rgraph(2 * size, (0.6, 0.4), seed=3)
        parts = [list(range(size)), list(range(size, 2 * size))]
        H = rg.new_rgraph(2, 2, [(0, 1, 1)])
        report = rg.check_embedding_lemma(G, H, parts, eta=0.4)
        [pair] = report.pairs
        assert pair.density_ok
        assert pair.regularity == rg.IRREGULAR
        assert not report.premises_hold
        assert report.copies.count == count_copies_brute(G, H, parts)
        assert report.copies.satisfied

    def test_sparse_channel_fails_density_premise(self):
        size = 15
        G = rg.sample_rgraph(2 * size, (0.1, 0.9), seed=1)
        parts = [list(range(size)), list(range(size, 2 * size))]
        H = rg.new_rgraph(2, 2, [(0, 1, 1)])
        report = rg.check_embedding_lemma(G, H, parts, eta=0.4)
        [pair] = report.pairs
        assert not pair.density_ok
        assert not report.premises_hold

    def test_premise_reads_the_pattern_channel(self):
        """The density premise is checked in the channel each pattern pair
        uses, so recoloring the pattern flips which side passes."""
        size = 20
        G = rg.sample_rgraph(2 * size, (0.7, 0.3), seed=2)
        parts = [list(range(size)), list(range(size, 2 * size))]
        H_hot = rg.new_rgraph(2, 2, [(0, 1, 1)])
        H_cold = rg.new_rgraph(2, 2, [(0, 1, 2)])
        hot = rg.check_embedding_lemma(G, H_hot, parts, eta=0.55)
        cold = rg.check_embedding_lemma(G, H_cold, parts, eta=0.55)
        assert hot.pairs[0].density_ok
        assert not cold.pairs[0].density_ok

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_empty_part_named_by_its_index(self, empty):
        parts = [[0, 1], [2, 3], [4, 5]]
        parts[empty] = []
        with pytest.raises(EmptySet, match=f"^part {empty} is empty$"):
            rg.check_embedding_lemma(mono_rgraph(6, 2, 1), mono_rgraph(3, 2, 1), parts, eta=0.4)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_premises_match_per_pair_checks(self, data):
        """One batched certification gives every pair the verdict and
        density the public per-pair functions give it."""
        sizes = [data.draw(st.integers(1, 16), label=f"size{i}") for i in range(3)]
        G = rg.sample_rgraph(sum(sizes), (0.5, 0.5), seed=data.draw(st.integers(0, 999)))
        bounds = np.cumsum([0] + sizes)
        parts = [list(range(bounds[i], bounds[i + 1])) for i in range(3)]
        H = rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 2), (1, 2, 1)])
        report = rg.check_embedding_lemma(G, H, parts, eta=0.3)
        gamma = report.constants.gamma
        for p in report.pairs:
            a, b = parts[p.i], parts[p.j]
            assert p.density == rg.density_vector(G, a, b)[p.channel - 1]
            assert p.regularity == rg.certify(G, a, b, gamma, "auto").verdict
        assert report.copies == rg.count_spanning_copies(G, H, parts, eta=0.3)
