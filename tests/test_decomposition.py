"""The refinement loop, the two-partition decomposition, subcluster
selection, and the slicing check."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut import decomposition, density
from regracut.decomposition import _deviation_stats, _subpair_deviations, _venn_refine
from regracut.errors import (
    BadPartition,
    GraphTooSmall,
    RegracutError,
    SliceTooSmall,
    TooLargeForExhaustive,
)

from helpers import (
    deviation_stats_reference,
    mono_rgraph,
    select_subclusters_reference,
    two_block_rgraph,
    venn_refine_reference,
)


def cap_message(cap):
    """What the integer rule says of a cap that is not an integer or below 1."""
    if isinstance(cap, float):
        return f"cap must be an integer, got {cap!r}"
    return f"cap must be at least 1, got {cap}"


class TestEpsilonFunction:
    def test_constant(self):
        ef = rg.EpsilonFunction.constant(0.25)
        assert ef(0) == 0.25 and ef(7) == 0.25 and ef(100) == 0.25

    def test_parse_constant_and_reciprocal(self):
        assert rg.EpsilonFunction.parse("0.3")(5) == 0.3
        ef = rg.EpsilonFunction.parse("0.3/(k+1)")
        assert ef(0) == 0.3
        assert ef(2) == pytest.approx(0.1)
        assert ef(9) == pytest.approx(0.03)

    def test_parse_rejects_garbage(self):
        with pytest.raises(RegracutError):
            rg.EpsilonFunction.parse("k^2")

    @pytest.mark.parametrize("text", ["e/(k+1)", "1.2.3/(k+1)", "-/(k+1)"])
    def test_parse_rejects_a_malformed_coefficient(self, text):
        with pytest.raises(RegracutError, match="cannot parse epsilon function"):
            rg.EpsilonFunction.parse(text)

    def test_table_with_default_tail(self):
        ef = rg.EpsilonFunction(table={0: 0.5, 1: 0.2}, default=0.1)
        assert ef(0) == 0.5 and ef(1) == 0.2 and ef(2) == 0.1 and ef(50) == 0.1

    def test_table_must_stay_above_default_tail(self):
        """A table entry below the tail would make the schedule increase."""
        with pytest.raises(RegracutError):
            rg.EpsilonFunction(table={0: 0.5, 2: 0.05}, default=0.1)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(RegracutError):
            rg.EpsilonFunction.constant(0.0)
        with pytest.raises(RegracutError):
            rg.EpsilonFunction.constant(1.0)
        with pytest.raises(RegracutError):
            rg.EpsilonFunction.reciprocal(2.5)  # above 1 at k=0... wait, 2.5/1 = 2.5

    def test_rejects_increasing_schedules(self):
        with pytest.raises(RegracutError):
            rg.EpsilonFunction(table={0: 0.1, 1: 0.2}, default=0.05)

    @given(a=st.floats(0.05, 0.9), k=st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_is_nonincreasing(self, a, k):
        ef = rg.EpsilonFunction.reciprocal(a)
        assert ef(k) >= ef(k + 1)
        assert 0 < ef(k) < 1


class TestRegularize:
    def test_monochromatic_is_immediately_satisfied(self):
        G = mono_rgraph(24, 2, 1)
        res = rg.regularize(G, 4, 0.2, seed=1)
        assert res.satisfied
        assert res.iterations == 1
        assert res.partition.order == 4
        assert res.irregular_pairs == ()
        assert not res.stalled and not res.cap_exceeded

    def test_aligned_planted_blocks_need_no_refinement(self):
        """When the start partition matches the planted structure every
        cross pair is monochromatic, hence regular at once."""
        G = two_block_rgraph(12)
        start = rg.Equipartition([tuple(range(12)), tuple(range(12, 24))])
        res = rg.regularize(G, 2, 0.3, start=start)
        assert res.satisfied and res.iterations == 1
        assert res.partition.blocks == start.blocks
        assert res.index_trace[0] == pytest.approx(0.25, abs=1e-12)

    def test_input_validation(self):
        G = mono_rgraph(6, 2, 1)
        with pytest.raises(RegracutError):
            rg.regularize(G, 2, 1.5)
        with pytest.raises(GraphTooSmall):
            rg.regularize(G, 9, 0.3)
        with pytest.raises(BadPartition):
            rg.regularize(G, 2, 0.3, start=rg.equipartition(5, 2))

    @given(seed=st.integers(0, 60), n=st.sampled_from([18, 24, 30]),
           eps=st.sampled_from([0.25, 0.3, 0.4]))
    @settings(max_examples=25, deadline=None)
    def test_loop_contract_on_random_graphs(self, seed, n, eps):
        """Iterations stay under the potential-function budget, the trace
        tracks the actual index of the final partition, and the result
        refines the start partition whenever it was refined at all."""
        G = rg.sample_rgraph(n, (0.5, 0.5), seed=seed)
        start = rg.equipartition(n, 3, seed=seed)
        res = rg.regularize(G, 3, eps, cap=64, seed=seed, start=start)
        r = 2
        assert res.iterations <= math.floor(64 / (r * eps ** 4)) + 1
        assert len(res.index_trace) >= 1
        assert res.index_trace[-1] == pytest.approx(
            rg.partition_index(G, res.partition), abs=1e-9
        )
        # the index never moves downward along the trace
        for a, b in zip(res.index_trace, res.index_trace[1:]):
            assert b >= a - 1e-9
        if res.partition.order > start.order:
            assert rg.is_refinement(res.partition, start)
        exactly_one_flag = res.satisfied + res.stalled + res.cap_exceeded
        assert exactly_one_flag == 1

    @pytest.mark.parametrize("cap", [float("nan"), 0, -5])
    def test_cap_must_be_positive(self, cap):
        G = rg.sample_rgraph(24, (0.5, 0.5), seed=1)
        with pytest.raises(RegracutError, match=f"^{cap_message(cap)}$"):
            rg.regularize(G, 3, 0.3, cap=cap)

    @pytest.mark.parametrize("kind", ["rgraph", "digraph"])
    @pytest.mark.parametrize("eps", [1e-300, 1e-80])
    def test_tiny_eps_ends(self, kind, eps):
        """eps^4 underflows: the pass budget is unbounded, and the cap
        still ends the loop."""
        G = (rg.sample_rgraph(60, (0.5, 0.5), seed=4) if kind == "rgraph"
             else rg.sample_digraph(60, 0.3, 0.2, seed=4))
        res = rg.regularize(G, 2, eps, cap=16, seed=4)
        assert res.partition.order <= 16
        assert res.satisfied + res.stalled + res.cap_exceeded == 1

    def test_tiny_cap_reports_cap_exceeded(self):
        """A cap below twice the current order leaves no room to refine, so
        an unsatisfied loop must report the cap."""
        G = rg.sample_rgraph(40, (0.5, 0.5), seed=3)
        res = rg.regularize(G, 8, 0.05, cap=8, certifier="heuristic", seed=3)
        if not res.satisfied:
            assert res.cap_exceeded or res.stalled


class TestDecompose:
    def test_monochromatic_decomposition(self):
        G = mono_rgraph(30, 3, 2)
        efun = rg.EpsilonFunction.constant(0.3)
        res = rg.decompose(G, 5, efun, seed=2)
        assert res.iterations == 2
        assert res.ell == 1
        assert res.coarse.order == 5 and res.fine.order == 5
        stats = res.pair_stats
        assert stats.irregular_top == ()
        assert stats.irregular_sub == ()
        assert stats.deviating_pairs == ()
        assert all(v == 0 for v in stats.deviation_bad_subpairs.values())
        assert res.bullets == {
            "order_at_least_m": True,
            "top_pairs_regular": True,
            "sub_pairs_regular": True,
            "densities_stable": True,
        }

    @pytest.mark.parametrize("cap", [float("nan"), 0, -5])
    def test_cap_must_be_positive(self, cap):
        """A NaN cap compares false with every order, so it would let the
        loop refine down to one vertex per block without a flag."""
        G = rg.sample_rgraph(60, (0.5, 0.5), seed=1)
        with pytest.raises(RegracutError, match=f"^{cap_message(cap)}$"):
            rg.decompose(G, 3, rg.EpsilonFunction.constant(0.3), cap=cap)

    def test_fine_partition_is_parent_major(self):
        G = rg.sample_rgraph(48, (0.5, 0.5), seed=11)
        efun = rg.EpsilonFunction.constant(0.25)
        res = rg.decompose(G, 3, efun, cap=48, seed=11)
        k, ell = res.coarse.order, res.ell
        assert res.fine.order == k * ell
        assert res.fine.parent == tuple(b // ell for b in range(k * ell))
        assert rg.is_refinement(res.fine, res.coarse)

    def test_iteration_budget(self):
        efun = rg.EpsilonFunction.constant(0.3)
        bound = math.floor(64 / (2 * 0.3 ** 4)) + 1
        for seed in range(4):
            G = rg.sample_rgraph(36, (0.4, 0.6), seed=seed)
            res = rg.decompose(G, 3, efun, cap=36, seed=seed)
            assert res.iterations <= bound
            assert len(res.index_trace) == res.iterations

    def test_deviation_counts_match_direct_recount(self):
        """Recompute every sub-pair deviation from raw densities and compare
        with the reported exact counts."""
        G = rg.sample_rgraph(40, (0.5, 0.5), seed=7)
        efun = rg.EpsilonFunction.constant(0.25)
        res = rg.decompose(G, 2, efun, cap=40, seed=7)
        k, ell, eps = res.coarse.order, res.ell, efun(0)
        for i in range(k):
            for j in range(i + 1, k):
                base = rg.density_vector(G, res.coarse.blocks[i], res.coarse.blocks[j])
                count = 0
                for ji in range(ell):
                    for jj in range(ell):
                        d = rg.density_vector(
                            G,
                            res.fine.blocks[i * ell + ji],
                            res.fine.blocks[j * ell + jj],
                        )
                        if np.abs(d - base).max() >= eps:
                            count += 1
                assert res.pair_stats.deviation_bad_subpairs[(i, j)] == count
                assert ((i, j) in res.pair_stats.deviating_pairs) == (count > eps * ell * ell)

    @pytest.mark.parametrize("kind", ["rgraph", "digraph"])
    @pytest.mark.parametrize("eps", [1e-300, 1e-80])
    def test_tiny_eps_ends(self, kind, eps):
        """eps^4 underflows: the stage budget is unbounded, and the cap
        still ends the chain."""
        G = (rg.sample_rgraph(60, (0.5, 0.5), seed=4) if kind == "rgraph"
             else rg.sample_digraph(60, 0.3, 0.2, seed=4))
        res = rg.decompose(G, 3, rg.EpsilonFunction.constant(eps), cap=16, seed=4)
        assert res.fine.order <= 16
        assert res.cap_exceeded and len(res.index_trace) == res.iterations

    def test_bad_m_rejected(self):
        G = mono_rgraph(6, 2, 1)
        with pytest.raises(GraphTooSmall):
            rg.decompose(G, 7, rg.EpsilonFunction.constant(0.3))


class TestSelectSubclusters:
    def _decomposed(self, seed=5):
        G = rg.sample_rgraph(36, (0.5, 0.5), seed=seed)
        efun = rg.EpsilonFunction.constant(0.25)
        res = rg.decompose(G, 3, efun, cap=36, seed=seed)
        return G, efun, res

    @staticmethod
    def _planted_selection_fixture():
        """Hand-built two-stage decomposition over a planted 24-vertex graph.

        A0 x B0 is pure color 1 (deviating, not irregular); A1 x B1 hides a
        3x3 color-1 corner (irregular, not deviating); the two mixed sub-pairs
        carry 11 scattered color-1 pairs each, parking their densities near
        the coarse density.
        """
        A0, A1 = list(range(0, 6)), list(range(6, 12))
        B0, B1 = list(range(12, 18)), list(range(18, 24))
        hot = {(u, v) for u in A0 for v in B0}
        hot |= {(u, v) for u in A1[:3] for v in B1[:3]}
        scattered = 0
        for u in A0:
            for v in B1:
                if scattered < 11 and (u + v) % 3 == 0:
                    hot.add((u, v))
                    scattered += 1
        scattered = 0
        for u in A1:
            for v in B0:
                if scattered < 11 and (u + v) % 3 == 1:
                    hot.add((u, v))
                    scattered += 1
        pairs = []
        for u in range(24):
            for v in range(u + 1, 24):
                pairs.append((u, v, 1 if (u, v) in hot else 2))
        G = rg.new_rgraph(24, 2, pairs)
        coarse = rg.Equipartition([A0 + A1, B0 + B1])
        fine = rg.Equipartition([A0, A1, B0, B1], parent=(0, 0, 1, 1))
        res = rg.DecompositionResult(
            coarse=coarse, fine=fine, ell=2, iterations=2, index_trace=(0.0, 0.0)
        )
        return G, res

    def test_exhaustive_mode_finds_the_optimum(self):
        """With ell^k within the trial budget every draw is evaluated; an
        independent enumeration must agree on the chosen quality."""
        G, res = self._planted_selection_fixture()
        efun = rg.EpsilonFunction(table={0: 0.3}, default=0.25)
        k, ell = res.coarse.order, res.ell
        sel = rg.select_subclusters(G, res, efun, trials=ell ** k + 5, seed=0)
        assert sel.draws == ell ** k

        eps, gamma_k = efun(0), efun(k)
        top = {
            (i, j): rg.density_vector(G, res.coarse.blocks[i], res.coarse.blocks[j])
            for i in range(k) for j in range(i + 1, k)
        }

        def quality(draw):
            irregular = deviating = 0
            for i in range(k):
                for j in range(i + 1, k):
                    a = res.fine.blocks[i * ell + draw[i]]
                    b = res.fine.blocks[j * ell + draw[j]]
                    rep = rg.certify(G, a, b, gamma_k, "heuristic")
                    irregular += rep.verdict == rg.IRREGULAR
                    d = rg.density_vector(G, a, b)
                    deviating += np.abs(d - top[(i, j)]).max() >= eps
            return irregular, deviating

        qualities = {d: quality(d) for d in itertools.product(range(ell), repeat=k)}
        best = min(qualities.values())
        assert (sel.irregular_pairs, sel.deviating_pairs) == best
        assert quality(sel.chosen) == best
        # ties keep the earliest draw in product order
        first_best = next(d for d in itertools.product(range(ell), repeat=k)
                          if qualities[d] == best)
        assert sel.chosen == first_best
        # the fixture separates the draws: ensure it is not a wash
        assert len(set(qualities.values())) >= 2

    @staticmethod
    def _per_pair_selection(G, res, efun, trials, seed):
        """Reference selection: every draw scored with per-pair `certify`."""
        k, ell, fine = res.coarse.order, res.ell, res.fine
        eps, gamma_k = efun(0), efun(k)
        if ell ** k <= trials:
            draws = list(itertools.product(range(ell), repeat=k))
        else:
            rng = np.random.default_rng(seed)
            draws = [tuple(int(x) for x in rng.integers(0, ell, size=k)) for _ in range(trials)]
        best = None
        for draw in draws:
            irregular = deviating = 0
            for i, j in itertools.combinations(range(k), 2):
                a = fine.blocks[i * ell + draw[i]]
                b = fine.blocks[j * ell + draw[j]]
                rep = rg.certify(G, a, b, gamma_k, "heuristic")
                irregular += rep.verdict == rg.IRREGULAR
                top = rg.density_vector(G, res.coarse.blocks[i], res.coarse.blocks[j])
                deviating += bool(np.abs(rg.density_vector(G, a, b) - top).max() >= eps)
            if best is None or (irregular, deviating) < best[0]:
                best = ((irregular, deviating), draw)
        (irregular, deviating), chosen = best
        blocks = tuple(fine.blocks[i * ell + chosen[i]] for i in range(k))
        return rg.SubclusterSelection(
            chosen=chosen,
            blocks=blocks,
            irregular_pairs=irregular,
            deviating_pairs=deviating,
            draws=len(draws),
            min_block_fraction=min(len(b) for b in blocks) / G.n,
        )

    @pytest.mark.parametrize("kind", ["rgraph", "digraph"])
    @pytest.mark.parametrize("trials", [1, 12, 40, 81])  # ell ** k = 81 at k = 4, ell = 3
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_selection_matches_per_pair_scoring(self, kind, trials, seed):
        n = 35  # coarse blocks of 8 and 9, fine blocks of 2 and 3
        if kind == "rgraph":
            G = rg.sample_rgraph(n, (0.5, 0.5), seed=seed)
        else:
            G = rg.sample_digraph(n, 0.2, 0.3, seed=seed)
        coarse = rg.equipartition(n, 4, seed=seed)
        fine = rg.refine_equipartition(coarse, 3, seed=seed)
        res = rg.DecompositionResult(
            coarse=coarse, fine=fine, ell=3, iterations=1, index_trace=(0.0,)
        )
        # at 0.4 the draws differ in both irregular and deviating counts
        efun = rg.EpsilonFunction.constant(0.4)
        sel = rg.select_subclusters(G, res, efun, trials=trials, seed=seed)
        assert sel == self._per_pair_selection(G, res, efun, trials, seed)
        assert sel.draws == min(trials, 81)

    def test_selection_shape_and_fraction(self):
        G, efun, res = self._decomposed(seed=9)
        sel = rg.select_subclusters(G, res, efun, trials=10, seed=1)
        k, ell = res.coarse.order, res.ell
        assert len(sel.chosen) == k
        assert all(0 <= c < ell for c in sel.chosen)
        assert sel.blocks == tuple(
            res.fine.blocks[i * ell + sel.chosen[i]] for i in range(k)
        )
        expected_fraction = min(len(b) for b in sel.blocks) / G.n
        assert sel.min_block_fraction == expected_fraction

    def test_determinism(self):
        G, efun, res = self._decomposed(seed=13)
        a = rg.select_subclusters(G, res, efun, trials=7, seed=4)
        b = rg.select_subclusters(G, res, efun, trials=7, seed=4)
        assert a == b


def witness_group(part, pos, pair, witness):
    """One shape group of `_certify_pairs`' hits holding a single refuted
    pair at position `pos`, with the witness's sides as masks."""
    A, B = (np.array([part.blocks[i]], dtype=np.intp) for i in pair)
    hits = (np.array([0]), np.array([0]), np.array([witness.deviation]),
            np.isin(A, witness.a_prime), np.isin(B, witness.b_prime))
    return np.array([pos]), A, B, hits


class TestVennRefine:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(4, 60),
        k=st.integers(1, 8),
        cap=st.sampled_from([4, 16, 64]),
        share=st.sampled_from([0.2, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_vertex_loop_reference(self, seed, n, k, cap, share):
        """Hits read from per-group masks, one group per witness in
        shuffled order at gapped pair positions, so each side's rank comes
        from the position lookup and not from the groups' order."""
        part = rg.equipartition(n, min(k, n), seed=seed)
        rng = random.Random(seed)
        candidates = list(itertools.combinations(range(part.order), 2))
        positions = [p for p in range(len(candidates)) if rng.random() < share]
        pairs = [candidates[p] for p in positions]

        def subset(block):
            return tuple(sorted(rng.sample(block, rng.randint(1, len(block)))))

        witnesses = [
            rg.RegularityWitness(subset(part.blocks[i]), subset(part.blocks[j]), 1, 0.5)
            for i, j in pairs
        ]
        found = [witness_group(part, *hit) for hit in zip(positions, pairs, witnesses)]
        rng.shuffle(found)
        got = _venn_refine(part, pairs, found, cap, seed, part.order)
        expected = venn_refine_reference(part, pairs, witnesses, cap, seed)
        assert got == expected
        assert got is None or got.parent == expected.parent

    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from([2, 3, 4, "digraph"]),
        k=st.integers(2, 6),
        size=st.integers(2, 6),
        data=st.data(),
        gamma=st.sampled_from([0.2, 0.35, 0.5]),
        method=st.sampled_from(["heuristic", "exact"]),
        cap=st.sampled_from([4, 16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_certifier_hits_match_per_pair_witnesses(self, seed, kind, k, size, data, gamma,
                                                     method, cap):
        """Two block sizes give up to four shape groups: refining from
        `_certify_pairs`' hits equals the reference fed with the witness
        `certify` finds for each refuted pair on its own."""
        n = k * size + data.draw(st.integers(1, k - 1))
        if kind == "digraph":
            G = rg.sample_digraph(n, 0.3, 0.2, seed=seed)
        else:
            G = rg.sample_rgraph(n, [1 / kind] * kind, seed=seed)
        part = rg.equipartition(n, k, seed=seed)
        iu, ju = np.triu_indices(k, 1)
        codes, found = density._certify_pairs(G, part.blocks, iu, ju, gamma, method, 12)
        pairs = [(i, j) for i, j, c in zip(iu.tolist(), ju.tolist(), codes.tolist())
                 if c == density._IRR]
        witnesses = [rg.certify(G, part.blocks[i], part.blocks[j], gamma, method).witness
                     for i, j in pairs]
        got = _venn_refine(part, pairs, found, cap, seed, part.order)
        expected = venn_refine_reference(part, pairs, witnesses, cap, seed)
        assert got == expected
        assert got is None or got.parent == expected.parent


class TestTensorPairStatistics:
    """Deviation counts and subcluster scores from the reshaped density
    tensor, against the per-pair loops."""

    # n=16 at k=4, ell=2: densities are sixteenths and quarters, so some
    # deviations equal 0.25 exactly
    SHAPES = [(30, 1, 1), (30, 1, 4), (30, 3, 1), (30, 4, 3), (30, 5, 2), (16, 4, 2)]

    @pytest.mark.parametrize("kind", ["rgraph", "digraph"])
    @pytest.mark.parametrize("n, k, ell", SHAPES)
    def test_deviation_stats(self, kind, n, k, ell):
        G = self._graph(kind, n, seed=k * 10 + ell)
        coarse = rg.equipartition(n, k, seed=k)
        fine = rg.refine_equipartition(coarse, ell, seed=ell)
        devs = _subpair_deviations(
            rg.pair_density_tensor(G, coarse), rg.pair_density_tensor(G, fine), ell
        )
        for eps in (0.05, 0.2, 0.25, 0.4):
            assert _deviation_stats(devs, eps) == deviation_stats_reference(
                G, coarse, fine, ell, eps
            )

    @pytest.mark.parametrize("kind", ["rgraph", "digraph"])
    @pytest.mark.parametrize("n, k, ell", SHAPES)
    @pytest.mark.parametrize("certifier", ["heuristic", "exact", "auto"])
    def test_selection(self, kind, n, k, ell, certifier):
        G = self._graph(kind, n, seed=k * 10 + ell)
        coarse = rg.equipartition(n, k, seed=k)
        fine = rg.refine_equipartition(coarse, ell, seed=ell)
        res = rg.DecompositionResult(
            coarse=coarse, fine=fine, ell=ell, iterations=1, index_trace=(0.0,)
        )
        efun = rg.EpsilonFunction.constant(0.25)
        for trials, seed in ((1, 0), (7, 3), (200, 1)):
            assert rg.select_subclusters(
                G, res, efun, trials, seed, certifier
            ) == select_subclusters_reference(G, res, efun, trials, seed, certifier)

    @staticmethod
    def _graph(kind, n, seed):
        if kind == "rgraph":
            return rg.sample_rgraph(n, (0.3, 0.3, 0.4), seed=seed)
        return rg.sample_digraph(n, 0.2, 0.3, seed=seed)


class TestDensityTensorsOnce:
    """One `decompose` and `select_subclusters` build each distinct
    partition's density tensor once, with unchanged statistics."""

    # acceptance-7 shapes (n, r, eps, m) as the decomposition sweep runs them,
    # and one digraph
    SHAPES = [(48, 2, 0.25, 3), (72, 2, 0.25, 3), (144, 3, 0.3, 3), (60, "digraph", 0.3, 3)]

    @pytest.mark.parametrize("n, r, eps, m", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_tensor_once(self, n, r, eps, m, seed):
        if r == "digraph":
            G = rg.sample_digraph(n, 0.2, 0.3, seed=seed)
        else:
            G = rg.sample_rgraph(n, tuple(1.0 / r for _ in range(r)), seed=seed)
        efun = rg.EpsilonFunction.constant(eps)
        built = []
        tensor = density.pair_density_tensor

        def counted(G, part):
            built.append(part.blocks)
            return tensor(G, part)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "pair_density_tensor", counted)
            mp.setattr(decomposition, "pair_density_tensor", counted)
            res = rg.decompose(G, m, efun, cap=64, seed=seed)
            sel = rg.select_subclusters(G, res, efun)
        assert len(built) == len(set(built)) >= 2
        assert {res.coarse.blocks, res.fine.blocks} <= set(built)
        # the trace keeps the index of each stage's partition as counted from scratch
        assert res.index_trace[-2:] == (
            rg.partition_index(G, res.coarse), rg.partition_index(G, res.fine)
        )
        stats = res.pair_stats
        assert (stats.deviation_bad_subpairs, stats.deviating_pairs) == deviation_stats_reference(
            G, res.coarse, res.fine, res.ell, eps
        )
        assert sel == select_subclusters_reference(G, res, efun)

    def test_another_graph_gets_its_own_deviations(self):
        """The deviations a decomposition keeps serve only its own graph."""
        G, H = (rg.sample_rgraph(144, (1 / 3, 1 / 3, 1 / 3), seed=seed) for seed in (0, 100))
        efun = rg.EpsilonFunction.constant(0.3)
        res = rg.decompose(G, 3, efun, cap=64, seed=0)
        assert res.ell > 1  # G's deviations would pick other sub-blocks of H
        for graph in (H, G):
            assert rg.select_subclusters(graph, res, efun) == select_subclusters_reference(
                graph, res, efun
            )


class TestCertifyOnce:
    """One `decompose` certifies each block pair at most once per gamma, and
    `select_subclusters` reads its sub-pair verdicts instead of certifying
    again; statistics and selections match per-pair recounts."""

    @staticmethod
    def _graph(kind, n, seed):
        if kind == "rgraph":
            return rg.sample_rgraph(n, (0.5, 0.5), seed=seed)
        return rg.sample_digraph(n, 0.2, 0.3, seed=seed)

    @staticmethod
    def _counting(mp):
        """Record (gamma, A, B) of every pair `decomposition` hands to the
        certifier, which a settled pass certifies only in part."""
        seen = []
        certify_pairs = decomposition._certify_pairs

        def counted(G, blocks, ia, ib, gamma, method, limit=None):
            seen.extend((gamma, tuple(blocks[i]), tuple(blocks[j])) for i, j in zip(ia, ib))
            return certify_pairs(G, blocks, ia, ib, gamma, method, limit=limit)

        mp.setattr(decomposition, "_certify_pairs", counted)
        return seen

    @pytest.mark.parametrize("n, r, eps, m", TestDensityTensorsOnce.SHAPES)
    @pytest.mark.parametrize("certifier", ["heuristic", "auto"])
    def test_no_pair_certified_twice(self, n, r, eps, m, certifier):
        if r == "digraph":
            G = rg.sample_digraph(n, 0.2, 0.3, seed=0)
        else:
            G = rg.sample_rgraph(n, tuple(1.0 / r for _ in range(r)), seed=0)
        efun = rg.EpsilonFunction.constant(eps)
        with pytest.MonkeyPatch.context() as mp:
            seen = self._counting(mp)
            res = rg.decompose(G, m, efun, cap=64, seed=0, certifier=certifier)
            certified = len(seen)
            sel = rg.select_subclusters(G, res, efun, certifier=certifier)
        assert res.iterations == 2  # the shapes give ell = 1 and ell = 20
        assert len(seen) == certified  # the selection certified nothing
        assert len(set(seen)) == len(seen)
        assert sel == select_subclusters_reference(G, res, efun, certifier=certifier)

    # 30 vertices from 3 blocks of 10: three-stage chains that end at order 27
    @pytest.mark.parametrize("kind, certifier", [
        ("rgraph", "heuristic"), ("rgraph", "exact"), ("rgraph", "auto"), ("digraph", "heuristic"),
    ])
    def test_longer_chains_recertify_the_top_pairs(self, kind, certifier):
        G = self._graph(kind, 30, seed=0)
        efun = rg.EpsilonFunction(table={0: 0.5}, default=0.3)
        res = rg.decompose(G, 3, efun, cap=64, seed=0, certifier=certifier)
        assert res.iterations >= 3
        coarse, fine, ell = res.coarse, res.fine, res.ell
        k = coarse.order
        eps, gamma_k = efun(0), efun(k)
        top = {(i, j): rg.certify(G, coarse.blocks[i], coarse.blocks[j], eps, certifier).verdict
               for i, j in itertools.combinations(range(k), 2)}
        sub = {(i, a, j, b): rg.certify(G, fine.blocks[i * ell + a], fine.blocks[j * ell + b],
                                        gamma_k, certifier).verdict
               for i, j in itertools.combinations(range(k), 2)
               for a, b in itertools.product(range(ell), repeat=2)}
        stats = res.pair_stats
        assert stats.irregular_top == tuple(p for p, v in top.items() if v == rg.IRREGULAR)
        assert stats.unknown_top == sum(v == rg.UNKNOWN for v in top.values())
        assert stats.irregular_sub == tuple(p for p, v in sub.items() if v == rg.IRREGULAR)
        assert stats.unknown_sub == sum(v == rg.UNKNOWN for v in sub.values())
        assert stats.irregular_top  # the recount saw verdicts, not only "regular"

    @pytest.mark.parametrize("kind", ["rgraph", "digraph"])
    @pytest.mark.parametrize("certifier", ["heuristic", "exact", "auto"])
    def test_other_arguments_build_their_own_table(self, kind, certifier):
        """A selection whose graph, gamma or certifier differs from the
        decomposition's certifies the sub-pairs itself."""
        G, H = self._graph(kind, 30, seed=0), self._graph(kind, 30, seed=1)
        efun = rg.EpsilonFunction(table={0: 0.4}, default=0.2)
        res = rg.decompose(G, 3, efun, cap=64, seed=0)
        assert res.ell == 9
        other = rg.EpsilonFunction(table={0: 0.4}, default=0.25)
        for graph, ef in ((G, efun), (G, other), (H, efun)):
            with pytest.MonkeyPatch.context() as mp:
                seen = self._counting(mp)
                sel = rg.select_subclusters(graph, res, ef, certifier=certifier)
            reused = graph is G and ef is efun and certifier == "heuristic"
            assert bool(seen) != reused
            assert sel == select_subclusters_reference(graph, res, ef, certifier=certifier)

    def test_other_arguments_certify_only_the_drawn_subpairs(self):
        """Without a matching table the selection certifies each sub-pair
        its draws touch once, and no other: at most 20 draws x 3 top pairs
        of the 3 x 21^2 cross sub-pairs per top pair."""
        G = self._graph("rgraph", 240, seed=0)
        coarse = rg.equipartition(240, 3, seed=0)
        fine = rg.refine_equipartition(coarse, 21, seed=0)
        res = rg.DecompositionResult(coarse=coarse, fine=fine, ell=21, iterations=1, index_trace=(0.0,))
        efun = rg.EpsilonFunction.constant(0.25)
        with pytest.MonkeyPatch.context() as mp:
            seen = self._counting(mp)
            sel = rg.select_subclusters(G, res, efun, trials=20, seed=3, certifier="auto")
        rng = np.random.default_rng(3)
        draws = [rng.integers(0, 21, size=3) for _ in range(20)]
        touched = {(0.25, fine.blocks[i * 21 + d[i]], fine.blocks[j * 21 + d[j]])
                   for d in draws for i, j in itertools.combinations(range(3), 2)}
        assert len(seen) == len(set(seen)) == len(touched) <= 60
        assert set(seen) == touched
        assert sel == select_subclusters_reference(G, res, efun, seed=3, certifier="auto")


class TestSettledPasses:
    """A pass of a stage after the first that cannot refine stops
    certifying once more than eps * k^2 of its pairs are refuted; every
    stage and the decomposition are those of full passes."""

    # (kind, n, m, efun(0), efun(k > 0), cap, budget): small graphs, so that
    # the exhaustive certifier takes every block of the start partition
    CONFIGS = [
        ("rgraph", 24, 2, 0.3, 0.3, 16, None),
        ("rgraph", 24, 3, 0.5, 0.3, 64, None),
        ("rgraph", 30, 3, 0.5, 0.3, 64, None),
        ("digraph", 24, 2, 0.3, 0.3, 16, None),
        ("digraph", 36, 3, 0.5, 0.3, 64, None),
        ("digraph", 36, 3, 0.3, 0.3, 256, None),
        # stage 1 ends over the cap with too many refuted pairs, and keeps them all
        ("rgraph", 24, 3, 0.3, 0.3, 16, None),
        ("digraph", 30, 3, 0.3, 0.3, 16, None),
        # every gain is small, so a stage's pass after its first refinement is its last
        ("rgraph", 24, 3, 0.5, 0.3, 64, "small gains"),
        ("digraph", 36, 3, 0.5, 0.3, 64, "small gains"),
        # a budget of one pass: every pass is the last
        ("rgraph", 24, 2, 0.3, 0.3, 64, "one pass"),
        ("digraph", 24, 2, 0.3, 0.3, 64, "one pass"),
    ]

    @staticmethod
    def _graph(kind, n):
        if kind == "rgraph":
            return rg.sample_rgraph(n, (0.5, 0.5), seed=0)
        return rg.sample_digraph(n, 0.2, 0.3, seed=0)

    @staticmethod
    def _run(mp, G, m, efun, cap, certifier, settle):
        """`decompose`, what `_regularize` returned for each stage, and per
        pass given a limit: (order, smallest block, limit, settled, refuted
        pairs seen).  Without `settle` every pass certifies all its pairs."""
        certify_pairs, regularize = decomposition._certify_pairs, decomposition._regularize
        passes, stages = [], []

        def certified(G, blocks, ia, ib, gamma, method, limit=None):
            codes, found = certify_pairs(G, blocks, ia, ib, gamma, method, limit=limit if settle else None)
            if limit is not None:
                passes.append((len(blocks), min(map(len, blocks)), limit, found is None,
                               int(np.count_nonzero(codes == density._IRR))))
            return codes, found

        def staged(*args, **kwargs):
            out = regularize(*args, **kwargs)
            stages.append(out)
            return out

        mp.setattr(decomposition, "_certify_pairs", certified)
        mp.setattr(decomposition, "_regularize", staged)
        res = rg.decompose(G, m, efun, cap=cap, seed=0, certifier=certifier)
        return res, stages, passes

    @staticmethod
    def _budget(mp, budget):
        full = decomposition._budget
        if budget == "small gains":
            mp.setattr(decomposition, "_budget", lambda nch, eps: (math.inf, full(nch, eps)[1]))
        elif budget == "one pass":
            mp.setattr(decomposition, "_budget", lambda nch, eps: (full(nch, eps)[0], 1))

    @pytest.mark.parametrize("certifier", ["heuristic", "auto", "exact"])
    def test_settled_passes_match_full_passes(self, certifier):
        kinds = set()
        for kind, n, m, e0, e, cap, budget in self.CONFIGS:
            G = self._graph(kind, n)
            efun = rg.EpsilonFunction(table={0: e0}, default=e)
            runs = []
            for settle in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    self._budget(mp, budget)
                    runs.append(self._run(mp, G, m, efun, cap, certifier, settle))
            (full, full_stages, _), (res, stages, passes) = runs
            assert res == full
            assert len(stages) == len(full_stages)
            for (got, dens, codes), (want, want_dens, want_codes) in zip(stages, full_stages):
                assert got.partition == want.partition
                assert (got.iterations, got.index_trace) == (want.iterations, want.index_trace)
                assert (got.satisfied, got.stalled, got.cap_exceeded) == (
                    want.satisfied, want.stalled, want.cap_exceeded)
                assert np.array_equal(dens, want_dens)
                # a settled pass's tallies are lower bounds
                assert set(got.irregular_pairs) <= set(want.irregular_pairs)
                assert got.unknown_pairs <= want.unknown_pairs
                assert np.array_equal(codes[codes >= 0], want_codes[codes >= 0])
            # stage 1 keeps every verdict
            assert stages[0][0] == full_stages[0][0]
            assert np.array_equal(stages[0][2], full_stages[0][2])
            if not stages[0][0].satisfied:
                kinds.add("stage 1 unsatisfied")
            for k, smallest, limit, settled, refuted in passes:
                assert settled == (refuted > limit)
                if not settled:
                    kinds.add("satisfied" if refuted else "nothing refuted")
                elif 2 * k > cap:
                    kinds.add("at the cap")
                elif smallest < 2:
                    kinds.add("one-vertex blocks")
                else:
                    kinds.add("last pass")
        assert kinds >= {"satisfied", "at the cap", "one-vertex blocks", "last pass", "stage 1 unsatisfied"}

    def test_exact_start_blocks_over_the_cap_still_raise(self):
        """Only stage 1's first pass can meet a block over the exhaustive
        cap, and it certifies in full."""
        G = self._graph("rgraph", 48)
        efun = rg.EpsilonFunction.constant(0.3)
        with pytest.raises(TooLargeForExhaustive, match="exceed the cap 12"):
            rg.decompose(G, 2, efun, cap=64, certifier="exact")

    def test_capped_stage_two_pass_certifies_one_slice(self):
        """The capped pass of a 240-vertex chain is given 1,953 pairs at
        limit 264 and certifies one single-cell slice of 265, all refuted."""
        G = rg.sample_rgraph(240, (0.5, 0.5), seed=0)
        with pytest.MonkeyPatch.context() as mp:
            res, _, passes = self._run(mp, G, 3, rg.EpsilonFunction.constant(0.3), 64, "heuristic", True)
        assert res.cap_exceeded and res.fine.order == 63
        assert passes == [(63, 3, 264, True, 265)]
        k, limit = 63, 264
        assert k * (k - 1) // 2 == 1953 and limit == math.floor(2 * 0.3 / 9 * k * k)


class TestUnknownCertifier:
    """The certifier name is checked even when there is no pair to certify."""

    def setup_method(self):
        self.G = rg.sample_rgraph(12, (0.5, 0.5), seed=0)
        self.efun = rg.EpsilonFunction(default=0.3)

    def test_decompose(self):
        with pytest.raises(RegracutError, match="^unknown certifier 'bogus'$"):
            rg.decompose(self.G, 1, self.efun, certifier="bogus")

    def test_regularize(self):
        with pytest.raises(RegracutError, match="^unknown certifier 'bogus'$"):
            rg.regularize(self.G, 1, 0.3, certifier="bogus")

    def test_select_subclusters(self):
        result = rg.decompose(self.G, 1, self.efun)
        with pytest.raises(RegracutError, match="^unknown certifier 'bogus'$"):
            rg.select_subclusters(self.G, result, self.efun, certifier="bogus")


class TestVerifySlicing:
    def test_large_eta_is_trivially_regular(self):
        G = rg.sample_rgraph(20, (0.5, 0.5), seed=1)
        A, B = list(range(10)), list(range(10, 20))
        rep = rg.verify_slicing(G, A, B, A[:5], B[:5], gamma=0.5)
        assert rep.eta >= 1
        assert rep.regularity == rg.REGULAR
        assert not rep.caveat

    def test_eta_formula(self):
        G = mono_rgraph(20, 2, 1)
        A, B = list(range(10)), list(range(10, 20))
        rep = rg.verify_slicing(G, A, B, A[:5], B[:4], gamma=0.1)
        # slice fractions are 0.5 and 0.4; eps = 0.4, eta = 2.5 * gamma
        assert rep.eta == pytest.approx(0.25)
        assert rep.deviation == 0.0
        assert rep.holds

    def test_monochromatic_slice_holds(self):
        G = mono_rgraph(16, 2, 2)
        rep = rg.verify_slicing(G, list(range(8)), list(range(8, 16)),
                                [0, 1, 2], [8, 9, 10], gamma=0.375)
        assert rep.holds and rep.deviation == 0.0

    def test_slice_below_gamma_rejected(self):
        G = mono_rgraph(20, 2, 1)
        A, B = list(range(10)), list(range(10, 20))
        with pytest.raises(SliceTooSmall):
            rg.verify_slicing(G, A, B, A[:1], B[:5], gamma=0.3)

    def test_slices_must_be_subsets(self):
        G = mono_rgraph(10, 2, 1)
        with pytest.raises(RegracutError):
            rg.verify_slicing(G, [0, 1, 2], [3, 4, 5], [0, 7], [3, 4], gamma=0.5)

    def test_sides_checked_like_density_vector(self):
        G = mono_rgraph(10, 2, 1)
        with pytest.raises(RegracutError, match="A contains vertices outside 0..9"):
            rg.verify_slicing(G, [0, 1, 12], [3, 4, 5], [0, 12], [3, 4], gamma=0.5)
        with pytest.raises(RegracutError, match="A and B overlap"):
            rg.verify_slicing(G, [0, 1, 2], [2, 4, 5], [0, 1], [4, 5], gamma=0.5)

    def test_heuristic_path_sets_caveat_on_unknown(self):
        """Slices above the exact cap route through the witness search; an
        unknown verdict keeps holds=True but flags the caveat."""
        G = mono_rgraph(60, 2, 1)
        A, B = list(range(30)), list(range(30, 60))
        rep = rg.verify_slicing(G, A, B, A[:15], B[:15], gamma=0.2)
        assert rep.eta == pytest.approx(0.4)
        assert rep.regularity == rg.UNKNOWN
        assert rep.caveat
        assert rep.holds
