"""Equipartitions, balanced refinement, and the subdivision size arithmetic."""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut.errors import BadPartition, RefinementTooFine


class TestBalancedSizes:
    """The block sizes `equipartition` cuts: they differ by at most 1, and
    the larger blocks come first."""

    def test_larger_blocks_come_first(self):
        assert rg.equipartition(10, 3).sizes() == (4, 3, 3)
        assert rg.equipartition(7, 4).sizes() == (2, 2, 2, 1)
        assert rg.equipartition(6, 3).sizes() == (2, 2, 2)
        assert rg.equipartition(5, 1).sizes() == (5,)

    @given(n=st.integers(1, 300), k=st.integers(1, 50))
    @settings(max_examples=150, deadline=None)
    def test_sizes_partition_n(self, n, k):
        if k > n:
            return
        sizes = list(rg.equipartition(n, k).sizes())
        assert sum(sizes) == n and len(sizes) == k
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestEquipartition:
    @given(n=st.integers(1, 80), k=st.integers(1, 12), seed=st.integers(0, 100))
    @settings(max_examples=120, deadline=None)
    def test_random_equipartition_invariants(self, n, k, seed):
        if k > n:
            return
        part = rg.equipartition(n, k, seed=seed)
        assert part.order == k and part.n == n
        seen = sorted(v for block in part.blocks for v in block)
        assert seen == list(range(n))
        sizes = part.sizes()
        assert max(sizes) - min(sizes) <= 1
        for idx, block in enumerate(part.blocks):
            for v in block:
                assert part.block_of(v) == idx

    def test_seed_determinism(self):
        a = rg.equipartition(30, 4, seed=9)
        b = rg.equipartition(30, 4, seed=9)
        assert a.blocks == b.blocks

    def test_order_out_of_range(self):
        from regracut.errors import BadOrder
        with pytest.raises(BadOrder):
            rg.equipartition(5, 9)
        with pytest.raises(BadOrder):
            rg.equipartition(5, 0)

    def test_constructor_validation(self):
        with pytest.raises(BadPartition):
            rg.Equipartition([(0, 1, 2), (3,)])
        with pytest.raises(BadPartition):
            rg.Equipartition([(0, 1), (1, 2)])
        with pytest.raises(BadPartition):
            rg.Equipartition([(0, 1), (3, 4)])
        part = rg.Equipartition([(0, 1), (2, 3)])
        assert part.order == 2

    @pytest.mark.parametrize("blocks, message", [
        ([[0, 0, 1], [2, 3]], "block 0 contains repeated vertices"),
        ([[0, 1], [2, -1]], "block 1 contains vertices outside 0..3"),
        ([[0, 1], [3, 4]], "block 1 contains vertices outside 0..3"),
        ([[0, 1], []], "block 1 is empty"),
        ([[0, 1], [1, 2]], "block 0 and block 1 overlap"),
        ([[0, 1], [2, 3], [0, 4]], "block 0 and block 2 overlap"),
        # each block is checked in turn before any pair of blocks
        ([[0, 1], [1, 2], [3, 3]], "block 2 contains repeated vertices"),
        ([[0, 1.5], [2, 3]], "block 0 contains the non-integer vertex 1.5"),
    ])
    def test_constructor_names_the_block_and_the_fault(self, blocks, message):
        with pytest.raises(BadPartition, match=f"^{re.escape(message)}$"):
            rg.Equipartition(blocks)


class TestSubdivisionCounts:
    """How `refine_equipartition` sizes the children of each parent block."""

    def test_worked_examples(self):
        fine = rg.refine_equipartition(rg.Equipartition([range(4), range(4, 7)]), 2)
        assert fine.sizes() == (2, 2, 2, 1)
        fine = rg.refine_equipartition(rg.Equipartition([range(5), range(5, 9)]), 2)
        assert fine.sizes() == (3, 2, 2, 2)

    def test_against_arithmetic_oracle(self):
        """small and the per-block large counts are forced by arithmetic:
        the k*ell sub-blocks of a balanced partition must themselves be
        balanced.  Exhaustive over n <= 30."""
        for n in range(2, 31):
            for k in range(1, n + 1):
                part = rg.equipartition(n, k)
                sizes = part.sizes()
                for ell in range(1, min(sizes) + 1):
                    fine = rg.refine_equipartition(part, ell)
                    small = n // (k * ell)
                    big_counts = []
                    for i, s in enumerate(sizes):
                        children = fine.sizes()[i * ell:(i + 1) * ell]
                        assert set(children) <= {small, small + 1}
                        assert list(children) == sorted(children, reverse=True)
                        b = children.count(small + 1)
                        assert b * (small + 1) + (ell - b) * small == s
                        big_counts.append(b)
                    assert sum(big_counts) == n % (k * ell)


class TestRefinement:
    @given(n=st.integers(4, 60), k=st.integers(1, 6), ell=st.integers(2, 4),
           seed=st.integers(0, 50))
    @settings(max_examples=120, deadline=None)
    def test_refine_invariants(self, n, k, ell, seed):
        if k > n:
            return
        part = rg.equipartition(n, k, seed=seed)
        if ell > min(part.sizes()):
            with pytest.raises(RefinementTooFine):
                rg.refine_equipartition(part, ell, seed=seed)
            return
        fine = rg.refine_equipartition(part, ell, seed=seed)
        assert fine.order == k * ell
        assert rg.is_refinement(fine, part)
        assert max(fine.sizes()) - min(fine.sizes()) <= 1
        # Parent-major listing: block b of the fine partition descends from
        # coarse block b // ell, and the parent field records exactly that.
        assert fine.parent == tuple(b // ell for b in range(k * ell))
        for b, block in enumerate(fine.blocks):
            parent_block = set(part.blocks[b // ell])
            assert set(block) <= parent_block

    def test_children_tile_each_parent_block(self):
        part = rg.equipartition(20, 4, seed=1)
        fine = rg.refine_equipartition(part, 2, seed=5)
        for i, block in enumerate(part.blocks):
            children = fine.blocks[2 * i] + fine.blocks[2 * i + 1]
            assert sorted(children) == sorted(block)

    def test_is_refinement_rejects_crossing_blocks(self):
        parent = rg.Equipartition([(0, 1), (2, 3)])
        child = rg.Equipartition([(0, 2), (1,), (3,)])
        assert not rg.is_refinement(child, parent)

    def test_is_refinement_needs_recorded_parents(self):
        """The check is against the parent indices a refinement records, so
        a partition without them never counts as a refinement."""
        part = rg.equipartition(10, 3, seed=0)
        assert not rg.is_refinement(part, part)
        tagged = rg.Equipartition(part.blocks, parent=range(part.order))
        assert rg.is_refinement(tagged, part)

    def test_refinement_invariant_exhaustive_small_n(self):
        """Every refine output passes the constructor invariant and the
        refinement predicate for all n <= 30, k <= n, ell <= floor(n/k)."""
        for n in range(2, 31):
            for k in range(1, n + 1):
                part = rg.equipartition(n, k, seed=n * 31 + k)
                for ell in range(1, min(part.sizes()) + 1):
                    fine = rg.refine_equipartition(part, ell, seed=ell)
                    assert fine.order == k * ell
                    assert rg.is_refinement(fine, part)
                    assert max(fine.sizes()) - min(fine.sizes()) <= 1

    def test_too_fine_split_raises(self):
        part = rg.equipartition(6, 3, seed=0)
        with pytest.raises(RefinementTooFine):
            rg.refine_equipartition(part, 3)


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        part = rg.equipartition(17, 5, seed=3)
        path = tmp_path / "part.json"
        path.write_text(json.dumps([list(b) for b in part.blocks]))
        loaded = rg.load_partition(path)
        assert loaded.blocks == part.blocks

    def test_load_rejects_unbalanced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[0, 1, 2], [3]]")
        with pytest.raises(BadPartition):
            rg.load_partition(path)
