"""Graph containers, palettes, samplers, and the text file format."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut.errors import (
    BadDistribution,
    BadState,
    ColorOutOfRange,
    DuplicatePair,
    MissingPair,
    RegracutError,
)

from helpers import mono_digraph, mono_rgraph


class TestConstruction:
    def test_rgraph_round_trip_accessors(self):
        G = rg.new_rgraph(4, 3, [(0, 1, 2), (0, 2, 1), (0, 3, 3), (1, 2, 1), (1, 3, 2), (2, 3, 3)])
        assert G.n == 4 and G.r == 3
        assert G.color(0, 1) == 2
        assert G.color(1, 0) == 2
        assert G.color(2, 3) == 3
        assert len(list(G.pairs())) == 6

    def test_missing_pair_rejected(self):
        with pytest.raises(MissingPair):
            rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 1)])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicatePair):
            rg.new_rgraph(3, 2, [(0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 2, 1)])

    def test_color_out_of_range_rejected(self):
        with pytest.raises(ColorOutOfRange):
            rg.new_rgraph(3, 2, [(0, 1, 3), (0, 2, 1), (1, 2, 1)])
        with pytest.raises(ColorOutOfRange):
            rg.new_rgraph(3, 2, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])

    def test_digraph_state_names_checked(self):
        with pytest.raises(BadState):
            rg.new_digraph(2, [(0, 1, "sideways")])

    def test_digraph_requires_low_high_order(self):
        with pytest.raises(RegracutError):
            rg.new_digraph(2, [(1, 0, "fwd")])

    def test_with_color_is_functional(self):
        G = mono_rgraph(4, 2, 1)
        H = G.with_color(1, 3, 2)
        assert G.color(1, 3) == 1
        assert H.color(1, 3) == 2
        assert H.color(0, 1) == 1

    def test_with_state_is_functional(self):
        G = mono_digraph(3, "none")
        H = G.with_state(0, 2, "fwd")
        assert G.pair_state(0, 2) == "none"
        assert H.pair_state(0, 2) == "fwd"


class TestArrowEncoding:
    def test_arc_flips_between_endpoints(self):
        G = rg.new_digraph(3, [(0, 1, "fwd"), (0, 2, "bi"), (1, 2, "none")])
        assert G.arc(0, 1) == "fwd"
        assert G.arc(1, 0) == "back"
        assert G.arc(0, 2) == "bi" and G.arc(2, 0) == "bi"
        assert G.arc(1, 2) == "none" and G.arc(2, 1) == "none"

    def test_flip_state_involution(self):
        for s in rg.DIGRAPH_STATES:
            assert rg.flip_state(rg.flip_state(s)) == s
        assert rg.flip_state("fwd") == "back"
        assert rg.flip_state("bi") == "bi"
        assert rg.flip_state("none") == "none"

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_arc_duality_everywhere(self, seed):
        G = rg.sample_digraph(9, 0.25, 0.25, seed=seed)
        for u, v in itertools.combinations(range(9), 2):
            assert G.arc(v, u) == rg.flip_state(G.arc(u, v))


class TestPalettes:
    def test_allowed_state_sets(self):
        assert rg.P0.allowed == frozenset(rg.DIGRAPH_STATES)
        assert rg.P1.allowed == frozenset({"bi", "fwd", "back"})
        assert rg.P2.allowed == frozenset({"none", "fwd", "back"})
        assert rg.P3.allowed == frozenset({"none", "bi"})
        assert rg.P4.allowed == frozenset({"fwd", "back"})

    def test_palette_of_picks_smallest_cover(self):
        tournament = rg.new_digraph(3, [(0, 1, "fwd"), (0, 2, "back"), (1, 2, "fwd")])
        assert rg.palette_of(tournament) is rg.P4
        undirected = rg.new_digraph(3, [(0, 1, "bi"), (0, 2, "none"), (1, 2, "bi")])
        assert rg.palette_of(undirected) is rg.P3
        oriented = rg.new_digraph(3, [(0, 1, "fwd"), (0, 2, "none"), (1, 2, "back")])
        assert rg.palette_of(oriented) is rg.P2
        dense = rg.new_digraph(3, [(0, 1, "fwd"), (0, 2, "bi"), (1, 2, "back")])
        assert rg.palette_of(dense) is rg.P1
        mixed = rg.new_digraph(3, [(0, 1, "fwd"), (0, 2, "bi"), (1, 2, "none")])
        assert rg.palette_of(mixed) is rg.P0

    def test_channel_labels(self):
        assert rg.channel_labels(mono_rgraph(3, 4, 2)) == (1, 2, 3, 4)
        assert rg.channel_labels(mono_digraph(3, "bi")) == rg.DIGRAPH_STATES


class TestDistributions:
    def test_color_distribution_accepts_simplex(self):
        assert rg.validate_color_distribution((0.2, 0.3, 0.5)) == (0.2, 0.3, 0.5)

    def test_color_distribution_rejects_bad_sum(self):
        with pytest.raises(BadDistribution):
            rg.validate_color_distribution((0.5, 0.6))

    def test_color_distribution_rejects_negative(self):
        with pytest.raises(BadDistribution):
            rg.validate_color_distribution((-0.1, 1.1))

    def test_color_distribution_rejects_r_mismatch(self):
        with pytest.raises(BadDistribution):
            rg.validate_color_distribution((0.5, 0.5), r=3)

    def test_arrow_distribution_mass_bound(self):
        assert rg.validate_arrow_distribution(0.2, 0.3) == (0.2, 0.3)
        with pytest.raises(BadDistribution):
            rg.validate_arrow_distribution(0.5, 0.5)

    def test_arrow_distribution_palette_restrictions(self):
        # Each restricted palette pins the probability mass it cannot express.
        assert rg.validate_arrow_distribution(0.0, 0.5, rg.P4) == (0.0, 0.5)
        with pytest.raises(BadDistribution):
            rg.validate_arrow_distribution(0.1, 0.45, rg.P4)
        assert rg.validate_arrow_distribution(0.4, 0.0, rg.P3) == (0.4, 0.0)
        with pytest.raises(BadDistribution):
            rg.validate_arrow_distribution(0.4, 0.1, rg.P3)
        assert rg.validate_arrow_distribution(0.2, 0.4, rg.P1) == (0.2, 0.4)
        with pytest.raises(BadDistribution):
            rg.validate_arrow_distribution(0.2, 0.3, rg.P1)
        assert rg.validate_arrow_distribution(0.0, 0.3, rg.P2) == (0.0, 0.3)
        with pytest.raises(BadDistribution):
            rg.validate_arrow_distribution(0.2, 0.2, rg.P2)


class TestSamplers:
    def test_rgraph_sampler_is_seed_deterministic(self):
        a = rg.sample_rgraph(20, (0.3, 0.7), seed=11)
        b = rg.sample_rgraph(20, (0.3, 0.7), seed=11)
        c = rg.sample_rgraph(20, (0.3, 0.7), seed=12)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_digraph_sampler_is_seed_deterministic(self):
        a = rg.sample_digraph(20, 0.3, 0.2, seed=7)
        b = rg.sample_digraph(20, 0.3, 0.2, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rgraph_sampler_frequencies(self):
        """Color frequencies over many pairs track the requested law."""
        G = rg.sample_rgraph(120, (0.2, 0.8), seed=3)
        colors = [G.color(u, v) for u, v in itertools.combinations(range(120), 2)]
        frac1 = colors.count(1) / len(colors)
        # 7140 pairs; 5 sigma of a 0.2 Bernoulli mean is about 0.024.
        assert abs(frac1 - 0.2) < 0.025

    def test_digraph_sampler_frequencies(self):
        G = rg.sample_digraph(120, 0.3, 0.2, seed=3)
        states = [G.pair_state(u, v) for u, v in itertools.combinations(range(120), 2)]
        n_pairs = len(states)
        assert abs(states.count("bi") / n_pairs - 0.3) < 0.03
        assert abs(states.count("fwd") / n_pairs - 0.2) < 0.03
        assert abs(states.count("back") / n_pairs - 0.2) < 0.03
        assert abs(states.count("none") / n_pairs - 0.3) < 0.03

    def test_sampler_rejects_bad_distribution(self):
        with pytest.raises(BadDistribution):
            rg.sample_rgraph(5, (0.5, 0.6))
        with pytest.raises(BadDistribution):
            rg.sample_digraph(5, 0.6, 0.3)


class TestFileFormat:
    def test_rgraph_text_shape(self):
        G = rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 2), (1, 2, 1)])
        assert rg.dumps_graph(G) == "rgraph 2 3\n0 1 1\n0 2 2\n1 2 1\n"

    def test_digraph_text_shape(self):
        G = rg.new_digraph(3, [(0, 1, "fwd"), (0, 2, "bi"), (1, 2, "none")])
        assert rg.dumps_graph(G) == "digraph 3\n0 1 fwd\n0 2 bi\n1 2 none\n"

    @given(seed=st.integers(0, 1000), n=st.integers(2, 15), r=st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_rgraph_byte_round_trip(self, seed, n, r):
        p = tuple(1.0 / r for _ in range(r))
        G = rg.sample_rgraph(n, p, seed=seed)
        text = rg.dumps_graph(G)
        H = rg.loads_graph(text)
        assert isinstance(H, rg.ColoredGraph)
        assert np.array_equal(G.matrix, H.matrix) and H.r == r
        assert rg.dumps_graph(H) == text

    @given(seed=st.integers(0, 1000), n=st.integers(2, 15))
    @settings(max_examples=50, deadline=None)
    def test_digraph_byte_round_trip(self, seed, n):
        G = rg.sample_digraph(n, 0.25, 0.25, seed=seed)
        text = rg.dumps_graph(G)
        H = rg.loads_graph(text)
        assert isinstance(H, rg.Digraph)
        assert np.array_equal(G.matrix, H.matrix)
        assert rg.dumps_graph(H) == text

    def test_file_round_trip(self, tmp_path):
        G = rg.sample_rgraph(10, (0.4, 0.6), seed=2)
        path = tmp_path / "g.rg"
        rg.write_graph(G, path)
        H = rg.read_graph(path)
        assert np.array_equal(G.matrix, H.matrix)

    def test_loads_rejects_malformed(self):
        with pytest.raises(RegracutError):
            rg.loads_graph("wat 3\n")
        with pytest.raises(MissingPair):
            rg.loads_graph("rgraph 2 3\n0 1 1\n")
        with pytest.raises(DuplicatePair):
            rg.loads_graph("rgraph 2 3\n0 1 1\n0 1 2\n0 2 1\n1 2 1\n")
        with pytest.raises(ColorOutOfRange):
            rg.loads_graph("rgraph 2 3\n0 1 1\n0 2 5\n1 2 1\n")
        with pytest.raises(BadState):
            rg.loads_graph("digraph 2\n0 1 zig\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("rgraph 2 x\n", "rgraph 2 x"),
            ("digraph three\n", "digraph three"),
            ("rgraph 2 2\n0 1 one\n", "0 1 one"),
            ("rgraph 2 3\n0 1 1\n0 two 1\n1 2 1\n", "0 two 1"),
            ("digraph 2\n0 1.5 fwd\n", "0 1.5 fwd"),
        ],
    )
    def test_loads_names_non_numeric_fields(self, text, line):
        with pytest.raises(RegracutError, match=f"bad (header|line) '{line}'"):
            rg.loads_graph(text)
