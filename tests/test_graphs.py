"""Graph containers, palettes, samplers, and the text file format."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut import graphs
from regracut.errors import (
    BadDistribution,
    BadState,
    ColorOutOfRange,
    DuplicatePair,
    MissingPair,
    RegracutError,
)

from helpers import (
    dumps_graph_reference,
    loads_graph_reference,
    mono_digraph,
    mono_rgraph,
    new_digraph_reference,
    new_rgraph_reference,
    palette_of_reference,
)


def outcome(build, *args):
    """What a constructor or parser returns or raises, comparable across two."""
    try:
        G = build(*args)
    except RegracutError as exc:
        return type(exc), str(exc)
    return type(G), G.n, getattr(G, "r", None), G.matrix.tobytes()


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

    def test_huge_n_fails_on_the_pair_count(self):
        # the n x n matrix (10**14 entries) is never allocated
        message = "49999995000000 pairs missing, e.g. (0, 1)"
        with pytest.raises(MissingPair, match=re.escape(message)):
            rg.new_rgraph(10**7, 2, [])
        message = "49999994999999 pairs missing, e.g. (0, 2)"
        with pytest.raises(MissingPair, match=re.escape(message)):
            rg.loads_graph("rgraph 2 10000000\n0 1 1\n")
        # past 2**31 vertices u * n + v overflows int64: these two pairs would collide
        with pytest.raises(MissingPair, match=re.escape(", e.g. (0, 1)")):
            rg.new_rgraph(2**40, 2, [(1, 2**30, 1), (2**24 + 1, 2**30, 1)])

    @pytest.mark.parametrize(
        "build, triple",
        [
            (lambda t: rg.new_rgraph(3, 2, [t, (0, 2, 1), (1, 2, 1)]), (0, 1, 1.5)),
            (lambda t: rg.new_rgraph(3, 2, [(0, 1, 1), t, (1, 2, 1)]), (0.0, 2, 1)),
            (lambda t: rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 1), t]), (1, 2, "1")),
            (lambda t: rg.new_digraph(3, [(0, 1, "bi"), t, (1, 2, "bi")]), (0, 2.0, "fwd")),
        ],
    )
    def test_non_integer_entries_name_the_triple(self, build, triple):
        message = f"non-integer value in triple {triple!r}"
        with pytest.raises(RegracutError, match=re.escape(message)):
            build(triple)

    def test_colors_past_int16_rejected(self):
        # neither r nor a color may exceed the int16 color matrix
        assert rg.new_rgraph(2, 32767, [(0, 1, 32767)]).color(0, 1) == 32767
        with pytest.raises(ColorOutOfRange, match=re.escape("color 40000 not in 1..32767")):
            rg.new_rgraph(2, 32767, [(0, 1, 40000)])
        with pytest.raises(ColorOutOfRange, match=re.escape("got r=40000")):
            rg.new_rgraph(2, 40000, [(0, 1, 1)])

    def test_integral_types_accepted(self):
        G = rg.new_rgraph(
            3, 2, [(np.int64(0), True, np.int8(2)), (0, 2, True), (np.uint16(1), 2, 1)]
        )
        assert G == rg.new_rgraph(3, 2, [(0, 1, 2), (0, 2, 1), (1, 2, 1)])
        D = rg.new_digraph(2, [(False, np.int32(1), "back")])
        assert D == rg.new_digraph(2, [(0, 1, "back")])

    @given(
        seed=st.integers(0, 10**6), n=st.integers(1, 7), directed=st.booleans(),
        edits=st.lists(
            st.sampled_from(["shuffle", "flip", "drop", "repeat", "value", "range"]), max_size=3
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_constructors_match_per_triple_loop(self, seed, n, directed, edits):
        rng = np.random.default_rng(seed)
        if directed:
            states = rng.choice(rg.DIGRAPH_STATES, size=n * (n - 1) // 2).tolist()
            triples = [(u, v, s) for (u, v), s in zip(itertools.combinations(range(n), 2), states)]
        else:
            colors = rng.integers(1, 4, size=n * (n - 1) // 2).tolist()
            triples = [(u, v, c) for (u, v), c in zip(itertools.combinations(range(n), 2), colors)]
        for edit in edits:
            i = int(rng.integers(len(triples))) if triples else 0
            if edit == "shuffle":
                rng.shuffle(triples)
            elif not triples:
                continue
            elif edit == "flip":
                u, v, c = triples[i]
                triples[i] = (v, u, c)
            elif edit == "drop":
                del triples[i]
            elif edit == "repeat":
                triples.insert(int(rng.integers(len(triples) + 1)), triples[i])
            elif edit == "value":
                u, v, _ = triples[i]
                triples[i] = (u, v, "sideways" if directed else int(rng.choice([0, 4, -1])))
            else:
                u, _, c = triples[i]
                triples[i] = (u, int(rng.choice([u, n, n + 5, -1])), c)
        if directed:
            assert outcome(rg.new_digraph, n, triples) == outcome(new_digraph_reference, n, triples)
        else:
            expected = outcome(new_rgraph_reference, n, 3, triples)
            assert outcome(rg.new_rgraph, n, 3, triples) == expected

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

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 9), pal=st.sampled_from(rg.PALETTES))
    @settings(max_examples=100, deadline=None)
    def test_palette_of_matches_pair_loop(self, seed, n, pal):
        rng = np.random.default_rng(seed)
        allowed = sorted(pal.allowed)
        states = rng.choice(allowed, size=n * (n - 1) // 2).tolist()
        pairs = itertools.combinations(range(n), 2)
        G = rg.new_digraph(n, [(u, v, s) for (u, v), s in zip(pairs, states)])
        assert rg.palette_of(G) is palette_of_reference(G)

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

    @pytest.mark.parametrize("p", [(math.nan, 1.0), (0.5, math.nan, 0.5), (math.nan,) * 2])
    def test_nan_rejected_everywhere(self, p):
        with pytest.raises(BadDistribution, match="nonnegative"):
            rg.validate_color_distribution(p)
        with pytest.raises(BadDistribution, match="nonnegative"):
            rg.sample_rgraph(3, p)
        with pytest.raises(BadDistribution, match="nonnegative"):
            rg.validate_arrow_distribution(*p[:2])
        with pytest.raises(BadDistribution, match="nonnegative"):
            rg.sample_digraph(3, *p[:2])

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


def sampled(directed, n, seed):
    if directed:
        return rg.sample_digraph(n, 0.25, 0.25, seed=seed)
    r = 2 + seed % 11  # two-digit colors from r = 10 on
    return rg.sample_rgraph(n, [1 / r] * r, seed=seed)


def parse_outcome(text):
    """loads_graph's outcome at the default chunk size and at 7 bytes, which
    the parse rounds up to about a line a chunk."""
    first = outcome(rg.loads_graph, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_CHUNK", 7)
        assert outcome(rg.loads_graph, text) == first
    return first


REWRITES = {
    "crlf": lambda t, rng: t.replace("\n", "\r\n"),
    "cr": lambda t, rng: t.replace("\n", "\r"),
    "tabs": lambda t, rng: t.replace(" ", "\t"),
    "blank lines": lambda t, rng: t.replace("\n", "\n\n \n", 3),
    "repeated spaces": lambda t, rng: t.replace(" ", "  "),
    "plus signs": lambda t, rng: t.replace("\n", "\n+").removesuffix("+"),
    "leading zeros": lambda t, rng: t.replace("\n", "\n00").removesuffix("00"),
    "no final newline": lambda t, rng: t.rstrip("\n"),
    "indented": lambda t, rng: "  " + t.replace("\n", " \n  "),
    "shuffled": lambda t, rng: (lambda h, body: "\n".join([h, *rng.permutation(body)]) + "\n")(
        t.split("\n")[0], t.split("\n")[1:-1]
    ),
    "arabic digits": lambda t, rng: t.replace("1 ", "١ "),
}


def corrupt(lines, how, i, rng, n):
    """Damage body line i (lines[0] is the header) in place."""
    u, v, value = (lines[i].split(" ") + ["", ""])[:3]
    if how == "swap":
        lines[i] = f"{v} {u} {value}"
    elif how == "duplicate":
        lines.insert(int(rng.integers(1, len(lines) + 1)), lines[i])
    elif how == "drop":
        del lines[i]
    elif how == "value":
        states = ["sideways", "fw", "nonee", "Bi", "bi\x00"]
        bad = ["0", "4", "9" * 20] if value.isdigit() else states
        lines[i] = f"{u} {v} {rng.choice(bad)}"
    elif how == "vertex":
        lines[i] = f"{u} {rng.choice([str(n), str(n + 3), '9' * 19])} {value}"
    elif how == "fourth token":
        lines[i] += " 1"
    else:
        lines[i] = f"{rng.choice(['x', '1a', '-1', '1.5', ''])} {v} {value}"


class TestColumnarParse:
    """loads_graph against the line-by-line reference parser in tests/helpers."""

    @given(
        seed=st.integers(0, 10**6), n=st.integers(1, 16), directed=st.booleans(),
        end=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_round_trip_across_chunks(self, seed, n, directed, end):
        G = sampled(directed, n, seed)
        text = rg.dumps_graph(G)
        assert text == dumps_graph_reference(G)
        written = text.replace("\n", end)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_loads_lines", None)  # canonical text never falls back
            assert parse_outcome(written) == outcome(lambda: G)
            assert rg.dumps_graph(rg.loads_graph(written)) == text
        assert parse_outcome(written) == outcome(loads_graph_reference, written)

    @given(
        seed=st.integers(0, 10**6), n=st.integers(2, 12), directed=st.booleans(),
        how=st.sampled_from(sorted(REWRITES)),
    )
    @settings(max_examples=120, deadline=None)
    def test_non_canonical_text_same_graph(self, seed, n, directed, how):
        G = sampled(directed, n, seed)
        text = REWRITES[how](rg.dumps_graph(G), np.random.default_rng(seed))
        assert parse_outcome(text) == outcome(loads_graph_reference, text)
        assert parse_outcome(text) == outcome(lambda: G)

    @given(
        seed=st.integers(0, 10**6), n=st.integers(2, 12), directed=st.booleans(),
        hows=st.lists(
            st.sampled_from(
                ["swap", "duplicate", "drop", "value", "vertex", "fourth token", "non-digit"]
            ),
            min_size=1, max_size=3,
        ),
        end=st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=250, deadline=None)
    def test_corrupt_lines_raise_as_reference(self, seed, n, directed, hows, end):
        rng = np.random.default_rng(seed)
        lines = rg.dumps_graph(sampled(directed, n, seed)).split("\n")[:-1]
        for how in hows:
            if len(lines) < 2:
                break
            corrupt(lines, how, int(rng.integers(1, len(lines))), rng, n)
        text = end.join(lines) + end
        assert parse_outcome(text) == outcome(loads_graph_reference, text)

    def test_read_graph_matches_reference(self, tmp_path):
        G = rg.sample_digraph(9, 0.3, 0.2, seed=4)
        text = rg.dumps_graph(G)
        path = tmp_path / "g.graph"
        for data in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            path.write_bytes(data.encode("ascii"))
            assert outcome(rg.read_graph, path) == outcome(lambda: G)
        path.write_bytes((text + "0 1 fwd\n").replace("\n", "\r\n").encode("ascii"))
        assert outcome(rg.read_graph, path) == outcome(loads_graph_reference, text + "0 1 fwd\n")

    @given(
        widths=st.lists(st.tuples(*[st.integers(1, 10)] * 3), min_size=1, max_size=40),
        directed=st.booleans(), data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_scan_reads_tokens_of_every_width(self, widths, directed, data):
        """The word decoder against int() on canonical lines whose ids (and
        colors) have 1 to 10 digits: tokens of at most 8 digits are read,
        a longer one sends the text to the tokeniser."""
        draw = lambda w: data.draw(st.integers(10 ** (w - 1) if w > 1 else 0, 10**w - 1))
        rows = []
        for wu, wv, wc in widths:
            u, v = sorted((draw(wu), draw(wv)))
            value = data.draw(st.sampled_from(rg.DIGRAPH_STATES)) if directed else draw(wc)
            rows.append((u, v + (u == v), value))
        text = "".join(f"{u} {v} {value}\n" for u, v, value in rows)
        head = b"digraph 2\n" if directed else b"rgraph 2 2\n"
        for chunk in (7, graphs._CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graphs, "_CHUNK", chunk)
                cols = graphs._scan(head + text.encode(), len(head), directed)
            if max(len(str(x)) for row in rows for x in row) > 8:
                assert cols is None
                continue
            u, v, val = (c.tolist() for c in cols)
            values = [rg.DIGRAPH_STATES[c] for c in val] if directed else val
            assert list(zip(u, v, values)) == rows

    @given(seed=st.integers(0, 10**6), directed=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_four_digit_ids_as_reference(self, seed, directed, data):
        """n >= 1001: pairs of 4-digit ids, in order, with one pair
        repeated, one line swapped with the next, or one value spoiled."""
        n = data.draw(st.integers(1006, 1200))
        rng = np.random.default_rng(seed)
        ids = np.sort(rng.choice(np.arange(1000, n), size=6, replace=False))
        G = sampled(directed, 6, seed)
        lines = [f"{ids[u]} {ids[v]} {value}" for u, v, value in G.pairs()]
        how = data.draw(st.sampled_from(["repeat", "swap", "value", "none"]))
        i = int(rng.integers(0, len(lines) - 1))
        if how == "repeat":
            lines.insert(i + 1, lines[i])
        elif how == "swap":
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif how == "value":
            lines[i] = lines[i].rsplit(" ", 1)[0] + (" sideways" if directed else " 99")
        head = f"digraph {n}" if directed else f"rgraph {G.r} {n}"
        text = "\n".join([head, *lines]) + "\n"
        assert parse_outcome(text) == outcome(loads_graph_reference, text)

    @pytest.mark.parametrize("token", ["xbi", "bac", "fwdd", "bi\x00\x00", "nonE", "bi", "back"])
    @pytest.mark.parametrize("line", [1, 3, 6])
    def test_state_names_decided_inside_the_word(self, token, line):
        """Tokens that differ from a state name only inside the bytes its
        word holds are refused as the reference refuses them."""
        lines = rg.dumps_graph(rg.sample_digraph(4, 0.25, 0.25, seed=line)).split("\n")
        lines[line] = lines[line].rsplit(" ", 1)[0] + " " + token
        text = "\n".join(lines)
        assert parse_outcome(text) == outcome(loads_graph_reference, text)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("how", ["repeat", "swap"])
    def test_sorted_fast_path_as_reference(self, directed, how):
        """In-order bodies skip the sort: one repeated pair still raises
        DuplicatePair on its second line, and a body with one swapped line
        is sorted and read as the same graph."""
        G = sampled(directed, 9, 3)
        lines = rg.dumps_graph(G).split("\n")
        if how == "repeat":
            lines.insert(12, lines[11])
        else:
            lines[11], lines[12] = lines[12], lines[11]
        text = "\n".join(lines)
        got = parse_outcome(text)
        assert got == outcome(loads_graph_reference, text)
        assert got == (outcome(lambda: G) if how == "swap" else (DuplicatePair, got[1]))


class TestReadGraphMemory:
    """Traced peak of `read_graph` on an n=960 digraph file: at most 10%
    above the 14.59 MiB measured when the columnar parse last changed
    (25.06 MiB before it, when every file was copied to fold CRLF, every
    body sorted and the columns held int64; 34.14 MiB then on the n=960
    r-graph file, 14.85 MiB now)."""

    def test_n960_digraph_file(self, tmp_path):
        path = tmp_path / "d960.graph"
        rg.write_graph(rg.sample_digraph(960, 0.2, 0.3, seed=1106), path)
        tracemalloc.start()
        try:
            G = rg.read_graph(path)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert G.n == 960
        assert peak <= 1.1 * 14.59
