"""The trusted internals both graph kinds share, on every construction path.

Every graph carries a read-only int16 shifted code matrix `_mp1` (for a
colored graph the color matrix itself), its channel count and labels, a
mirror table giving each pair's code read from the other endpoint, and a
kind key; the kind-blind kernels read only these.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut import editdist
from regracut.errors import ColorOutOfRange

PATHS = (
    "constructor", "new", "loads", "loads_lines", "sample", "with", "distance", "fit",
)


def check_core(G):
    mp1 = G._mp1
    assert mp1.dtype == np.int16 and mp1.shape == (G.n, G.n)
    assert not mp1.flags.writeable and not G.matrix.flags.writeable
    if isinstance(G, rg.ColoredGraph):
        assert np.shares_memory(mp1, G.matrix)  # no second n x n array
        assert np.array_equal(mp1, G.matrix)
        assert G._kind_key == ("rtype", G.r)
    else:
        assert np.array_equal(mp1, G.matrix.astype(np.int16) + 1)
        assert G._kind_key == ("dirtype", None)
    off = ~np.eye(G.n, dtype=bool)
    assert np.array_equal(G._mirror[mp1][off], mp1.T[off])
    assert not G._mirror.flags.writeable
    assert np.all(np.diag(mp1) == 0)
    assert tuple(G._labels) == rg.channel_labels(G)
    assert G._nch == len(G._labels)
    assert [lab for _, _, lab in G.pairs()] == [
        G._labels[mp1[u, v] - 1] for u in range(G.n) for v in range(u + 1, G.n)
    ]


def build(path, directed, n, r, seed):
    """A graph made along `path` from a seeded sample."""
    S = rg.sample_digraph(n, 0.3, 0.2, seed=seed) if directed else rg.sample_rgraph(
        n, [1 / r] * r, seed=seed)
    if path == "sample":
        return S
    if path == "constructor":
        return rg.Digraph(n, S.matrix) if directed else rg.ColoredGraph(n, r, S.matrix)
    if path == "new":
        triples = list(S.pairs())
        return rg.new_digraph(n, triples) if directed else rg.new_rgraph(n, r, triples)
    if path == "loads":
        return rg.loads_graph(rg.dumps_graph(S))
    if path == "loads_lines":
        # CR line ends are not canonical: the per-line tokeniser reads them
        return rg.loads_graph(rg.dumps_graph(S).replace("\n", "\r"))
    if path == "with":
        return S.with_state(1, 0, "fwd") if directed else S.with_color(1, 0, r)
    if path == "distance":
        family = rg.ForbiddenFamily([rg.new_digraph(2, [(0, 1, "fwd")]) if directed
                                     else rg.new_rgraph(2, r, [(0, 1, 1)])])
        return rg.distance_to_property(S, family)[1]
    K = (rg.dirtype("P0", [{"bi"}, {"fwd", "back"}], {(0, 1): {"fwd", "none"}}) if directed
         else rg.rtype(r, [{1}, {2}], {(0, 1): {1, r}}))
    return rg.fit_to_type(S, K, "best_of", trials=3, seed=seed).graph


class TestSharedInternals:
    @given(
        path=st.sampled_from(PATHS), directed=st.booleans(), n=st.integers(2, 5),
        r=st.integers(2, 4), seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_construction_path(self, path, directed, n, r, seed):
        G = build(path, directed, n, r, seed)
        check_core(G)
        same = rg.loads_graph(rg.dumps_graph(G))
        assert same == G and hash(same) == hash(G)

    def test_kinds_never_compare_equal(self):
        C = rg.ColoredGraph(2, 4, [[0, 1], [1, 0]])
        D = rg.Digraph(2, [[-1, 0], [0, -1]])
        assert C != D and D != C
        assert C != rg.ColoredGraph(2, 3, [[0, 1], [1, 0]])

    def test_large_color_count_is_cheap(self):
        # the labels are a range: building them must not list 10**12 colors
        G = rg.new_rgraph(2, 10**12, [(0, 1, 7)])
        assert G._nch == 10**12 and G._labels.index(7) == 6 and G._labels[-1] == 10**12
        assert np.array_equal(G._mirror[G._mp1], G._mp1)

    def test_sampled_colors_must_fit_the_int16_matrix(self):
        G = rg.sample_rgraph(3, [1.0] + [0.0] * 40000)
        check_core(G)
        assert G.r == 40001 and len(G._mirror) == 2**15
        with pytest.raises(ColorOutOfRange, match=r"^colors must lie in 1\.\.40001$"):
            rg.sample_rgraph(3, [0.0] * 40000 + [1.0])


class TestFitCaches:
    def test_cached_tables_are_read_only(self):
        K = rg.rtype(3, [{1}, {2}], {(0, 1): {1, 3}})
        same = rg.rtype(3, [{1}, {2}], {(0, 1): {1, 3}})
        assert editdist._target_table(K) is editdist._target_table(same)
        iu, ju = editdist._upper_pairs(6)
        assert editdist._upper_pairs(6)[0] is iu
        for arr in (editdist._target_table(K), iu, ju):
            assert not arr.flags.writeable
        assert np.array_equal(np.stack([iu, ju]), np.triu_indices(6, 1))
