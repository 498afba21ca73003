"""Shared builders for the test suite.

Everything here is deterministic; randomness always flows through an
explicit seed so failures reproduce.
"""

import itertools
import math

import numpy as np

import regracut as rg
from regracut import typegraphs as tg
from regracut.errors import KindMismatch, SearchSpaceTooLarge


def mono_rgraph(n, r, color):
    """Complete r-graph with every pair carrying the same color."""
    return rg.new_rgraph(n, r, [(u, v, color) for u, v in itertools.combinations(range(n), 2)])


def mono_digraph(n, state):
    return rg.new_digraph(n, [(u, v, state) for u, v in itertools.combinations(range(n), 2)])


def two_block_rgraph(half, inside=1, across=2):
    """Planted structure on 2*half vertices: color `inside` within each
    half, color `across` between the halves."""
    n = 2 * half
    pairs = []
    for u, v in itertools.combinations(range(n), 2):
        same = (u < half) == (v < half)
        pairs.append((u, v, inside if same else across))
    return rg.new_rgraph(n, 2, pairs)


def rgraph_from_matrix(mat, r):
    """Build an r-graph from a symmetric integer matrix (diagonal ignored)."""
    n = len(mat)
    return rg.new_rgraph(
        n, r, [(u, v, int(mat[u][v])) for u, v in itertools.combinations(range(n), 2)]
    )


def density_direct(G, A, B):
    """Per-channel densities via a slice-and-count independent of
    density_vector's internals; the reference oracle for density tests."""
    labels = rg.channel_labels(G)
    counts = {lab: 0 for lab in labels}
    if isinstance(G, rg.ColoredGraph):
        for a in A:
            for b in B:
                counts[G.color(a, b)] += 1
    else:
        for a in A:
            for b in B:
                counts[G.arc(a, b)] += 1
    total = len(A) * len(B)
    return np.array([counts[lab] / total for lab in labels])


def random_disjoint_sets(rng, n, amin=2):
    """Two disjoint nonempty vertex subsets of 0..n-1."""
    perm = rng.permutation(n)
    a = int(rng.integers(amin, max(amin + 1, n // 2)))
    b = int(rng.integers(amin, max(amin + 1, n - a)))
    return sorted(int(x) for x in perm[:a]), sorted(int(x) for x in perm[a:a + b])


def heuristic_reference(G, A, B, gamma, rounds=2):
    """Pair-by-pair degree-tail witness search, one channel and tail at a
    time; the oracle for the batched heuristic kernel.

    Slow on purpose: every degree and candidate density is recomputed with
    the public `density_vector`.
    """
    A, B = sorted(A), sorted(B)
    a_min = min(max(1, math.ceil(gamma * len(A))), len(A))
    b_min = min(max(1, math.ceil(gamma * len(B))), len(B))
    if a_min == len(A) and b_min == len(B):
        return rg.RegularityReport(gamma, rg.UNKNOWN)
    labels = rg.channel_labels(G)
    base = rg.density_vector(G, A, B)

    def extreme(scores, count, high):
        order = sorted(range(len(scores)), key=lambda x: scores[x])  # stable
        return sorted(order[-count:] if high else order[:count])

    best = None
    for c in range(len(labels)):
        for high in (True, False):
            a_idx = extreme([rg.density_vector(G, [a], B)[c] for a in A], a_min, high)
            for _ in range(rounds):
                a_sel = [A[x] for x in a_idx]
                b_idx = extreme([rg.density_vector(G, a_sel, [b])[c] for b in B], b_min, high)
                b_sel = [B[x] for x in b_idx]
                a_idx = extreme([rg.density_vector(G, [a], b_sel)[c] for a in A], a_min, high)
                a_sel = [A[x] for x in a_idx]
                devs = np.abs(rg.density_vector(G, a_sel, b_sel) - base)
                if devs.max() > gamma and (best is None or devs.max() > best[0]):
                    best = (float(devs.max()), tuple(a_sel), tuple(b_sel), int(devs.argmax()))
    if best is None:
        return rg.RegularityReport(gamma, rg.UNKNOWN)
    dev, a_sel, b_sel, c = best
    witness = rg.RegularityWitness(a_sel, b_sel, labels[c], dev)
    return rg.RegularityReport(gamma, rg.IRREGULAR, witness)


def enumerate_types_reference(kind, k_max, family):
    """Template enumeration one candidate at a time: every labeling is built
    as a `TypeGraph`, deduplicated by the public `canonical_key` and
    filtered by the public `embeds`; the oracle for `enumerate_types`."""
    if k_max < 1:
        raise rg.RegracutError(f"k_max must be at least 1, got {k_max}")
    if isinstance(kind, int):
        if family.kind != "rtype" or family.r != kind:
            raise KindMismatch("family does not match the requested color count")
        elements = tuple(range(1, kind + 1))
        full = frozenset(elements)
        head = {"kind": "rtype", "r": kind}
    else:
        pal = rg.palette(kind) if isinstance(kind, str) else kind
        if family.kind != "dirtype":
            raise KindMismatch("family does not match the requested palette")
        elements = tuple(s for s in rg.DIGRAPH_STATES if s in pal)
        full = frozenset(rg.DIGRAPH_STATES)
        head = {"kind": "dirtype", "palette": pal}

    subsets = [
        frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
        for mask in range(1, 1 << len(elements))
    ]
    proper = [s for s in subsets if s != full]
    n_self, n_edge = len(proper), len(subsets)
    budget = sum(n_self**k * n_edge ** (k * (k - 1) // 2) for k in range(1, k_max + 1))
    if budget > tg._CANDIDATE_BUDGET:
        raise SearchSpaceTooLarge(
            f"{budget} candidate templates exceed the exhaustive budget"
        )

    candidates = []
    seen = set()
    for k in range(1, k_max + 1):
        pair_count = k * (k - 1) // 2
        for selfs in itertools.product(proper, repeat=k):
            for pairs in itertools.product(subsets, repeat=pair_count):
                K = rg.TypeGraph(k=k, self_labels=selfs, pair_labels=pairs, **head)
                key = rg.canonical_key(K)
                if key not in seen:
                    seen.add(key)
                    candidates.append(K)

    kept = tuple(K for K in candidates if not any(rg.embeds(H, K)[0] for H in family))
    return rg.TypeFamily(types=kept, size_bound=k_max)
