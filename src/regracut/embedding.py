"""Embedding constants and spanning partite copy counts.

A spanning copy of a k-vertex pattern H across parts (V_1, ..., V_k) is a
tuple (w_1, ..., w_k) with w_i in V_i whose pair colors (or ordered arrow
states) reproduce H's.  With all pair densities at least eta in the colors
H uses and all pairs gamma(eta, k)-regular, the count is at least
delta(eta, k) times the product of the part sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (
    IRREGULAR,
    _VERDICTS,
    _certify_pairs,
    _channel_index,
    _pair_densities,
)
from .errors import ArityMismatch, BadEta, _integer, _real
from .graphs import _check_kind
from .partitions import _vertex_sets


@dataclass(frozen=True)
class EmbeddingConstants:
    eta: float
    k: int
    gamma: float
    delta: float


def _gamma(eta: float, k: int) -> float:
    return min((eta / 2) ** (k - 1), (1 / 6) ** (k - 1))


# gamma(eta, j) is 0.0 from here on, as (1/6) ** 416 underflows to 0.0
_GAMMA_ZERO = 417


def _delta(eta: float, k: int) -> float:
    """delta(eta, k) by the recursion's operations, run bottom-up so that no
    k is too deep: level j takes eta_j (eta_k = eta), g_j = gamma(eta_j, j)
    and passes eta_j - g_j down."""
    levels, eta_j = [], eta
    for j in range(min(k, _GAMMA_ZERO), 1, -1):
        g = _gamma(eta_j, j)
        levels.append((j, eta_j, g))
        eta_j -= g
    delta = 1.0
    for j, eta_j, g in reversed(levels):
        delta = delta * (eta_j - g) ** (j - 1) * (1 - (j - 1) * g)
    # a level above _GAMMA_ZERO multiplies by (eta - 0.0) ** (j - 1) * 1.0,
    # which is eta ** (j - 1), and 0.0 stays 0.0
    for j in range(_GAMMA_ZERO + 1, k + 1):
        if not delta:
            break
        delta *= eta ** (j - 1)
    return delta


def embedding_constants(eta: float, k: int) -> EmbeddingConstants:
    """Regularity requirement gamma and count guarantee delta for (eta, k).

    gamma(eta, k) = min((eta/2)^(k-1), (1/6)^(k-1));
    delta(eta, 1) = 1, and
    delta(eta, k) = delta(eta - g, k - 1) * (eta - g)^(k-1) * (1 - (k-1) g)
    with g = gamma(eta, k) recomputed at each level.
    """
    eta = _real(eta, "eta", 0, 1, BadEta)
    k = _integer(k, "k", 1)
    return EmbeddingConstants(eta=eta, k=k, gamma=_gamma(eta, k), delta=_delta(eta, k))


@dataclass(frozen=True)
class CopyCount:
    count: int
    total: int
    bound: float | None = None
    satisfied: bool | None = None


def _check_parts(G, H, parts, empty_ok: bool):
    _check_kind(H, G._kind_key, "graph and pattern must be the same kind",
                "graph has r={0} but pattern has r={1}")
    parts = list(parts)
    if H.n != len(parts):
        raise ArityMismatch(f"pattern has {H.n} vertices but {len(parts)} parts given")
    return _vertex_sets(G.n, parts, [f"part {i}" for i in range(len(parts))], empty_ok)


def count_spanning_copies(G, H, parts, eta: float | None = None) -> CopyCount:
    """Exact number of spanning partite copies of H across the parts.

    The count is the number of k-cliques in the k-partite compatibility
    graph: it branches vertex by vertex on the k - 3 smallest parts and
    counts the triangles left in the other three with one matrix product.
    Passing eta attaches the delta(eta, k) * prod|V_i| bound.
    """
    parts = _check_parts(G, H, parts, empty_ok=True)
    consts = None if eta is None else embedding_constants(eta, len(parts))
    return _count_copies(G, H, parts, consts)


def _count_copies(G, H, parts, consts: EmbeddingConstants | None) -> CopyCount:
    """`count_spanning_copies` on parts already passed through
    `_check_parts`; with consts the delta * prod|V_i| bound is attached."""
    k = len(parts)
    total = math.prod(map(len, parts))
    if total == 0:
        count = 0
    elif k == 1:
        count = len(parts[0])
    else:
        # branch on the smallest parts; the pattern is permuted with them
        order = sorted(range(k), key=lambda i: len(parts[i]))
        # each indicator is cast once per count
        exact = math.prod(len(parts[a]) for a in order[-3:]) < _FLOAT_EXACT
        dtype = np.float64 if exact else np.int64
        ind = {
            (i, j): (G._mp1[np.ix_(parts[a], parts[b])] == H._mp1[a, b]).astype(dtype)
            for i, a in enumerate(order) for j, b in enumerate(order) if i < j
        }
        if k == 2:
            count = int(np.count_nonzero(ind[0, 1]))
        else:
            count = _cliques(ind, [np.arange(len(parts[a])) for a in order], 0)

    if consts is None:
        return CopyCount(count=count, total=total)
    bound = consts.delta * total
    return CopyCount(count=count, total=total, bound=bound, satisfied=count >= bound)


# Indicators are float64 when the three largest parts' sizes multiply to
# less than this, where every partial sum of a triangle count is an exact
# integer, and int64 otherwise.
_FLOAT_EXACT = 2**53


def _cliques(ind, cand, d: int) -> int:
    """Cliques with one vertex in each part, part i's vertex drawn from the
    index array cand[i] and ind[i, j] (i < j) the 0/1 part-pair indicator.

    Parts before d are fixed.  Each vertex of part d narrows the later
    parts to its neighbours and a branch with an empty part is pruned; the
    last three parts are a triangle count by one product.
    """
    k = len(cand)
    if d == k - 3:
        xy, xz, yz = (ind[i, j].take(cand[i], axis=0).take(cand[j], axis=1)
                      for i, j in ((d, d + 1), (d, d + 2), (d + 1, d + 2)))
        return int(np.vdot(xy, xz @ yz.T))
    count = 0
    for a in cand[d].tolist():
        rest = [cand[j].compress(ind[d, j][a].take(cand[j])) for j in range(d + 1, k)]
        if all(map(len, rest)):
            count += _cliques(ind, cand[: d + 1] + rest, d + 1)
    return count


def bad_vertices(G, part_from, part_to, channel, eta: float, gamma: float) -> frozenset[int]:
    """Vertices of part_from with fewer than (eta - gamma)|part_to| channel
    edges into part_to (for digraphs: ordered arcs read from part_from)."""
    src, dst = _vertex_sets(G.n, (part_from, part_to), ("part_from", "part_to"), empty_ok=True)
    ci = _channel_index(G, channel)
    eta, gamma = _real(eta, "eta"), _real(gamma, "gamma")
    degrees = (G._mp1[np.ix_(src, dst)] == ci + 1).sum(axis=1)
    return frozenset(np.compress(degrees < (eta - gamma) * len(dst), src).tolist())


@dataclass(frozen=True)
class PairPremise:
    i: int
    j: int
    channel: object
    density: float
    density_ok: bool
    regularity: str


@dataclass(frozen=True)
class EmbeddingReport:
    constants: EmbeddingConstants
    pairs: tuple[PairPremise, ...]
    copies: CopyCount
    premises_hold: bool
    note: str


def check_embedding_lemma(G, H, parts, eta: float) -> EmbeddingReport:
    """Check the count guarantee's premises and conclusion on concrete parts.

    For each part pair the density in the channel H uses there must be at
    least eta, and the pair must be gamma-regular (certified with the "auto"
    method: exact when both parts fit the exhaustive cap, heuristic evidence
    otherwise; an "unknown" verdict is not treated as a premise failure).
    """
    # parts may be empty for counting, but not as sides of a pair
    parts = _check_parts(G, H, parts, empty_ok=H.n == 1)
    k = len(parts)
    consts = embedding_constants(eta, k)
    iu, ju = np.triu_indices(k, 1)
    codes, _ = _certify_pairs(G, parts, iu, ju, consts.gamma, "auto")
    premises = []
    ok = True
    for i, j, code in zip(iu.tolist(), ju.tolist(), codes.tolist()):
        c = H._mp1[i, j] - 1
        dens = float(_pair_densities(G, [parts[i]], [parts[j]])[0, c])
        density_ok = dens >= eta
        verdict = _VERDICTS[code]
        premises.append(PairPremise(i, j, G._labels[c], dens, density_ok, verdict))
        ok = ok and density_ok and verdict != IRREGULAR
    copies = _count_copies(G, H, parts, consts)
    return EmbeddingReport(
        constants=consts,
        pairs=tuple(premises),
        copies=copies,
        premises_hold=ok,
        note="density premise checked in the channel each pattern pair uses",
    )
