"""Density vectors, pair regularity certifiers, the partition index, and
the defect Cauchy-Schwarz checks.

For a colored graph the density vector of (A, B) has one entry per color:
the fraction of A x B pairs carrying that color.  For a digraph it has one
entry per arrow state, counted over ordered pairs (a, b) with a in A and
b in B, so the "fwd" entry of d(A, B) equals the "back" entry of d(B, A).

A pair (A, B) is gamma-regular when every pair of subsets A' of A and
B' of B with |A'| >= gamma|A| and |B'| >= gamma|B| has
max-norm density deviation at most gamma.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadM,
    BadPartition,
    BadState,
    ColorOutOfRange,
    EmptySet,
    OverlappingSets,
    RegracutError,
    TooLargeForExhaustive,
    UnequalSubBlocks,
)
from .graphs import DIRTYPE, RTYPE, ColoredGraph, Digraph
from .partitions import Equipartition

REGULAR = "regular"
IRREGULAR = "irregular"
UNKNOWN = "unknown"
# verdict codes of the batched certifiers, indices into _VERDICTS
_REG, _IRR, _UNK = range(3)
_VERDICTS = (REGULAR, IRREGULAR, UNKNOWN)


def channel_labels(G) -> tuple:
    """Per-channel labels: colors 1..r, or the four arrow states."""
    if not isinstance(G, (ColoredGraph, Digraph)):
        raise RegracutError(f"not a graph: {type(G).__name__}")
    return tuple(G._labels)


# What a channel that is not one of a graph's labels raises, by graph kind
_NO_CHANNEL = {
    RTYPE: (ColorOutOfRange, "color {0!r} not in 1..{1}"),
    DIRTYPE: (BadState, "unknown state {0!r}"),
}


def _channel_index(G, channel) -> int:
    try:
        return G._labels.index(channel)
    except ValueError:
        error, message = _NO_CHANNEL[G._kind_key[0]]
        raise error(message.format(channel, G._kind_key[1])) from None


def _vertex_sets(G, sets, names, empty_ok: bool = False) -> list[np.ndarray]:
    """The vertex sets as sorted intp arrays, checked at the public boundary.

    Each set in turn must be nonempty (unless `empty_ok`, for callers that
    count over possibly empty parts), hold no vertex twice and lie inside
    0..n-1; then no two sets may share a vertex.  Errors name a set by its
    entry in `names`: "A" or "B" in a pair, "part i" or "block i" in a list.
    """
    out = []
    for S, name in zip(sets, names):
        S = [int(v) for v in S]
        arr = np.asarray(sorted(set(S)), dtype=np.intp)
        if not S and not empty_ok:
            raise EmptySet(f"{name} is empty")
        if len(arr) != len(S):
            raise RegracutError(f"{name} contains repeated vertices")
        if len(arr) and (arr[0] < 0 or arr[-1] >= G.n):
            raise RegracutError(f"{name} contains vertices outside 0..{G.n - 1}")
        out.append(arr)
    for j, i in itertools.combinations(range(len(out)), 2):
        if np.intersect1d(out[j], out[i], assume_unique=True).size:
            raise OverlappingSets(f"{names[j]} and {names[i]} overlap")
    return out


def _check_positive(value: float, name: str = "gamma") -> None:
    """Refuse a regularity tolerance that is not positive (NaN too)."""
    if not value > 0:
        raise RegracutError(f"{name} must be positive, got {value}")


def density_vector(G, A, B) -> np.ndarray:
    """Per-channel densities of the pair (A, B); entries sum to 1."""
    a, b = _vertex_sets(G, (A, B), ("A", "B"))
    return _pair_densities(G, a[None], b[None])[0]


def _pair_densities(G, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-channel densities (P, nch) of P same-shape pairs, given as
    trusted (P, s) and (P, t) index arrays with each row pair disjoint."""
    sub = G._mp1[A[:, :, None], B[:, None, :]]
    return _channel_counts(sub, G._nch) / (A.shape[1] * B.shape[1])


def pair_density_tensor(G, part: Equipartition) -> np.ndarray:
    """All block-pair densities at once: entry [i, j, c] is d_c(V_i, V_j).

    Diagonal entries [i, i, :] are ordered-pair densities within the block
    and are not used by the index.
    """
    if part.n != G.n:
        raise BadPartition(f"partition covers {part.n} vertices, graph has {G.n}")
    mp1, nch = G._mp1, G._nch
    k = part.order
    bid = np.empty(G.n, dtype=np.intp)
    for i, block in enumerate(part.blocks):
        bid[list(block)] = i
    codes = (bid[:, None] * k + bid[None, :]) * (nch + 1) + mp1
    counts = np.bincount(codes.ravel(), minlength=k * k * (nch + 1))
    counts = counts.reshape(k, k, nch + 1)[:, :, 1:]
    sizes = np.asarray(part.sizes(), dtype=np.float64)
    denom = sizes[:, None] * sizes[None, :]
    np.fill_diagonal(denom, [s * max(s - 1, 1) for s in sizes])
    return counts / denom[:, :, None]


def partition_index(G, part) -> float:
    """Mean-square density index of an equipartition: in [0, 1/2]."""
    if not isinstance(part, Equipartition):
        part = Equipartition(part)
    if part.order < 2:
        raise BadPartition("the index needs at least two blocks")
    return _tensor_index(pair_density_tensor(G, part))


def _tensor_index(dens: np.ndarray) -> float:
    """The index of a partition from its density tensor (0 for one block)."""
    k = len(dens)
    iu, ju = np.triu_indices(k, 1)
    return float((dens[iu, ju] ** 2).sum() / (k * k))


# ---------------------------------------------------------------------------
# regularity certifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityWitness:
    a_prime: tuple[int, ...]
    b_prime: tuple[int, ...]
    color: object
    deviation: float


@dataclass(frozen=True)
class RegularityReport:
    gamma: float
    verdict: str
    witness: RegularityWitness | None = None


def _qualifying_min(gamma: float, size: int) -> int:
    """Smallest subset size s with s >= gamma * size (real comparison)."""
    return max(1, math.ceil(gamma * size))


def is_regular_exact(G, A, B, gamma: float, cap: int = 12) -> RegularityReport:
    """Decide gamma-regularity of (A, B) by exhausting qualifying subsets.

    For a fixed subset A' and subset size t, the extreme densities over all
    B' of size t are attained by the t largest / t smallest column sums, so
    scanning sorted prefix sums over every qualifying A' decides the
    universally quantified condition exactly.  Same as `certify` with
    method "exact"; raises above `cap` (at most 16) vertices per side.
    """
    return certify(G, A, B, gamma, "exact", cap)


# Pair-table elements (pairs x qualifying masks x |B|) live at once in
# `_exact_batch`, and the side ceiling of the exhaustive certifier: its
# uint32 masks wrap above 32 vertices and its table doubles per vertex.
_EXACT_CHUNK = 2 ** 16
_EXACT_MAX_SIDE = 16


def _exact_batch(G, A: np.ndarray, B: np.ndarray, gamma: float):
    """The exhaustive certifier on P same-shape pairs at once.

    A (P, |A|) and B (P, |B|) hold sorted vertex indices, each row pair
    disjoint; they and 0 < gamma < 1 are trusted, and the caller keeps
    both sides within `_EXACT_MAX_SIDE`.  Returns the hits of the
    irregular pairs as `_heuristic_batch` does; every other pair is proved
    regular.  For every qualifying A' (a mask row) one float64 product
    gives the channel counts into each vertex of B, exact for counts this
    small; sorted prefix sums then give the extreme densities over every
    qualifying |B'| = t at once.  The witness of an irregular pair is its
    first violation in the order channel, smallest t, high tail before
    low tail, first mask row, and its deviation is that entry's.
    """
    P, na = A.shape
    nb = B.shape[1]
    a_min = _qualifying_min(gamma, na)
    b_min = _qualifying_min(gamma, nb)
    mp1, nch = G._mp1, G._nch
    masks = np.arange(1, 1 << na, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(na, dtype=np.uint32)) & 1
    sizes = bits.sum(axis=1, dtype=np.int64)
    keep = sizes >= a_min
    bits = bits[keep].astype(np.float64)
    M = len(bits)
    ts = np.arange(b_min, nb + 1)
    denom = sizes[keep][:, None] * ts                       # (M, T)

    irregular = np.zeros(P, dtype=bool)
    chan = np.zeros(P, dtype=np.intp)
    deviation = np.zeros(P)
    a_in = np.zeros((P, na), dtype=bool)
    b_in = np.zeros((P, nb), dtype=bool)
    step = max(1, _EXACT_CHUNK // (M * nb))
    # mask rows are split too only when one pair alone exceeds the budget
    rows = M if M * nb <= _EXACT_CHUNK else max(1, _EXACT_CHUNK // nb)
    for start in range(0, P, step):
        sub = mp1[A[start:start + step, :, None], B[start:start + step, None, :]]  # (p, na, nb)
        base = _channel_counts(sub, nch) / (na * nb)
        pend = np.arange(len(sub))
        for c in range(nch):
            if not pend.size:
                break
            p = len(pend)
            ind = (sub[pend] == c + 1).transpose(1, 0, 2).reshape(na, p * nb).astype(np.float64)
            bc = base[pend, c][:, None, None]
            found = {}  # pending position -> (t, tail, row) of its first violation
            for r0 in range(0, M, rows):
                part, d = bits[r0:r0 + rows], denom[r0:r0 + rows]
                R = len(part)
                col = (part @ ind).reshape(R, p, nb).transpose(1, 0, 2)
                order = np.argsort(col, axis=2, kind="stable")
                pref = np.zeros((p, R, nb + 1))
                np.cumsum(np.take_along_axis(col, order, axis=2), axis=2, out=pref[:, :, 1:])
                # extreme channel counts over |B'| = t: (p, R, T) each
                max_e = pref[:, :, -1:] - pref[:, :, nb - ts]
                min_e = pref[:, :, ts]
                dev = np.stack((max_e / d - bc, bc - min_e / d), axis=1)      # (p, 2, R, T)
                viol = (dev > gamma).transpose(0, 3, 1, 2).reshape(p, -1)     # t, tail, row
                hit = np.nonzero(viol.any(axis=1))[0]
                first = viol[hit].argmax(axis=1)
                ti, tail, row = first // (2 * R), first // R % 2, first % R
                for h, t_i, hi_lo, r in zip(hit.tolist(), ti.tolist(), tail.tolist(), row.tolist()):
                    key = (t_i, hi_lo, r0 + r)
                    if h not in found or key < found[h]:
                        found[h] = key
                        q = start + pend[h]
                        t = int(ts[t_i])
                        irregular[q], chan[q], deviation[q] = True, c, dev[h, hi_lo, r, t_i]
                        a_in[q] = part[r] == 1
                        b_in[q] = False
                        b_in[q, order[h, r, nb - t:] if hi_lo == 0 else order[h, r, :t]] = True
            pend = np.delete(pend, list(found))
    hit = np.flatnonzero(irregular)
    return hit, chan[hit], deviation[hit], a_in[hit], b_in[hit]


def _tails(scores: np.ndarray, count: int) -> np.ndarray:
    """Masks of the `count` highest entries of each (..., 0, :) score row
    and the `count` lowest of each (..., 1, :) row: the two tails of a
    stable argsort, ties going to the later position in the high tail and
    to the earlier one in the low tail.  One partition on the unique keys
    score * n + position selects them."""
    n = scores.shape[-1]
    if count == n:
        return np.ones(scores.shape, dtype=bool)
    key = scores.astype(np.int64) * n + np.arange(n)
    key[..., 0, :] *= -1
    return key <= np.partition(key, count - 1, axis=-1)[..., count - 1:count]


def _channel_counts(codes: np.ndarray, nch: int) -> np.ndarray:
    """Per-channel counts (P, nch) of a (P, ...) code tensor, one bincount."""
    P = codes.shape[0]
    flat = codes.reshape(P, -1) + (nch + 1) * np.arange(P)[:, None]
    return np.bincount(flat.ravel(), minlength=P * (nch + 1)).reshape(P, nch + 1)[:, 1:]


def _heuristic_batch(G, A: np.ndarray, B: np.ndarray, gamma: float, rounds: int = 2):
    """Degree-tail witness search on P same-shape pairs at once.

    A (P, s) and B (P, t) hold sorted vertex indices, each row pair
    disjoint; they and gamma > 0 are trusted, not checked.  Returns the
    hits of the irregular pairs as arrays: their rows, the witness channel
    indices and deviations, and A' and B' as (hits, s) and (hits, t)
    masks over the rows of A and B.  All 2 * nch search lines (channel,
    then high and low tail) of all pairs run together: A' starts as the
    qualifying minimum of most extreme channel degrees into B; then B' is
    refined against A' and A' against B', `rounds` times.  Degrees are
    float32 products of 0/1 selection masks and channel indicators, exact
    as each sums at most max(s, t) < 2^24 ones; a candidate's
    counts in every channel come from one gather of its sub-block, so
    "irregular" is always sound.  The witness is the largest deviation
    above gamma, first in the order channel, tail, round.
    """
    mp1, nch = G._mp1, G._nch
    P, na = A.shape
    nb = B.shape[1]
    a_min = min(_qualifying_min(gamma, na), na)
    b_min = min(_qualifying_min(gamma, nb), nb)
    sub = mp1[A[:, :, None], B[:, None, :]]
    base = _channel_counts(sub, nch) / (na * nb)
    onehot = (sub == np.arange(1, nch + 1)[:, None, None, None]).astype(np.float32)  # (nch, P, na, nb)
    # search lines (channel, pair, tail): tail 0 is the high tail, 1 the low one
    a_sel = _tails(np.broadcast_to(onehot.sum(axis=3)[:, :, None], (nch, P, 2, na)), a_min)
    lines = (nch, P, 2)
    pair = np.arange(P)[:, None, None, None]
    devs, chans, a_sels, b_sels = [], [], [], []
    for _ in range(rounds):
        b_sel = _tails(a_sel.astype(np.float32) @ onehot, b_min)
        a_sel = _tails((onehot @ b_sel.astype(np.float32).swapaxes(2, 3)).swapaxes(2, 3), a_min)
        a_pos = (np.flatnonzero(a_sel) % na).reshape(lines + (a_min, 1))
        b_pos = (np.flatnonzero(b_sel) % nb).reshape(lines + (1, b_min))
        counts = _channel_counts(sub[pair, a_pos, b_pos].reshape(-1, a_min * b_min), nch)
        dev = np.abs(counts.reshape(lines + (nch,)) / (a_min * b_min) - base[:, None])
        devs.append(dev.max(axis=3))
        chans.append(dev.argmax(axis=3))
        a_sels.append(a_sel)
        b_sels.append(b_sel)
    return _best_witnesses(gamma, devs, chans, a_sels, b_sels)


def _best_witnesses(gamma: float, devs, chans, a_sels, b_sels):
    """The hits of a degree-tail search from its candidates: per round, the
    deviations and channels (nch, P, 2) of every search line and the A' and
    B' it picked.  Each pair's witness is its first largest deviation in
    the order channel, tail, round, and it is a hit above gamma."""
    dev = np.stack(devs, axis=3)
    nch, P = dev.shape[:2]
    dev = dev.transpose(1, 0, 2, 3).reshape(P, -1)
    best = dev.argmax(axis=1)
    hit = np.flatnonzero(dev[np.arange(P), best] > gamma)
    c, tail, r = np.unravel_index(best[hit], (nch, 2, len(devs)))
    at = (r, c, hit, tail)
    return hit, np.stack(chans)[at], dev[hit, best[hit]], np.stack(a_sels)[at], np.stack(b_sels)[at]


def _single_cell_batch(G, A: np.ndarray, B: np.ndarray, gamma: float, rounds: int = 2):
    """`_heuristic_batch` in closed form when both qualifying minima are 1.

    Same trusted inputs and the same hits.  Every tail then selects one
    vertex: the high tail the last vertex with the most channel-c edges
    into the other side's selection, the low tail the first with the
    fewest.  So a seed is an argmax of degrees, a round reads one row and
    then one column of the channel indicator, and each candidate is the
    single cell (a, b), whose deviation and first-argmax channel depend
    only on its code and come from a per-pair table of every code.
    """
    mp1, nch = G._mp1, G._nch
    P, na = A.shape
    nb = B.shape[1]
    sub = mp1[A[:, :, None], B[:, None, :]]
    # a cell of code k deviates by 1 - d_k in channel k and by d_c elsewhere;
    # `other` is the first channel of the largest d_c over c != k
    d = _channel_counts(sub, nch) / (na * nb)
    pair, k = np.arange(P)[:, None], np.arange(nch)
    first = d.argmax(axis=1)[:, None]
    second = np.where(k == first, -1.0, d).argmax(axis=1)[:, None]
    other = np.where(k == first, second, first)
    own, rest = 1 - d, d[pair, other]
    cell_dev = np.maximum(own, rest)                                 # (P, code - 1)
    cell_chan = np.where((own > rest) | ((own == rest) & (k < other)), k, other)
    ind = sub == np.arange(1, nch + 1)[:, None, None, None]          # (nch, P, na, nb)
    c = np.arange(nch)[:, None, None]

    def pick(rows):
        """Per (channel, pair): the high tail's last set entry (else the
        last) and the low tail's first clear entry (else the first)."""
        high = rows.shape[-1] - 1 - rows[:, :, 0, ::-1].argmax(axis=2)
        return np.stack((high, (~rows[:, :, 1]).argmax(axis=2)), axis=2)

    deg = np.count_nonzero(ind, axis=3)
    a = np.stack((na - 1 - deg[:, :, ::-1].argmax(axis=2), deg.argmin(axis=2)), axis=2)  # (nch, P, 2)
    devs, chans, a_pos, b_pos = [], [], [], []
    for _ in range(rounds):
        b = pick(ind[c, pair, a])
        a = pick(ind[c, pair, :, b])
        code = sub[pair, a, b] - 1
        devs.append(cell_dev[pair, code])
        chans.append(cell_chan[pair, code])
        a_pos.append(a)
        b_pos.append(b)
    hit, chan, dev, a, b = _best_witnesses(gamma, devs, chans, a_pos, b_pos)
    return hit, chan, dev, np.arange(na) == a[:, None], np.arange(nb) == b[:, None]


def _ordered_hits(found):
    """The hits of `_certify_pairs` in pair order, without building
    witnesses: the pair positions, channel indices and deviations, and
    one flat vertex array holding A' then B' of each pair, with the length
    of each side.

    `found` lists (positions, A, B, hits) per shape group: the positions
    of the group's pairs, their sides, and the hits a kernel returned.
    """
    none = np.zeros(0, dtype=np.intp)
    cols = [[none], [none], [np.zeros(0)], [none], [none]]
    for pos, A, B, (rows, chan, dev, a_in, b_in) in found:
        sides = np.concatenate((A[rows], B[rows]), axis=1)[np.concatenate((a_in, b_in), axis=1)]
        lens = np.stack((a_in.sum(axis=1), b_in.sum(axis=1)), axis=1).ravel()
        for col, part in zip(cols, (pos[rows], chan, dev, sides, lens)):
            col.append(part)
    pos, chan, dev, sides, lens = map(np.concatenate, cols)
    # the groups' hits are concatenated; order them by pair, keeping each side's vertex order
    order = np.argsort(pos)
    side_order = (2 * order[:, None] + np.arange(2)).ravel()
    rank = np.empty_like(side_order)
    rank[side_order] = np.arange(len(side_order))
    sides = sides[np.argsort(np.repeat(rank, lens), kind="stable")]
    return pos[order], chan[order], dev[order], sides, lens[side_order]


def _witnesses(G, found) -> dict:
    """The witnesses of `_certify_pairs`' hits by pair position; tuples
    are built only here, for the callers that read them."""
    pos, chan, dev, sides, lens = _ordered_hits(found)
    flat = sides.tolist()
    ends = np.cumsum(lens).tolist()
    side = [tuple(flat[s:e]) for s, e in zip([0] + ends, ends)]
    labels = [G._labels[c] for c in chan.tolist()]
    return dict(zip(pos.tolist(), map(RegularityWitness, side[::2], side[1::2], labels, dev.tolist())))


def irregularity_witness_heuristic(G, A, B, gamma: float, rounds: int = 2) -> RegularityReport:
    """Degree-tail search for an irregularity witness; never answers "regular".

    Seeds A' with the qualifying minimum of most extreme per-channel degrees
    into B (both tails), refines B' the same way against A', and alternates.
    Every candidate is validated by direct density computation, so an
    "irregular" verdict is always sound; otherwise the verdict is "unknown".
    `rounds` must be a positive integer.
    """
    _check_positive(gamma)
    if not isinstance(rounds, numbers.Integral) or rounds < 1:
        raise RegracutError(f"rounds must be a positive integer, got {rounds!r}")
    a, b = (side[None] for side in _vertex_sets(G, (A, B), ("A", "B")))
    found = _witnesses(G, [(np.zeros(1, dtype=np.intp), a, b, _heuristic_batch(G, a, b, gamma, rounds))])
    return RegularityReport(gamma, IRREGULAR if found else UNKNOWN, found.get(0))


def certify(G, A, B, gamma: float, method: str = "heuristic", exact_cap: int = 12) -> RegularityReport:
    """Certify or refute gamma-regularity of (A, B) with the named method.

    "exact" runs the exhaustive certifier (raising above `exact_cap`, and
    above 16 vertices per side whatever the cap),
    "heuristic" the degree-tail witness search, and "auto" answers
    "regular" at gamma >= 1, else runs exact when both sides fit the cap
    and the heuristic otherwise.  Only "irregular" refutes the pair.
    """
    _check_positive(gamma)
    codes, found = _certify_pairs(G, _vertex_sets(G, (A, B), ("A", "B")), [0], [1], gamma, method, exact_cap)
    return RegularityReport(gamma, _VERDICTS[codes[0]], _witnesses(G, found).get(0))


def _certify_pairs(G, blocks, ia, ib, gamma: float, method: str, exact_cap: int):
    """Certify the pairs (blocks[ia[p]], blocks[ib[p]]) with a `certify` method.

    The blocks are trusted sorted vertex sequences, the two sides of each
    pair disjoint, and gamma > 0.  Pairs are grouped by shape (|A|, |B|),
    in order of first appearance, and the method picks one batched kernel
    per shape; the heuristic runs `_single_cell_batch` when both clamped
    qualifying minima are one vertex.  `exact_cap` is clamped to
    `_EXACT_MAX_SIDE`, so "exact" raises and "auto" falls back to the
    heuristic above it.  Returns the verdict codes (indices into
    `_VERDICTS`) in pair order and the kernels' hits per shape group,
    which `_witnesses` turns into witnesses.
    """
    if method not in ("exact", "heuristic", "auto"):
        raise RegracutError(f"unknown certifier {method!r}")
    cap = min(exact_cap, _EXACT_MAX_SIDE)
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    codes = np.empty(len(ia), dtype=np.int8)
    found = []
    # row i holds blocks[i] left-aligned; a side of size s is its first s columns
    mat = np.zeros((len(blocks), sizes.max()), dtype=np.intp)
    mat[np.arange(sizes.max()) < sizes[:, None]] = np.fromiter(
        itertools.chain.from_iterable(blocks), dtype=np.intp, count=sizes.sum()
    )
    shape = sizes[ia] * (sizes.max() + 1) + sizes[ib]
    for at in np.sort(np.unique(shape, return_index=True)[1]).tolist():
        na, nb = int(sizes[ia[at]]), int(sizes[ib[at]])
        pos = np.flatnonzero(shape == shape[at])
        fits = max(na, nb) <= cap
        if method == "exact" and not fits:
            raise TooLargeForExhaustive(f"|A|={na}, |B|={nb} exceed the cap {cap}")
        a_min, b_min = _qualifying_min(gamma, na), _qualifying_min(gamma, nb)
        if method == "exact" or (method == "auto" and (fits or gamma >= 1)):
            codes[pos], kernel = _REG, _exact_batch
        elif max(min(a_min, na), min(b_min, nb)) == 1:
            codes[pos], kernel = _UNK, _single_cell_batch  # every tail selects one vertex
        else:
            codes[pos], kernel = _UNK, _heuristic_batch
        if a_min >= na and b_min >= nb:
            continue  # only the full pair qualifies, whose deviation from itself is zero
        A, B = mat[ia[pos], :na], mat[ib[pos], :nb]
        hits = kernel(G, A, B, gamma)
        codes[pos[hits[0]]] = _IRR
        found.append((pos, A, B, hits))
    return codes, found


# ---------------------------------------------------------------------------
# defect Cauchy-Schwarz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectCheck:
    alpha: float
    lhs: float
    rhs: float
    holds: bool


def defect_cs_check(xs, m: int) -> DefectCheck:
    """Verify sum(x^2) >= (sum x)^2 / n + alpha^2 n / (m (n - m)).

    alpha measures how far the first m entries run ahead of their
    proportional share of the total.
    """
    xs = np.asarray(list(xs), dtype=np.float64)
    n = xs.size
    if not 1 <= m < n:
        raise BadM(f"m={m} must lie in 1..{n - 1}")
    if np.any(xs < 0):
        raise RegracutError("entries must be nonnegative")
    total = float(xs.sum())
    alpha = float(xs[:m].sum() - m * total / n)
    lhs = float((xs ** 2).sum())
    rhs = total * total / n + alpha * alpha * n / (m * (n - m))
    return DefectCheck(alpha, lhs, rhs, bool(lhs >= rhs - 1e-9))


@dataclass(frozen=True)
class CorollaryCheck:
    premise_count: int
    lhs: float
    rhs: float
    premise_met: bool
    conclusion_holds: bool


def corollary_cs_check(G, A, B, a_blocks, b_blocks, channel, eps: float) -> CorollaryCheck:
    """Energy-boost check for equal sub-block partitions of a pair.

    Counts sub-pairs whose channel density deviates from d(A, B) by at
    least eps/2, and compares the sub-pair energy sum against
    ell^2 (d^2 + eps^3 / 8).
    """
    _check_positive(eps, "eps")
    a, b = _vertex_sets(G, (A, B), ("A", "B"))
    # one set per call: overlapping sub-blocks fail the partition check below
    a_blocks = [_vertex_sets(G, [blk], [f"A sub-block {i}"])[0] for i, blk in enumerate(a_blocks)]
    b_blocks = [_vertex_sets(G, [blk], [f"B sub-block {i}"])[0] for i, blk in enumerate(b_blocks)]
    ell = len(a_blocks)
    if len(b_blocks) != ell:
        raise UnequalSubBlocks("both sides need the same number of sub-blocks")
    for blocks, whole, name in ((a_blocks, a, "A"), (b_blocks, b, "B")):
        if not np.array_equal(np.sort(np.concatenate([whole[:0], *blocks])), whole):
            raise BadPartition(f"sub-blocks do not partition {name}")
        if len({len(blk) for blk in blocks}) != 1:
            raise UnequalSubBlocks(f"sub-blocks of {name} differ in size")
    ci = _channel_index(G, channel)
    d_ab = float(_pair_densities(G, a[None], b[None])[0, ci])
    # row j * ell + jp of the batch is the sub-pair (a_blocks[j], b_blocks[jp])
    a_rows = np.repeat(np.stack(a_blocks), ell, axis=0)
    b_rows = np.tile(np.stack(b_blocks), (ell, 1))
    d_sub = _pair_densities(G, a_rows, b_rows)[:, ci].reshape(ell, ell)
    premise_count = int((np.abs(d_sub - d_ab) >= eps / 2).sum())
    lhs = float((d_sub ** 2).sum())
    rhs = ell * ell * (d_ab * d_ab + eps ** 3 / 8)
    return CorollaryCheck(
        premise_count=premise_count,
        lhs=lhs,
        rhs=rhs,
        premise_met=bool(premise_count >= eps * ell * ell),
        conclusion_holds=bool(lhs > rhs),
    )
