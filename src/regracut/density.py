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
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadM,
    BadPartition,
    BadState,
    ColorOutOfRange,
    RegracutError,
    TooLargeForExhaustive,
    UnequalSubBlocks,
    _integer,
    _real,
)
from .graphs import DIRTYPE, RTYPE, ColoredGraph, Digraph, _row_blocks
from .partitions import Equipartition, _vertex_sets

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


def density_vector(G, A, B) -> np.ndarray:
    """Per-channel densities of the pair (A, B); entries sum to 1."""
    a, b = _vertex_sets(G.n, (A, B), ("A", "B"))
    return _pair_densities(G, [a], [b])[0]


def _pair_densities(G, A, B) -> np.ndarray:
    """Per-channel densities (P, nch) of P same-shape pairs, given as
    trusted (P, s) and (P, t) vertex arrays or lists, each row pair disjoint."""
    A, B = np.asarray(A, dtype=np.intp), np.asarray(B, dtype=np.intp)
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
    # the code of pair (u, v) is (bid[u] * k + bid[v]) * (nch + 1) + mp1[u, v],
    # counted one row block at a time
    cols = bid * (nch + 1)
    rows = cols * k
    counts = np.zeros(k * k * (nch + 1), dtype=np.intp)
    for lo, hi in _row_blocks(G.n):
        codes = rows[lo:hi, None] + cols
        codes += mp1[lo:hi]
        counts += np.bincount(codes.ravel(), minlength=len(counts))
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
    """Smallest subset size s with s >= gamma * size (real comparison), or
    `size` itself at gamma >= 1, where only the whole side qualifies."""
    return size if gamma >= 1 else max(1, math.ceil(gamma * size))


# Elements (pairs x mask rows x |B|) alive at once in each pass of
# `_exact_batch`, and the side ceiling of the exhaustive certifier: its
# uint32 masks wrap above 32 vertices and its scan doubles per vertex.
# Every caller but `certify`, which sets its own, runs it up to `_EXACT_SIDE_CAP`.
_EXACT_CHUNK = 2 ** 16
_EXACT_MAX_SIDE = 16
_EXACT_SIDE_CAP = 12


def _exact_batch(sub: np.ndarray, base: np.ndarray, a_min: int, b_min: int, gamma: float):
    """The exhaustive certifier on P same-shape pairs at once.

    A kernel of `_certify_pairs`; here 0 < gamma < 1 and both sides stay
    within `_EXACT_MAX_SIDE`.  The lemma: for a fixed B' the densest A' of
    size s in channel c holds the s rows with the most c-edges into B',
    and the mean of the s largest values never rises with s; the same
    holds in |B'| for a fixed A', and mirrored for the low tail.  So the
    largest deviation over all qualifying sub-pairs is reached at |A'| =
    a_min and |B'| = b_min.  Floats keep it: a deviation is a correctly
    rounded quotient of exact integer counts (float64 products of 0/1
    masks), minus d_c, and rounding is monotone.  The verdict pass reads,
    per channel, the a_min-subsets A' (mask rows) and the sums of their
    b_min highest and lowest column counts; a pair without a violation is
    proved regular.  The witness, as over every qualifying |B'|, is the
    first violation in the order channel, |B'|, high tail before low, mask
    row, so its |B'| is b_min: the witness pass scans the rows of size >=
    a_min in integer order on the refuted channel's tail, and B' is the
    b_min columns a stable argsort of the first violating row puts there.
    """
    P, na, nb = sub.shape
    masks = np.arange(1, 1 << na, dtype=np.uint32)
    sizes = sum((masks >> i) & 1 for i in range(na))
    shift = np.arange(na, dtype=np.uint32)

    def deviations(ind, bc, rows):
        """High- and low-tail deviations (R, p) of the mask rows' b_min
        extreme columns in the p pairs, and the column counts (R, p, nb)."""
        bits = rows[:, None] >> shift & 1
        col = (bits.astype(np.float64) @ ind.reshape(na, -1)).reshape(len(rows), -1, nb)
        srt = np.sort(col, axis=2)
        d = bits.sum(axis=1, keepdims=True) * b_min
        return srt[..., nb - b_min:].sum(axis=2) / d - bc, bc - srt[..., :b_min].sum(axis=2) / d, col

    irregular = np.zeros(P, dtype=bool)
    chan = np.zeros(P, dtype=np.intp)
    deviation = np.zeros(P)
    a_in = np.zeros((P, na), dtype=bool)
    b_in = np.zeros((P, nb), dtype=bool)
    least, scan = masks[sizes == a_min], masks[sizes >= a_min]
    step = max(1, _EXACT_CHUNK // (na * nb))
    for start in range(0, P, step):
        block, dens = sub[start:start + step], base[start:start + step]
        pend = np.arange(len(block))
        for c in range(base.shape[1]):
            if not pend.size:
                break
            ind = (block[pend] == c + 1).transpose(1, 0, 2).astype(np.float64)  # (na, p, nb)
            bc = dens[pend, c]
            high = low = np.zeros(len(pend), dtype=bool)
            rows = max(1, _EXACT_CHUNK // (len(pend) * nb))
            for r0 in range(0, len(least), rows):
                hi, lo, _ = deviations(ind, bc, least[r0:r0 + rows])
                high, low = high | (hi > gamma).any(axis=0), low | (lo > gamma).any(axis=0)
            todo = np.flatnonzero(high | low)
            rows = max(1, _EXACT_CHUNK // (max(1, len(todo)) * nb))
            for r0 in range(0, len(scan), rows):
                if not todo.size:
                    break
                hi, lo, col = deviations(ind[:, todo], bc[todo], scan[r0:r0 + rows])
                dev = np.where(high[todo], hi, lo)
                viol = dev > gamma
                j = np.flatnonzero(viol.any(axis=0))
                r = viol[:, j].argmax(axis=0)
                q = start + pend[todo[j]]
                order = np.argsort(col[r, j], axis=1, kind="stable")
                irregular[q], chan[q], deviation[q] = True, c, dev[r, j]
                a_in[q] = scan[r0 + r][:, None] >> shift & 1
                tail = np.where(high[todo[j], None], order[:, nb - b_min:], order[:, :b_min])
                b_in[q[:, None], tail] = True
                todo = np.delete(todo, j)
            pend = pend[~(high | low)]
    hit = np.flatnonzero(irregular)
    return hit, chan[hit], deviation[hit], a_in[hit], b_in[hit]


def _tails(scores: np.ndarray, count: int) -> np.ndarray:
    """Masks of the `count` highest entries of each (..., 0, :) score row
    and the `count` lowest of each (..., 1, :) row: the two tails of a
    stable argsort, ties going to the later position in the high tail and
    to the earlier one in the low tail.  One partition on the unique keys
    score * n + position selects them."""
    n = scores.shape[-1]
    key = scores.astype(np.int64) * n + np.arange(n)
    key[..., 0, :] *= -1
    return key <= np.partition(key, count - 1, axis=-1)[..., count - 1:count]


def _channel_counts(codes: np.ndarray, nch: int) -> np.ndarray:
    """Per-channel counts (P, nch) of a (P, ...) code tensor, one bincount."""
    P = codes.shape[0]
    flat = codes.reshape(P, -1) + (nch + 1) * np.arange(P)[:, None]
    return np.bincount(flat.ravel(), minlength=P * (nch + 1)).reshape(P, nch + 1)[:, 1:]


def _heuristic_batch(sub: np.ndarray, base: np.ndarray, a_min: int, b_min: int, gamma: float):
    """Degree-tail witness search on P same-shape pairs at once.

    A kernel of `_certify_pairs`, with gamma > 0.  All 2 * nch search
    lines (channel, then high and low tail) of all pairs run together: A'
    starts as the qualifying minimum of most extreme channel degrees into
    B; then B' is refined against A' and A' against B', in two rounds.
    Degrees are float32 products of 0/1 selection masks and channel
    indicators, exact as each sums at most max(|A|, |B|) < 2^24 ones; a
    candidate's counts in every channel come from one gather of its
    sub-block, so "irregular" is always sound.  The witness is the
    largest deviation above gamma, first in the order channel, tail,
    round.
    """
    P, na, nb = sub.shape
    nch = base.shape[1]
    onehot = np.empty((nch, P, na, nb), dtype=np.float32)
    np.equal(sub, np.arange(1, nch + 1, dtype=sub.dtype)[:, None, None, None], out=onehot, casting="unsafe")
    # search lines (channel, pair, tail): tail 0 is the high tail, 1 the low one
    a_sel = _tails(np.broadcast_to(onehot.sum(axis=3)[:, :, None], (nch, P, 2, na)), a_min)
    lines = (nch, P, 2)
    pair = np.arange(P)[:, None, None, None]
    devs, chans, a_sels, b_sels = [], [], [], []
    for _ in range(2):
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


def _single_cell_batch(sub: np.ndarray, base: np.ndarray, a_min: int, b_min: int, gamma: float):
    """`_heuristic_batch` in closed form when both qualifying minima are 1.

    Same arguments and the same hits.  Every tail then selects one
    vertex: the high tail the last vertex with the most channel-c edges
    into the other side's selection, the low tail the first with the
    fewest.  So a seed is an argmax of degrees, a round reads one row and
    then one column of the channel indicator, and each candidate is the
    single cell (a, b), whose deviation and first-argmax channel depend
    only on its code and come from a per-pair table of every code.
    """
    P, na, nb = sub.shape
    d, nch = base, base.shape[1]
    # a cell of code k deviates by 1 - d_k in channel k and by d_c elsewhere;
    # `other` is the first channel of the largest d_c over c != k
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
    for _ in range(2):
        b = pick(ind[c, pair, a])
        a = pick(ind[c, pair, :, b])
        code = sub[pair, a, b] - 1
        devs.append(cell_dev[pair, code])
        chans.append(cell_chan[pair, code])
        a_pos.append(a)
        b_pos.append(b)
    hit, chan, dev, a, b = _best_witnesses(gamma, devs, chans, a_pos, b_pos)
    return hit, chan, dev, np.arange(na) == a[:, None], np.arange(nb) == b[:, None]


def _witnesses(G, found) -> dict:
    """The witnesses of `_certify_pairs`' hits by pair position, group by
    group; tuples are built only here, for the callers that read them."""
    witnesses = {}
    for pos, A, B, (rows, chan, dev, a_in, b_in) in found:
        for h, p in enumerate(pos[rows].tolist()):
            a, b = A[rows[h]][a_in[h]].tolist(), B[rows[h]][b_in[h]].tolist()
            witnesses[p] = RegularityWitness(tuple(a), tuple(b), G._labels[chan[h]], float(dev[h]))
    return witnesses


def certify(
    G, A, B, gamma: float, method: str = "heuristic", exact_cap: int = _EXACT_SIDE_CAP
) -> RegularityReport:
    """Certify or refute gamma-regularity of (A, B) with the named method.

    "exact" decides the pair: the largest deviation over all qualifying
    sub-pairs is reached at the minimum qualifying sizes ceil(gamma|A|)
    and ceil(gamma|B|) (the lemma at `_exact_batch`), so it exhausts the
    A' of that size.  It raises above `exact_cap` vertices per side, and
    above 16 whatever the cap.  "heuristic" is the degree-tail witness
    search; it never answers "regular", and every witness it returns is
    recomputed from the counts of its sub-pair, so its "irregular" is
    sound and its other answer is "unknown".  "auto" answers "regular" at
    gamma >= 1, else runs exact when both sides fit the cap and the
    heuristic otherwise.  Only "irregular" refutes the pair.
    """
    gamma = _real(gamma, "gamma", 0)
    cap = min(_integer(exact_cap, "exact_cap", 0), _EXACT_MAX_SIDE)
    sides = _vertex_sets(G.n, (A, B), ("A", "B"))
    codes, found = _certify_pairs(G, sides, [0], [1], gamma, method, cap)
    return RegularityReport(gamma, _VERDICTS[codes[0]], _witnesses(G, found).get(0))


def _certify_pairs(
    G, blocks, ia, ib, gamma: float, method: str, cap: int = _EXACT_SIDE_CAP, limit: int | None = None
):
    """Certify the pairs (blocks[ia[p]], blocks[ib[p]]) with a `certify` method.

    The blocks are trusted sorted vertex sequences, the two sides of each
    pair disjoint, and gamma > 0.  Pairs are grouped by shape (|A|, |B|),
    in order of first appearance, and the method picks one batched kernel
    per shape; the heuristic runs `_single_cell_batch` when both
    qualifying minima are one vertex.  Each group is gathered once, and
    its kernel is called as `kernel(sub, base, a_min, b_min, gamma)` on
    the codes `sub` (P, |A|, |B|), their channel densities `base`
    (P, nch) and the minima; it returns the hits of the irregular
    pairs: their rows, witness channel indices and deviations, and A' and
    B' as (hits, |A|) and (hits, |B|) masks over the sides.  `cap` is a
    trusted side size within `_EXACT_MAX_SIDE`: "exact" raises and "auto"
    falls back to the heuristic above it.  Returns the verdict codes (indices
    into `_VERDICTS`) in pair order and, per kernel call, `(pos, A, B,
    hits)`: the pair positions, the sides and the kernel's hits, whose
    masks `_witnesses` and `decomposition._venn_refine` read in place.

    With an integer `limit` the call stops as soon as more than `limit`
    pairs are refuted: groups run in the same order, a kernel group in
    slices of `limit + 1` less the pairs refuted so far, then doubling, and
    the call returns the codes and None for the hits.  Pairs it did not
    reach keep the code -1, so tallies of those codes are lower bounds.
    """
    if method not in ("exact", "heuristic", "auto"):
        raise RegracutError(f"unknown certifier {method!r}")
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    sizes = np.fromiter(map(len, blocks), dtype=np.intp, count=len(blocks))
    codes = np.full(len(ia), -1, dtype=np.int8)
    found = []
    refuted = 0
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
        a_min, b_min = (_qualifying_min(gamma, s) for s in (na, nb))
        if method == "exact" or (method == "auto" and (fits or gamma >= 1)):
            default, kernel = _REG, _exact_batch
        elif max(a_min, b_min) == 1:
            default, kernel = _UNK, _single_cell_batch  # every tail selects one vertex
        else:
            default, kernel = _UNK, _heuristic_batch
        if a_min == na and b_min == nb:
            codes[pos] = default  # only the full pair qualifies, whose deviation from itself is zero
            continue
        step = len(pos) if limit is None else limit + 1 - refuted
        while pos.size:
            part, pos = pos[:step], pos[step:]
            A, B = mat[ia[part], :na], mat[ib[part], :nb]
            sub = G._mp1[A[:, :, None], B[:, None, :]]
            hits = kernel(sub, _channel_counts(sub, G._nch) / (na * nb), a_min, b_min, gamma)
            codes[part] = default
            codes[part[hits[0]]] = _IRR
            found.append((part, A, B, hits))
            refuted += len(hits[0])
            if limit is not None and refuted > limit:
                return codes, None
            step *= 2
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
    xs = np.array([_real(x, "each entry") for x in xs], dtype=np.float64)
    n = xs.size
    m = _integer(m, "m", 1, n - 1, BadM)
    if not np.isfinite(xs).all() or np.any(xs < 0):
        raise RegracutError("entries must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(xs.sum())
        alpha = float(xs[:m].sum() - m * total / n)
        lhs = float((xs ** 2).sum())
    rhs = total * total / n + alpha * alpha * n / (m * (n - m))
    if not np.isfinite([alpha, lhs, rhs]).all():
        raise RegracutError("entries too large: the check overflows float64")
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
    eps = _real(eps, "eps", 0)
    a, b = _vertex_sets(G.n, (A, B), ("A", "B"))
    # one set per call: overlapping sub-blocks fail the partition check below
    a_blocks = [_vertex_sets(G.n, [blk], [f"A sub-block {i}"])[0] for i, blk in enumerate(a_blocks)]
    b_blocks = [_vertex_sets(G.n, [blk], [f"B sub-block {i}"])[0] for i, blk in enumerate(b_blocks)]
    ell = len(a_blocks)
    if len(b_blocks) != ell:
        raise UnequalSubBlocks("both sides need the same number of sub-blocks")
    for blocks, whole, name in ((a_blocks, a, "A"), (b_blocks, b, "B")):
        if sorted(itertools.chain(*blocks)) != whole:
            raise BadPartition(f"sub-blocks do not partition {name}")
        if len({len(blk) for blk in blocks}) != 1:
            raise UnequalSubBlocks(f"sub-blocks of {name} differ in size")
    ci = _channel_index(G, channel)
    d_ab = float(_pair_densities(G, [a], [b])[0, ci])
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
