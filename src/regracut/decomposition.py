"""Witness-driven regularity decomposition of a graph's vertex set.

The refinement loop certifies every block pair at the current tolerance,
intersects blocks with the Venn cells of the collected witness subsets,
realigns the cells to an exact balanced refinement, and repeats while the
mean-square density index keeps growing by more than r * eps^4 / 64 and the
order stays within the cap.  A decomposition chains such passes with
shrinking per-stage tolerances and stops at the first small index gain,
returning the last two partitions of the chain.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

from .density import (
    IRREGULAR,
    UNKNOWN,
    _IRR,
    _UNK,
    _VERDICTS,
    _certify_pairs,
    _pair_densities,
    _tensor_index,
    pair_density_tensor,
)
from .errors import BadPartition, GraphTooSmall, RegracutError, SliceTooSmall, _integer, _real
from .partitions import Equipartition, _cut, _vertex_sets, equipartition, is_refinement


class EpsilonFunction:
    """Per-order tolerance schedule: a nonincreasing map k -> (0, 1).

    Built from a constant, the parametric form a/(k+1), or a table with a
    default tail.  Monotonicity and range are enforced at construction.
    """

    def __init__(self, table: dict[int, float] | None = None, default=None):
        if default is None:
            raise RegracutError("an epsilon function needs a default tail")
        self.table = dict(sorted(
            (_integer(k, "order", 0), _real(v, "epsilon value")) for k, v in (table or {}).items()))
        if callable(default):
            self.default = default
        else:
            value = _real(default, "epsilon value")
            self.default = lambda k, _v=value: _v
        # with a nonincreasing tail, these orders decide range and monotonicity
        top = max(self.table, default=0)
        orders = {*range(17), *range(top + 1, top + 17)} | {k + d for k in self.table for d in (-1, 0, 1)}
        values = [self(k) for k in sorted(orders - {-1})]
        if any(not 0.0 < v < 1.0 for v in values):
            raise RegracutError("epsilon values must lie strictly between 0 and 1")
        if any(b > a for a, b in zip(values, values[1:])):
            raise RegracutError("epsilon function must be nonincreasing in k")

    def __call__(self, k: int) -> float:
        k = _integer(k, "order", 0)
        if k in self.table:
            return self.table[k]
        return _real(self.default(k), "epsilon value")

    @classmethod
    def constant(cls, value: float) -> "EpsilonFunction":
        return cls(default=value)

    @classmethod
    def reciprocal(cls, a: float) -> "EpsilonFunction":
        """The parametric form a / (k + 1)."""
        a = _real(a, "a")
        return cls(default=lambda k: a / (k + 1))

    @classmethod
    def parse(cls, text: str) -> "EpsilonFunction":
        """Accepts a constant like "0.25" or exactly the form "a/(k+1)"."""
        text = text.strip().replace(" ", "")
        m = re.fullmatch(r"([0-9.eE+-]+)/\(k\+1\)", text)
        try:
            value = float(m.group(1) if m else text)
        except ValueError:
            raise RegracutError(f"cannot parse epsilon function {text!r}") from None
        return cls.reciprocal(value) if m else cls.constant(value)


# ---------------------------------------------------------------------------
# pair certification
# ---------------------------------------------------------------------------

def _tally(codes: np.ndarray, *index: np.ndarray):
    """The irregular pairs' keys (one entry per index array, broadcast
    against `codes`, in pair order) and the number of "unknown" codes."""
    hit = codes == _IRR
    keys = tuple(zip(*(np.broadcast_to(x, codes.shape)[hit].tolist() for x in index)))
    return keys, int(np.count_nonzero(codes == _UNK))


# ---------------------------------------------------------------------------
# witness-driven refinement
# ---------------------------------------------------------------------------

def _venn_refine(part: Equipartition, pairs, found, cap: int, seed: int, base: int) -> Equipartition | None:
    """Refine along witness subsets, realigned to an exact ell-fold split.

    `found` holds the hits of the refuted `pairs` as `_certify_pairs`
    returns them; the hit of `pairs[q]`, q its rank by pair position, has
    its A' and B' masks as sides 2q and 2q + 1.  Each block's vertices
    are grouped by their membership signature across the witness subsets
    collected for that block, concatenated in descending signature
    order, and sliced to the forced balanced part sizes.  Like `part`, the
    result is parent-major over a start partition of order `base`.
    Returns None when no split factor above 1 fits the smallest block or
    the cap.
    """
    k = part.order
    sizes = part.sizes()
    # Side q of the witnesses lies in block owner[q] and is bit local[q] of
    # that block's signatures: the number of earlier sides the block owns.
    owner = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.intp)
    by_owner = np.argsort(owner, kind="stable")
    local = np.empty_like(owner)
    local[by_owner] = np.arange(len(owner)) - np.searchsorted(owner[by_owner], owner[by_owner])
    member = np.zeros((part.n, local.max() + 1 if len(local) else 0), dtype=bool)
    refuted = np.sort(np.concatenate([pos[rows] for pos, _, _, (rows, *_) in found] or [[]]))
    for pos, A, B, (rows, _, _, a_in, b_in) in found:
        q = np.searchsorted(refuted, pos[rows])
        member[A[rows][a_in], np.repeat(local[2 * q], a_in.sum(axis=1))] = True
        member[B[rows][b_in], np.repeat(local[2 * q + 1], b_in.sum(axis=1))] = True

    # one row per vertex, block by block: the block, then the negated
    # signature, so that signatures sort descending; ties keep vertex order
    verts = np.fromiter(itertools.chain.from_iterable(part.blocks), dtype=np.intp, count=part.n)
    key = np.column_stack((np.repeat(np.arange(k), sizes), ~member[verts]))
    order = np.lexsort(key.T[::-1])
    verts, key = verts[order], key[order]
    starts = np.flatnonzero(np.r_[True, (key[1:] != key[:-1]).any(axis=1)])

    ell = int(np.bincount(key[starts, 0]).max())
    ell = min(ell, min(sizes), cap // k)
    if ell <= 1:
        return None

    rng = random.Random(seed)
    verts = verts.tolist()
    bounds = starts.tolist() + [part.n]
    ordered = [[] for _ in range(k)]
    for b, lo, hi in zip(key[starts, 0].tolist(), bounds, bounds[1:]):
        cell = verts[lo:hi]
        rng.shuffle(cell)
        ordered[b].extend(cell)
    blocks = [piece for vertices in ordered for piece in _cut(vertices, ell)]
    return Equipartition(blocks, parent=[b // (k * ell // base) for b in range(k * ell)])


@dataclass(frozen=True)
class RegularizeResult:
    partition: Equipartition
    iterations: int
    index_trace: tuple[float, ...]
    irregular_pairs: tuple[tuple[int, int], ...]
    unknown_pairs: int
    satisfied: bool
    stalled: bool = False
    cap_exceeded: bool = False


def regularize(
    G,
    m: int,
    eps: float,
    cap: int = 256,
    certifier: str = "heuristic",
    seed: int = 0,
) -> RegularizeResult:
    """Refine until at most eps * k^2 block pairs carry irregularity witnesses.

    Starts from a seeded equipartition of order m.  The loop refines along
    witnesses while the index gains more than r * eps^4 / 64 per pass and
    the order stays within `cap`; otherwise it returns the best partition
    found, flagged `stalled` or `cap_exceeded`: the start partition itself
    if no pass refined it, else parent-major, `parent[b]` the start block
    of b.
    """
    start = equipartition(G.n, _integer(m, "order m", 1, G.n, GraphTooSmall), seed)
    return _regularize(G, start, eps, cap, certifier, seed)[0]


def _gain_floor(nch: int, eps: float) -> float:
    """The index gain nch * eps^4 / 64 at or below which a chain stops.  As
    every index is below 1/2, a chain has at most ceil(32 / (nch * eps^4))
    + 1 passes or stages; at a floor of 0 (eps^4 underflows) the cap ends it."""
    return nch * eps ** 4 / 64


def _regularize(G, start, eps, cap, certifier, seed, dens=None, settle=False):
    """`regularize` from a start partition that covers G and, when known,
    its density tensor `dens`; returns the result, and the density tensor
    and `triu_indices`-order pair codes of its partition.

    A pass cannot refine when it is the last pass (after a gain of at
    most `_gain_floor`), when cap // k < 2, or when a block has fewer than
    2 vertices.  With `settle`, such a pass stops certifying as soon as
    more than eps * k^2 pairs are refuted: its verdict, flags and
    partition are those of the full pass, but its codes, irregular pairs
    and unknown count are only lower bounds, so a caller that reads them
    must not settle."""
    eps = _real(eps, "eps", 0, 1)
    cap, seed = _integer(cap, "cap", 1), _integer(seed, "seed", 0)
    if dens is None:
        dens = pair_density_tensor(G, start)
    gain_floor = _gain_floor(G._nch, eps)

    current = start
    trace = [_tensor_index(dens)]
    last_pass = False
    for iteration in itertools.count(1):
        k = current.order
        stuck = last_pass or cap // k < 2 or min(current.sizes()) < 2
        iu, ju = np.triu_indices(k, 1)
        limit = math.floor(eps * k * k) if settle and stuck else None
        codes, found = _certify_pairs(G, current.blocks, iu, ju, eps, certifier, limit=limit)
        irregular, unknown = _tally(codes, iu, ju)
        satisfied = len(irregular) <= eps * k * k
        refined = None if satisfied or stuck else _venn_refine(
            current, irregular, found, cap, seed + iteration, start.order)
        if refined is None:
            capped = not (satisfied or last_pass) and 2 * k > cap
            return RegularizeResult(
                current, iteration, tuple(trace), irregular, unknown,
                satisfied=satisfied, stalled=not (satisfied or capped), cap_exceeded=capped,
            ), dens, codes
        dens = pair_density_tensor(G, refined)
        gain = _tensor_index(dens) - trace[-1]
        trace.append(trace[-1] + gain)
        current = refined
        last_pass = gain <= gain_floor


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairStats:
    """Exactly counted pair diagnostics for a decomposition.

    `deviation_bad_subpairs[(i, j)]` counts cross sub-pairs of (V_i, V_j)
    whose density vector strays from d(V_i, V_j) by at least eps in some
    channel; a top pair is "deviating" when that count exceeds eps * ell^2.
    """

    irregular_top: tuple[tuple[int, int], ...]
    unknown_top: int
    irregular_sub: tuple[tuple[int, int, int, int], ...]
    unknown_sub: int
    deviation_bad_subpairs: dict[tuple[int, int], int]
    deviating_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DecompositionResult:
    coarse: Equipartition
    fine: Equipartition
    ell: int
    iterations: int
    index_trace: tuple[float, ...]
    pair_stats: PairStats | None = None
    bullets: dict = field(default_factory=dict)
    stalled: bool = False
    cap_exceeded: bool = False

    def __post_init__(self):
        if self.fine.order != self.coarse.order * self.ell:
            raise BadPartition("fine order must be coarse order times ell")
        if self.ell > 1 or self.fine.parent is not None:
            if not is_refinement(self.fine, self.coarse):
                raise BadPartition("fine partition does not refine the coarse one")
            if any(pi != b // self.ell for b, pi in enumerate(self.fine.parent)):
                raise BadPartition("fine blocks must be listed parent-major")


def _subpair_deviations(top: np.ndarray, fine: np.ndarray, ell: int) -> np.ndarray:
    """Entry [i, a, j, b]: max-norm deviation of d(fine[i * ell + a],
    fine[j * ell + b]) from d(coarse[i], coarse[j]), from the density
    tensors of the coarse and the parent-major fine partition."""
    k = len(top)
    sub = fine.reshape(k, ell, k, ell, -1)
    return np.abs(sub - top[:, None, :, None]).max(axis=4)


def _subpair_table(G, coarse_dens, fine, fine_dens, ell, gamma, certifier):
    """Every cross sub-pair of the parent-major `fine`, certified once:
    codes[q, a, b] is the verdict code at gamma of (fine[i * ell + a],
    fine[j * ell + b]) for the q-th top pair (i, j) of `np.triu_indices`,
    and devs the `_subpair_deviations` array of the two density tensors."""
    iu, ju = np.triu_indices(len(coarse_dens), 1)
    shape = (len(iu), ell, ell)
    ia = np.broadcast_to(iu[:, None, None] * ell + np.arange(ell)[:, None], shape).ravel()
    ib = np.broadcast_to(ju[:, None, None] * ell + np.arange(ell), shape).ravel()
    codes, _ = _certify_pairs(G, fine.blocks, ia, ib, gamma, certifier)
    return codes.reshape(shape), _subpair_deviations(coarse_dens, fine_dens, ell)


def _deviation_stats(devs: np.ndarray, eps: float):
    """Exact per-pair counts of density-deviating cross sub-pairs, from
    the `_subpair_deviations` array."""
    ell = devs.shape[1]
    counts = (devs >= eps).sum(axis=(1, 3))
    iu, ju = np.triu_indices(len(devs), 1)
    bad = dict(zip(zip(iu.tolist(), ju.tolist()), counts[iu, ju].tolist()))
    deviating = tuple(pair for pair, count in bad.items() if count > eps * ell * ell)
    return bad, deviating


def decompose(
    G,
    m: int,
    efun: EpsilonFunction,
    cap: int = 256,
    certifier: str = "heuristic",
    seed: int = 0,
) -> DecompositionResult:
    """Chain regularity passes with shrinking tolerances; stop at small index gain.

    Stage 1 regularizes a fresh order-m equipartition at efun(0); stage i+1
    regularizes the previous partition of order k at 2 * efun(k) / k^2.  The
    chain stops at the first stage whose index gain is at most
    r * efun(0)^4 / 64 (or when refinement stalls at the cap) and returns
    the last two partitions along with exactly counted pair statistics.
    The fine blocks are parent-major: `fine.parent[b]` is b // ell.  Each
    pair is certified once: a two-stage chain keeps stage 1's top-pair
    verdicts, and the result keeps the sub-pair verdicts and deviations
    for `select_subclusters` with an equal graph, efun(k) and certifier.
    Stages after the first are read only for their partition and flags,
    so a pass of theirs that cannot refine (see `_regularize`) settles:
    it stops certifying once more than gamma * k^2 pairs are refuted, and
    its verdict counts are only lower bounds.
    """
    m = _integer(m, "order m", 1, G.n, GraphTooSmall)
    eps = efun(0)
    gain_floor = _gain_floor(G._nch, eps)

    first, dens, codes = _regularize(G, equipartition(G.n, m, seed), eps, cap, certifier, seed)
    chain = [first.partition]
    # each stage hands the density tensor of its partition on, so every
    # tensor is built once; the trace keeps the indices counted from them
    trace = [_tensor_index(dens)]

    while True:
        prev = chain[-1]
        k = prev.order
        gamma_i = 2 * efun(k) / (k * k) if k > 1 else efun(k)
        coarse_dens = dens
        stage, dens, _ = _regularize(G, prev, gamma_i, cap, certifier, seed + len(chain), coarse_dens,
                                     settle=True)
        chain.append(stage.partition)
        trace.append(_tensor_index(dens))
        gain = trace[-1] - trace[-2]
        if gain <= gain_floor or stage.stalled or stage.cap_exceeded:
            break
    stalled = first.stalled or (stage.stalled and gain > gain_floor)
    cap_exceeded = first.cap_exceeded or stage.cap_exceeded

    coarse, fine = chain[-2], chain[-1]
    k = coarse.order
    ell = fine.order // k
    if fine is coarse:  # the last stage kept its start partition
        fine = Equipartition(coarse.blocks, parent=range(k))

    iu, ju = np.triu_indices(k, 1)
    if len(chain) > 2:  # only stage 1 certified at eps, and it ended on the first partition
        codes, _ = _certify_pairs(G, coarse.blocks, iu, ju, eps, certifier)
    irregular_top, unknown_top = _tally(codes, iu, ju)
    gamma_k = efun(k)
    if ell == 1 and gamma_k == eps:  # the sub-pairs are the top pairs, certified above
        table = codes.reshape(-1, 1, 1), _subpair_deviations(coarse_dens, dens, 1)
    else:
        table = _subpair_table(G, coarse_dens, fine, dens, ell, gamma_k, certifier)
    codes, devs = table
    irregular_sub, unknown_sub = _tally(
        codes, iu[:, None, None], np.arange(ell)[:, None], ju[:, None, None], np.arange(ell)
    )
    bad, deviating = _deviation_stats(devs, eps)
    stats = PairStats(
        irregular_top=irregular_top,
        unknown_top=unknown_top,
        irregular_sub=irregular_sub,
        unknown_sub=unknown_sub,
        deviation_bad_subpairs=bad,
        deviating_pairs=deviating,
    )
    bullets = {
        "order_at_least_m": k >= min(m, G.n),
        "top_pairs_regular": len(irregular_top) <= eps * k * (k - 1) / 2,
        "sub_pairs_regular": len(irregular_sub) <= gamma_k * ell * ell,
        "densities_stable": len(deviating) <= eps * k * (k - 1) / 2,
    }
    result = DecompositionResult(
        coarse=coarse,
        fine=fine,
        ell=ell,
        iterations=len(chain),
        index_trace=tuple(trace),
        pair_stats=stats,
        bullets=bullets,
        stalled=stalled,
        cap_exceeded=cap_exceeded,
    )
    # not a field: `select_subclusters` with the same key reads this table
    object.__setattr__(result, "_subpair_table", ((G, gamma_k, certifier), table))
    return result


# ---------------------------------------------------------------------------
# subcluster selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubclusterSelection:
    chosen: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    irregular_pairs: int
    deviating_pairs: int
    draws: int
    min_block_fraction: float


def select_subclusters(
    G,
    result: DecompositionResult,
    efun: EpsilonFunction,
    trials: int = 20,
    seed: int = 0,
    certifier: str = "heuristic",
) -> SubclusterSelection:
    """Pick one sub-block per coarse block, minimizing (irregular, deviating).

    Evaluates uniform draws of one index per block -- every draw when
    ell^order fits within `trials`, otherwise `trials` seeded random draws --
    and keeps the lexicographically best quality; ties keep the first draw.
    Sub-block a of block i is fine block i * ell + a.  Draws are scored
    from `decompose`'s sub-pair table when G, efun(order) and `certifier`
    equal its own, else by certifying only the sub-pairs the draws touch.
    """
    trials, seed = _integer(trials, "trials", 1), _integer(seed, "seed", 0)
    coarse, fine, ell = result.coarse, result.fine, result.ell
    k = coarse.order
    eps = efun(0)
    gamma_k = efun(k)
    if ell ** k <= trials:
        draws = np.array(list(itertools.product(range(ell), repeat=k)), dtype=np.intp)
    else:
        rng = np.random.default_rng(seed)
        draws = np.array([rng.integers(0, ell, size=k) for _ in range(trials)], dtype=np.intp)

    iu, ju = np.triu_indices(k, 1)
    # entry [d, q] is the flat (q, a, b) index of the sub-pair draw d picks in top pair q
    touched = (np.arange(len(iu)) * ell + draws[:, iu]) * ell + draws[:, ju]
    kept, table = getattr(result, "_subpair_table", (None, None))
    if kept == (G, gamma_k, certifier):
        codes, devs = table
        verdicts = codes.ravel()[touched]
    else:  # certify only the sub-pairs the draws touch
        devs = _subpair_deviations(pair_density_tensor(G, coarse), pair_density_tensor(G, fine), ell)
        distinct, inverse = np.unique(touched, return_inverse=True)
        q, a, b = np.unravel_index(distinct, (len(iu), ell, ell))
        codes, _ = _certify_pairs(G, fine.blocks, iu[q] * ell + a, ju[q] * ell + b, gamma_k, certifier)
        verdicts = codes[inverse.reshape(touched.shape)]
    irregular = (verdicts == _IRR).sum(axis=1)
    deviating = (devs[iu, draws[:, iu], ju, draws[:, ju]] >= eps).sum(axis=1)
    # the lexicographically least quality; the sort is stable, so ties keep the first draw
    best = int(np.lexsort((deviating, irregular))[0])
    chosen = tuple(draws[best].tolist())
    blocks = tuple(fine.blocks[i * ell + chosen[i]] for i in range(k))
    return SubclusterSelection(
        chosen=chosen,
        blocks=blocks,
        irregular_pairs=int(irregular[best]),
        deviating_pairs=int(deviating[best]),
        draws=len(draws),
        min_block_fraction=min(len(b) for b in blocks) / G.n,
    )


# ---------------------------------------------------------------------------
# slicing check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlicingReport:
    eta: float
    deviation: float
    holds: bool
    regularity: str
    caveat: bool


def verify_slicing(G, A, B, A_sub, B_sub, gamma: float) -> SlicingReport:
    """Check the slicing conclusion on (A_sub, B_sub) inside (A, B).

    With slice fraction eps = min(|A_sub|/|A|, |B_sub|/|B|) >= gamma, the
    sliced pair should be max(2, 1/eps) * gamma regular with densities
    within gamma of the parent pair.  Regularity is certified with the
    "auto" method; an "unknown" verdict (the sliced pair is too large for
    the exact certifier) is counted as holding, flagged `caveat`.
    """
    gamma = _real(gamma, "gamma", 0)
    # an empty side has an empty slice, refused as too small below
    a, b = _vertex_sets(G.n, (A, B), ("A", "B"), empty_ok=True)
    A_sub, B_sub = list(A_sub), list(B_sub)
    if not np.isin(A_sub, a).all() or not np.isin(B_sub, b).all():
        raise RegracutError("slices must be subsets of their sides")
    # so the slices are in range and disjoint; only a repeat is left to find
    a_sub, b_sub = _vertex_sets(G.n, (A_sub, B_sub), ("A_sub", "B_sub"), empty_ok=True)
    if not a_sub or not b_sub:
        raise SliceTooSmall("slices must be nonempty")
    eps = min(len(a_sub) / len(a), len(b_sub) / len(b))
    if eps < gamma:
        raise SliceTooSmall(f"slice fraction {eps} is below gamma {gamma}")
    eta = max(2.0, 1.0 / eps) * gamma
    d_parent = _pair_densities(G, [a], [b])[0]
    d_slice = _pair_densities(G, [a_sub], [b_sub])[0]
    deviation = float(np.abs(d_slice - d_parent).max())
    codes, _ = _certify_pairs(G, (a_sub, b_sub), [0], [1], eta, "auto")
    regularity = _VERDICTS[codes[0]]
    holds = deviation <= gamma and regularity != IRREGULAR
    return SlicingReport(
        eta=eta, deviation=deviation, holds=holds, regularity=regularity,
        caveat=regularity == UNKNOWN,
    )
