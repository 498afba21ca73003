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
    _certify_pairs,
    _disjoint_pair,
    _index_of,
    _matrix_plus1,
    _pair_densities,
    pair_density_tensor,
)
from .errors import BadPartition, GraphTooSmall, RegracutError, SliceTooSmall
from .partitions import Equipartition, _cut, equipartition, is_refinement


class EpsilonFunction:
    """Per-order tolerance schedule: a nonincreasing map k -> (0, 1).

    Built from a constant, the parametric form a/(k+1), or a table with a
    default tail.  Monotonicity and range are enforced at construction.
    """

    def __init__(self, table: dict[int, float] | None = None, default=None):
        if table is None and default is None:
            raise RegracutError("an epsilon function needs a table or a default")
        self.table = dict(sorted((int(k), float(v)) for k, v in (table or {}).items()))
        if callable(default) or default is None:
            self.default = default
        else:
            value = float(default)
            self.default = lambda k, _v=value: _v
        horizon = (max(self.table) if self.table else 0) + 16
        values = [self(k) for k in range(horizon + 1)]
        if any(not 0.0 < v < 1.0 for v in values):
            raise RegracutError("epsilon values must lie strictly between 0 and 1")
        if any(b > a for a, b in zip(values, values[1:])):
            raise RegracutError("epsilon function must be nonincreasing in k")

    def __call__(self, k: int) -> float:
        if k < 0:
            raise RegracutError(f"order must be nonnegative, got {k}")
        if k in self.table:
            return self.table[k]
        if self.default is None:
            raise RegracutError(f"no epsilon value for order {k}")
        return float(self.default(k))

    @classmethod
    def constant(cls, value: float) -> "EpsilonFunction":
        return cls(default=value)

    @classmethod
    def reciprocal(cls, a: float) -> "EpsilonFunction":
        """The parametric form a / (k + 1)."""
        return cls(default=lambda k: a / (k + 1))

    @classmethod
    def parse(cls, text: str) -> "EpsilonFunction":
        """Accepts a constant like "0.25" or exactly the form "a/(k+1)"."""
        text = text.strip().replace(" ", "")
        m = re.fullmatch(r"([0-9.eE+-]+)/\(k\+1\)", text)
        if m:
            return cls.reciprocal(float(m.group(1)))
        try:
            return cls.constant(float(text))
        except ValueError:
            raise RegracutError(f"cannot parse epsilon function {text!r}") from None


# ---------------------------------------------------------------------------
# pair certification
# ---------------------------------------------------------------------------

def _block_pairs(part: Equipartition):
    """(key, A, B) for every block pair i < j, keyed (i, j)."""
    return (
        ((i, j), part.blocks[i], part.blocks[j])
        for i, j in itertools.combinations(range(part.order), 2)
    )


# ---------------------------------------------------------------------------
# witness-driven refinement
# ---------------------------------------------------------------------------

def _venn_refine(part: Equipartition, reports, cap: int, seed: int) -> Equipartition | None:
    """Refine along witness subsets, realigned to an exact ell-fold split.

    Each block's vertices are grouped by their membership signature across
    the witness subsets collected for that block, concatenated in signature
    order, and sliced to the forced balanced part sizes.  Returns None when
    no split factor above 1 fits the smallest block or the cap.
    """
    k = part.order
    touching: list[list[set]] = [[] for _ in range(k)]
    for (i, j), rep in sorted(reports.items()):
        if rep.verdict != IRREGULAR or rep.witness is None:
            continue
        touching[i].append(set(rep.witness.a_prime))
        touching[j].append(set(rep.witness.b_prime))

    cells_per_block = []
    for i, block in enumerate(part.blocks):
        groups: dict[tuple, list[int]] = {}
        for v in block:
            sig = tuple(v in w for w in touching[i])
            groups.setdefault(sig, []).append(v)
        cells_per_block.append([groups[s] for s in sorted(groups, reverse=True)])

    ell = max(len(cells) for cells in cells_per_block)
    ell = min(ell, min(part.sizes()), cap // k if k else 0)
    if ell <= 1:
        return None

    rng = random.Random(seed)
    blocks = []
    for cells in cells_per_block:
        ordered = []
        for cell in cells:
            cell = list(cell)
            rng.shuffle(cell)
            ordered.extend(cell)
        blocks.extend(_cut(ordered, ell))
    return Equipartition(blocks, parent=[i for i in range(k) for _ in range(ell)])


def _compose_parents(inner: Equipartition, outer_parent: tuple[int, ...] | None) -> Equipartition:
    """Re-point `inner`'s parent indices through an extra refinement level."""
    if outer_parent is None or inner.parent is None:
        return inner
    parent = tuple(outer_parent[pi] for pi in inner.parent)
    return Equipartition(inner.blocks, parent=parent)


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
    start: Equipartition | None = None,
    exact_cap: int = 12,
) -> RegularizeResult:
    """Refine until at most eps * k^2 block pairs carry irregularity witnesses.

    Starts from a seeded equipartition of order m (or `start`).  The loop
    refines along witnesses while the index gains more than r * eps^4 / 64
    per pass and the order stays within `cap`; otherwise it returns the best
    partition found, flagged `stalled` or `cap_exceeded`.
    """
    if not 0 < eps < 1:
        raise RegracutError(f"eps must lie in (0, 1), got {eps}")
    if start is None:
        if not 1 <= m <= G.n:
            raise GraphTooSmall(f"order m={m} must lie in 1..{G.n}")
        start = equipartition(G.n, m, seed)
    elif start.n != G.n:
        raise BadPartition("start partition does not cover the graph's vertices")
    _, nch = _matrix_plus1(G)
    gain_floor = nch * eps ** 4 / 64
    max_iterations = math.floor(64 / (nch * eps ** 4)) + 1

    current = start
    trace = [_index_of(G, current)]
    relabel = None  # parent map of `current` relative to `start`
    last_pass = False
    for iteration in itertools.count(1):
        k = current.order
        reports, irregular, unknown = _certify_pairs(
            G, _block_pairs(current), eps, certifier, exact_cap
        )
        satisfied = len(irregular) <= eps * k * k
        if satisfied or last_pass or iteration >= max_iterations:
            return RegularizeResult(
                current, iteration, tuple(trace), irregular, unknown,
                satisfied=satisfied, stalled=not satisfied,
            )
        refined = _venn_refine(current, reports, cap, seed + iteration)
        if refined is None:
            capped = current.order * 2 > cap
            return RegularizeResult(
                current, iteration, tuple(trace), irregular, unknown,
                satisfied=False, stalled=not capped, cap_exceeded=capped,
            )
        refined = _compose_parents(refined, relabel)
        relabel = refined.parent
        gain = _index_of(G, refined) - trace[-1]
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


def _deviation_stats(G, coarse: Equipartition, fine: Equipartition, ell: int, eps: float):
    """Exact per-pair counts of density-deviating cross sub-pairs."""
    k = coarse.order
    top = pair_density_tensor(G, coarse)
    sub = pair_density_tensor(G, fine)
    bad: dict[tuple[int, int], int] = {}
    deviating = []
    for i in range(k):
        for j in range(i + 1, k):
            block = sub[i * ell:(i + 1) * ell, j * ell:(j + 1) * ell]
            devs = np.abs(block - top[i, j]).max(axis=2)
            count = int((devs >= eps).sum())
            bad[(i, j)] = count
            if count > eps * ell * ell:
                deviating.append((i, j))
    return bad, tuple(deviating)


def decompose(
    G,
    m: int,
    efun: EpsilonFunction,
    cap: int = 256,
    certifier: str = "heuristic",
    seed: int = 0,
    exact_cap: int = 12,
) -> DecompositionResult:
    """Chain regularity passes with shrinking tolerances; stop at small index gain.

    Stage 1 regularizes a fresh order-m equipartition at efun(0); stage i+1
    regularizes the previous partition of order k at 2 * efun(k) / k^2.  The
    chain stops at the first stage whose index gain is at most
    r * efun(0)^4 / 64 (or when refinement stalls at the cap) and returns
    the last two partitions along with exactly counted pair statistics.
    """
    if not 1 <= m <= G.n:
        raise GraphTooSmall(f"order m={m} must lie in 1..{G.n}")
    eps = efun(0)
    _, nch = _matrix_plus1(G)
    gain_floor = nch * eps ** 4 / 64
    max_stages = math.floor(64 / (nch * eps ** 4)) + 1

    first = regularize(G, m, eps, cap, certifier, seed, exact_cap=exact_cap)
    chain = [first.partition]
    trace = [_index_of(G, first.partition)]
    stalled = first.stalled
    cap_exceeded = first.cap_exceeded

    while True:
        prev = chain[-1]
        k = prev.order
        gamma_i = 2 * efun(k) / (k * k) if k > 1 else efun(k)
        base = Equipartition(prev.blocks, parent=tuple(range(k)))
        stage = regularize(
            G, k, gamma_i, cap, certifier, seed + len(chain), start=base,
            exact_cap=exact_cap,
        )
        cur = stage.partition
        chain.append(cur)
        trace.append(_index_of(G, cur))
        gain = trace[-1] - trace[-2]
        if gain <= gain_floor or len(chain) >= max_stages:
            stalled = stalled or (stage.stalled and gain > gain_floor)
            cap_exceeded = cap_exceeded or stage.cap_exceeded
            break
        if stage.stalled or stage.cap_exceeded:
            stalled = stalled or stage.stalled
            cap_exceeded = cap_exceeded or stage.cap_exceeded
            break

    coarse, fine = chain[-2], chain[-1]
    if fine.parent is None:
        fine = Equipartition(fine.blocks, parent=tuple(range(fine.order)))
    k = coarse.order
    ell = fine.order // k

    _, irregular_top, unknown_top = _certify_pairs(
        G, _block_pairs(coarse), eps, certifier, exact_cap
    )
    gamma_k = efun(k)
    sub_pairs = (
        ((i, ji, j, jj), fine.blocks[i * ell + ji], fine.blocks[j * ell + jj])
        for i, j in itertools.combinations(range(k), 2)
        for ji in range(ell)
        for jj in range(ell)
    )
    _, irregular_sub, unknown_sub = _certify_pairs(G, sub_pairs, gamma_k, certifier, exact_cap)

    bad, deviating = _deviation_stats(G, coarse, fine, ell, eps)
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
    return DecompositionResult(
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
    exact_cap: int = 12,
) -> SubclusterSelection:
    """Pick one sub-block per coarse block, minimizing (irregular, deviating).

    Evaluates uniform draws of one index per block -- every draw when
    ell^order fits within `trials`, otherwise `trials` seeded random draws --
    and keeps the lexicographically best quality; ties keep the first draw.
    """
    if trials < 1:
        raise RegracutError(f"trials must be positive, got {trials}")
    coarse, fine, ell = result.coarse, result.fine, result.ell
    k = coarse.order
    eps = efun(0)
    gamma_k = efun(k)
    top = pair_density_tensor(G, coarse)
    sub = pair_density_tensor(G, fine)

    exhaustive = ell ** k <= trials
    if exhaustive:
        draws = list(itertools.product(range(ell), repeat=k))
    else:
        rng = np.random.default_rng(seed)
        draws = [tuple(int(x) for x in rng.integers(0, ell, size=k)) for _ in range(trials)]

    top_pairs = list(itertools.combinations(range(k), 2))
    keys = dict.fromkeys(
        (i * ell + draw[i], j * ell + draw[j]) for draw in draws for i, j in top_pairs
    )
    reports, _, _ = _certify_pairs(
        G, ((key, fine.blocks[key[0]], fine.blocks[key[1]]) for key in keys),
        gamma_k, certifier, exact_cap,
    )

    def quality(draw):
        irregular = 0
        deviating = 0
        for i, j in top_pairs:
            bi = i * ell + draw[i]
            bj = j * ell + draw[j]
            irregular += reports[bi, bj].verdict == IRREGULAR
            deviating += bool(np.abs(sub[bi, bj] - top[i, j]).max() >= eps)
        return irregular, deviating

    # min keeps the first draw among equal qualities
    (irregular, deviating), chosen = min(
        ((quality(draw), draw) for draw in draws), key=lambda qd: qd[0]
    )
    blocks = tuple(fine.blocks[i * ell + chosen[i]] for i in range(k))
    return SubclusterSelection(
        chosen=chosen,
        blocks=blocks,
        irregular_pairs=irregular,
        deviating_pairs=deviating,
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


def verify_slicing(G, A, B, A_sub, B_sub, gamma: float, exact_cap: int = 12) -> SlicingReport:
    """Check the slicing conclusion on (A_sub, B_sub) inside (A, B).

    With slice fraction eps = min(|A_sub|/|A|, |B_sub|/|B|) >= gamma, the
    sliced pair should be max(2, 1/eps) * gamma regular with densities
    within gamma of the parent pair.  Regularity is certified with the
    "auto" method; an "unknown" verdict (the sliced pair is too large for
    the exact certifier) is counted as holding, flagged `caveat`.
    """
    if gamma <= 0:
        raise RegracutError(f"gamma must be positive, got {gamma}")
    A, B = set(A), set(B)
    A_sub, B_sub = set(A_sub), set(B_sub)
    if not A_sub <= A or not B_sub <= B:
        raise RegracutError("slices must be subsets of their sides")
    if not A_sub or not B_sub:
        raise SliceTooSmall("slices must be nonempty")
    eps = min(len(A_sub) / len(A), len(B_sub) / len(B))
    if eps < gamma:
        raise SliceTooSmall(f"slice fraction {eps} is below gamma {gamma}")
    eta = max(2.0, 1.0 / eps) * gamma
    a, b = _disjoint_pair(G, sorted(A), sorted(B))
    # the slices are subsets of the checked sides, so they need no check
    a_sub = np.array(sorted(int(v) for v in A_sub), dtype=np.intp)
    b_sub = np.array(sorted(int(v) for v in B_sub), dtype=np.intp)
    d_parent = _pair_densities(G, a[None], b[None])[0]
    d_slice = _pair_densities(G, a_sub[None], b_sub[None])[0]
    deviation = float(np.abs(d_slice - d_parent).max())
    reports, _, _ = _certify_pairs(G, [(None, a_sub, b_sub)], eta, "auto", exact_cap)
    regularity = reports[None].verdict
    holds = deviation <= gamma and regularity != IRREGULAR
    return SlicingReport(
        eta=eta, deviation=deviation, holds=holds, regularity=regularity,
        caveat=regularity == UNKNOWN,
    )
