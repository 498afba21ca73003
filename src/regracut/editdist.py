"""Pair-recoloring distance to a forbidden-pattern-free property.

The distance between two graphs on a shared vertex set counts the unordered
pairs whose color or arrow state differs.  The distance from a graph to the
property of admitting no induced copy of any family member is found exactly
by iterative-deepening branch and bound: every surviving copy must lose at
least one of its pairs, so branching over a single found copy is complete.
Template fitting gives certified upper bounds on the same quantity.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .density import (
    IRREGULAR,
    _certify_pairs,
    _matrix_plus1,
    _pair_densities,
    _pair_sides,
    channel_labels,
)
from .errors import (
    KindMismatch,
    OverlappingSets,
    RegracutError,
    SizeMismatch,
    TooLargeForExact,
)
from .graphs import (
    DIGRAPH_STATES,
    STATE_BACK,
    STATE_BI,
    STATE_FWD,
    STATE_NONE,
    STATE_CODES,
    ColoredGraph,
    Digraph,
    P0,
    _FLIP_CODE,
)
from .typegraphs import (
    RTYPE,
    ForbiddenFamily,
    TypeGraph,
    _first_avoiding,
    _LabelCodec,
)


def _same_kind(G, H) -> None:
    if isinstance(G, ColoredGraph) != isinstance(H, ColoredGraph):
        raise KindMismatch("cannot compare a colored graph with a digraph")
    if isinstance(G, ColoredGraph) and G.r != H.r:
        raise KindMismatch(f"color counts differ: {G.r} vs {H.r}")


def _check_kind(G, kind, r, what: str) -> None:
    if (kind == RTYPE) != isinstance(G, ColoredGraph):
        raise KindMismatch(f"{what} kind does not match the graph")
    if kind == RTYPE and r != G.r:
        raise KindMismatch(f"{what} color count does not match the graph")


def edit_distance(G, H) -> int:
    """Number of unordered pairs on which the two graphs disagree."""
    _same_kind(G, H)
    if G.n != H.n:
        raise SizeMismatch(f"vertex counts differ: {G.n} vs {H.n}")
    iu = np.triu_indices(G.n, k=1)
    return int(np.count_nonzero(G.matrix[iu] != H.matrix[iu]))


def find_induced_copy(G, H) -> tuple | None:
    """Injective vertex map realizing H inside G exactly, or None.

    Every pair of the image must carry the same color (digraphs: the same
    ordered state) as the corresponding pair of H.
    """
    _same_kind(G, H)
    return _induced_copy(_matrix_plus1(G)[0].tolist(), _matrix_plus1(H)[0].tolist())


def _induced_copy(mg: list, mh: list) -> tuple | None:
    """`find_induced_copy` on trusted shifted-code rows of G and of H."""
    n, h = len(mg), len(mh)
    if h > n:
        return None
    assign = [-1] * h
    used = [False] * n

    def extend(v: int) -> bool:
        if v == h:
            return True
        for w in range(n):
            if used[w]:
                continue
            if all(mg[assign[x]][w] == mh[x][v] for x in range(v)):
                assign[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                assign[v] = -1
        return False

    if extend(0):
        return tuple(assign)
    return None


def has_induced_copy(G, H) -> bool:
    return find_induced_copy(G, H) is not None


def distance_to_property(G, family: ForbiddenFamily, cap: int | None = None):
    """Minimum number of pair recolorings ridding G of every family member.

    Returns (distance, witness graph).  Iterative deepening: at each budget
    the search finds one induced copy and branches over recoloring each of
    its pairs to each alternative value, never touching a pair twice, which
    is complete because an optimal witness disagrees with the current graph
    somewhere inside every copy the current graph still contains.
    """
    _check_kind(G, family.kind, family.r, "family")
    colored = isinstance(G, ColoredGraph)
    if cap is None:
        cap = 7 if colored else 6
    if G.n > cap:
        raise TooLargeForExact(f"n={G.n} exceeds the exact-search cap {cap}")

    # Recolored in place: m[u][v] is the shifted code of (u, v) read from u,
    # and mirror[code] the code of the same pair read from v.
    mp1, nch = _matrix_plus1(G)
    m = mp1.tolist()
    mirror = list(range(nch + 1)) if colored else [0, *(_FLIP_CODE + 1).tolist()]
    patterns = [_matrix_plus1(H)[0].tolist() for H in family]

    def search(budget: int, touched: set) -> bool:
        image = next(
            (img for mh in patterns if (img := _induced_copy(m, mh)) is not None), None
        )
        if image is None:
            return True
        if budget == 0:
            return False
        for u, v in itertools.combinations(sorted(image), 2):
            if (u, v) in touched:
                continue
            touched.add((u, v))
            current = m[u][v]
            for code in range(1, nch + 1):
                if code == current:
                    continue
                m[u][v], m[v][u] = code, mirror[code]
                if search(budget - 1, touched):
                    return True  # m now holds the witness
            m[u][v], m[v][u] = current, mirror[current]
            touched.discard((u, v))
        return False

    max_budget = G.n * (G.n - 1) // 2
    for budget in range(max_budget + 1):
        if search(budget, set()):
            if colored:
                return budget, ColoredGraph(G.n, G.r, m)
            return budget, Digraph(G.n, np.array(m) - 1)
    raise RegracutError(
        "no recoloring on this vertex count avoids the family; "
        "the target property is empty here"
    )


@dataclass(frozen=True)
class FitResult:
    graph: object
    cost: int
    assignment: tuple


def _balanced_assignment(n: int, k: int) -> list[int]:
    return [v * k // n for v in range(n)]


def _dir_fiber_target(state: str, label: frozenset) -> str:
    """Conformant state for a within-fiber pair currently in `state`; single
    arrows are oriented low-to-high when only one direction is allowed."""
    has_fwd = STATE_FWD in label
    has_back = STATE_BACK in label
    if state == STATE_NONE and STATE_NONE in label:
        return state
    if state == STATE_BI and STATE_BI in label:
        return state
    if state in (STATE_FWD, STATE_BACK) and (has_fwd or has_back):
        if has_fwd and has_back:
            return state
        return STATE_FWD
    if STATE_NONE in label:
        return STATE_NONE
    if STATE_BI in label:
        return STATE_BI
    return STATE_FWD


def _fit_once(G, K: TypeGraph, assign: list[int]):
    m = G.matrix.copy()
    if K.kind == RTYPE:
        for u in range(G.n):
            for v in range(u + 1, G.n):
                allowed = K.phi(assign[u], assign[v])
                if m[u, v] not in allowed:
                    m[u, v] = m[v, u] = min(allowed)
        return ColoredGraph(G.n, G.r, m)
    for u in range(G.n):
        for v in range(u + 1, G.n):
            state = DIGRAPH_STATES[m[u, v]]
            if assign[u] == assign[v]:
                target = _dir_fiber_target(state, K.self_labels[assign[u]])
            else:
                allowed = K.phi(assign[u], assign[v])
                if state in allowed:
                    target = state
                else:
                    target = next(s for s in DIGRAPH_STATES if s in allowed)
            code = STATE_CODES[target]
            m[u, v] = code
            m[v, u] = _FLIP_CODE[code]
    return Digraph(G.n, m)


def fit_to_type(G, K: TypeGraph, assignment="balanced", trials: int = 10, seed: int = 0) -> FitResult:
    """Cheapest conformant recoloring of G for a fiber assignment.

    assignment is "balanced" (contiguous slices in vertex order), an explicit
    vertex-to-template-vertex sequence, or "best_of", which tries `trials`
    seeded random balanced assignments and keeps the cheapest (first wins
    ties).  Cross-fiber pairs keep their value when allowed and otherwise
    take the first allowed value in canonical order; fibers follow the
    template vertex's own label, single arrows oriented by vertex index.
    """
    _check_kind(G, K.kind, K.r, "template")
    if isinstance(assignment, str) and assignment == "best_of":
        if trials < 1:
            raise RegracutError("best_of needs at least one trial")
        rng = random.Random(seed)
        best = None
        for _ in range(trials):
            order = list(range(G.n))
            rng.shuffle(order)
            assign = [0] * G.n
            for slot, v in enumerate(order):
                assign[v] = slot * K.k // G.n
            fitted = _fit_once(G, K, assign)
            cost = edit_distance(G, fitted)
            if best is None or cost < best.cost:
                best = FitResult(graph=fitted, cost=cost, assignment=tuple(assign))
        return best
    if isinstance(assignment, str):
        if assignment != "balanced":
            raise RegracutError(f"unknown assignment mode {assignment!r}")
        assign = _balanced_assignment(G.n, K.k)
    else:
        assign = [int(x) for x in assignment]
        if len(assign) != G.n:
            raise SizeMismatch("assignment length does not match the vertex count")
        if any(not 0 <= x < K.k for x in assign):
            raise RegracutError("assignment targets a missing template vertex")
    fitted = _fit_once(G, K, assign)
    return FitResult(graph=fitted, cost=edit_distance(G, fitted), assignment=tuple(assign))


@dataclass(frozen=True)
class ConstructResult:
    """Outcome of building a template from certified block data."""

    type: TypeGraph | None
    failure: str | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.type is not None


EMPTY_EDGE_LABEL = "empty_edge_label"
NO_VALID_VERTEX_LABELS = "no_valid_vertex_labels"


def construct_type_from_partition(
    G,
    blocks,
    delta: float,
    efun,
    family: ForbiddenFamily,
    certifier: str = "heuristic",
    palette=None,
    exact_cap: int = 12,
) -> ConstructResult:
    """Template whose pair labels hold the certified dense colors of the
    given blocks, with fiber labels found by exhaustive search.

    A color joins the label of pair (i, j) when `certify` with the named
    certifier does not find the block pair irregular at efun(k) and its
    density is at least delta.  Fiber labels are the lexicographically
    first assignment of nonempty proper subsets making the template admit
    no family member; both failure modes are reported, not raised.
    """
    blocks = [sorted(int(v) for v in b) for b in blocks]
    k = len(blocks)
    if k < 1:
        raise RegracutError("need at least one block")
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise RegracutError("blocks must be nonempty")
        if seen.intersection(b):
            raise OverlappingSets("blocks overlap")
        seen.update(b)
    _check_kind(G, family.kind, family.r, "family")
    gamma = efun(k)
    labels = channel_labels(G)
    pal = P0 if palette is None else palette
    codec = _LabelCodec(G.r if isinstance(G, ColoredGraph) else pal)

    if k > 1:
        blocks = _pair_sides(G, blocks, gamma)

    pair_masks = []
    for i in range(k):
        for j in range(i + 1, k):
            pair = [(None, blocks[i], blocks[j])]
            reports, _, _ = _certify_pairs(G, pair, gamma, certifier, exact_cap)
            certified = reports[None].verdict != IRREGULAR
            dens = _pair_densities(G, blocks[i][None], blocks[j][None])[0]
            label = frozenset(
                lab for idx, lab in enumerate(labels)
                if certified and dens[idx] >= delta
            )
            if not label <= set(codec.elements) or not label:
                why = "is dense outside the palette" if label else "offers no certified dense color"
                return ConstructResult(
                    type=None, failure=EMPTY_EDGE_LABEL, detail=f"block pair ({i}, {j}) {why}"
                )
            pair_masks.append(codec.mask(label))

    found = _first_avoiding(k, pair_masks, codec, family)
    if found is None:
        return ConstructResult(
            type=None,
            failure=NO_VALID_VERTEX_LABELS,
            detail="no proper nonempty fiber labeling avoids the family",
        )
    return ConstructResult(type=codec.template(found))
