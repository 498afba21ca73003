"""Pair-recoloring distance to a forbidden-pattern-free property.

The distance between two graphs on a shared vertex set counts the unordered
pairs whose color or arrow state differs.  The distance from a graph to the
property of admitting no induced copy of any family member is found exactly
by iterative-deepening branch and bound on a table of every distinct pattern
copy with bit-sliced mismatch counts, pruned by packing pair-disjoint copies.
Template fits, priced by table lookup, give certified upper bounds on the
same quantity.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .density import (
    _IRR,
    _certify_pairs,
    _pair_densities,
)
from .errors import (
    RegracutError,
    SizeMismatch,
    TooLargeForExact,
    _integer,
    _real,
)
from .graphs import (
    DIGRAPH_STATES,
    DIRTYPE,
    RTYPE,
    STATE_BACK,
    STATE_BI,
    STATE_FWD,
    STATE_NONE,
    P0,
    _build,
    _check_kind,
)
from .partitions import _cut, _vertex_sets
from .typegraphs import (
    ForbiddenFamily,
    TypeGraph,
    _as_palette,
    _first_avoiding,
    _LabelCodec,
    _pair_index,
)

# Kind-check messages shared by two entry points each
_SAME_KIND = "cannot compare a colored graph with a digraph", "color counts differ: {0} vs {1}"
_FAMILY_KIND = "family kind does not match the graph", "family color count does not match the graph"
# Vertex cap of the exact search, by graph kind
_EXACT_CAP = {RTYPE: 7, DIRTYPE: 6}


def edit_distance(G, H) -> int:
    """Number of unordered pairs on which the two graphs disagree."""
    _check_kind(H, G._kind_key, *_SAME_KIND)
    if G.n != H.n:
        raise SizeMismatch(f"vertex counts differ: {G.n} vs {H.n}")
    # both readings of a pair differ together; the diagonals agree
    return int(np.count_nonzero(G._mp1 != H._mp1)) // 2


def find_induced_copy(G, H) -> tuple | None:
    """Injective vertex map realizing H inside G exactly, or None.

    Every pair of the image must carry the same color (digraphs: the same
    ordered state) as the corresponding pair of H.  The first map in
    lexicographic order is returned: pattern vertex v takes the lowest
    unused vertex of G that agrees with the vertices already placed.
    """
    _check_kind(H, G._kind_key, *_SAME_KIND)
    n, h = G.n, H.n
    if h > n:
        return None
    mh = H._mp1.tolist()
    # nbr[w][c]: bitset of the vertices joined to w by code c, built when w
    # is first placed (building every row costs more than most searches)
    nbr = [None] * n
    assign, used = [], 0
    stack = [(1 << n) - 1]  # stack[v]: candidates left for pattern vertex v
    while stack:
        cand = stack[-1]
        if not cand:
            stack.pop()
            if assign:
                used ^= 1 << assign.pop()
            continue
        low = cand & -cand
        stack[-1] = cand ^ low
        w = low.bit_length() - 1
        v = len(assign)
        if v + 1 == h:
            return (*assign, w)
        if nbr[w] is None:
            bits = nbr[w] = [0] * (G._nch + 1)
            for x, c in enumerate(G._mp1[w].tolist()):
                bits[c] |= 1 << x
        assign.append(w)
        used |= low
        cand = ~used
        for x in range(v + 1):
            cand &= nbr[assign[x]][mh[x][v + 1]]
        stack.append(cand)
    return None


def has_induced_copy(G, H) -> bool:
    return find_induced_copy(G, H) is not None


# Most pattern maps the exact search tabulates (the caps need <= 5,040 a member)
# and bytes its table build passes through, pairs x maps x (codes + 2): the r = 2
# cap's 21 pairs, 3 codes
_MAP_BUDGET = 100_000
_TABLE_BUDGET = 21 * _MAP_BUDGET * 5


def distance_to_property(G, family: ForbiddenFamily):
    """Minimum number of pair recolorings ridding G of every family member.

    Returns (distance, witness graph).  Iterative deepening branches over
    recoloring each pair of the first induced copy to each other value,
    never touching a pair twice; an optimal witness breaks every copy, so
    this is complete.  Copies are the columns of `_copy_table`, one per
    distinct copy in `find_induced_copy` order (family order, then
    lexicographic).  Their mismatch counts are held as bit planes of Python
    ints: a recoloring adds one to the columns needing the old value and
    takes one from those needing the new, at most 2 x width int operations,
    and the first column at zero is the copy a fresh search finds.  A node
    is pruned when a greedy packing of live copies disjoint on untouched
    pairs exceeds the budget left: each needs its own edit, so the first
    witness found is unchanged.  Raises TooLargeForExact above 7 vertices
    for colored graphs or 6 for digraphs (`_EXACT_CAP`), `_MAP_BUDGET` maps
    or `_TABLE_BUDGET` table bytes.
    """
    _check_kind(G, family._kind_key, *_FAMILY_KIND)
    cap = _EXACT_CAP[G._kind_key[0]]
    if G.n > cap:
        raise TooLargeForExact(f"n={G.n} exceeds the exact-search cap {cap}")
    maps = sum(math.perm(G.n, H.n) for H in family)
    table = math.comb(G.n, 2) * maps * (G._nch + 3)
    if maps > _MAP_BUDGET or table > _TABLE_BUDGET:
        raise TooLargeForExact(f"{maps} pattern maps ({table} table bytes) exceed the exact-search budget")

    # Recolored in place: m[u][v] is the shifted code of (u, v) read from u,
    # and mirror[code] the code of the same pair read from v.
    mirror = G._mirror
    m = G._mp1.tolist()
    pairs, masks, need, width = _copy_table(G.n, family.members)
    # planes[b]: the columns whose mismatch count has bit b set
    planes = [0] * width
    for p, (u, v) in enumerate(pairs):
        carry = need[p][0] ^ need[p][m[u][v]]  # the columns on p needing another value
        for b in range(width):
            plane = planes[b]
            planes[b], carry = plane ^ carry, plane & carry
    everything = (1 << len(masks)) - 1

    def recolor(p: int, code: int) -> None:
        u, v = pairs[p]
        carry, borrow = need[p][m[u][v]], need[p][code]  # disjoint
        for b in range(width):
            if not carry | borrow:
                break
            plane = planes[b]
            planes[b] = plane ^ carry ^ borrow
            carry, borrow = plane & carry, borrow & ~plane
        m[u][v], m[v][u] = code, mirror[code]

    def search(budget: int, touched: int) -> bool:
        live = everything
        for plane in planes:
            live &= ~plane
        if not live:
            return True
        branch = masks[(live & -live).bit_length() - 1] & ~touched
        used = packed = 0
        while live:
            low = live & -live
            live ^= low
            free = masks[low.bit_length() - 1] & ~touched
            if not free:
                return False  # no edit below this node reaches this copy
            if not free & used:
                used, packed = used | free, packed + 1
                if packed > budget:
                    return False
        while branch:
            low = branch & -branch
            branch ^= low
            p = low.bit_length() - 1
            u, v = pairs[p]
            current = m[u][v]
            for code in range(1, len(mirror)):  # the codes the matrix can hold
                if code == current:
                    continue
                recolor(p, code)
                if search(budget - 1, touched | low):
                    return True  # m now holds the witness
            recolor(p, current)
        return False

    for budget in range(len(pairs) + 1):
        if search(budget, 0):
            return budget, _build(G.n, G._kind_key[1], np.array(m, dtype=np.int16))
    raise RegracutError(
        "no recoloring on this vertex count avoids the family; "
        "the target property is empty here"
    )


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of a 2-D array, equal exactly when the rows are."""
    width = rows.shape[1] * rows.itemsize
    return rows.view(f"V{width}").ravel() if width else np.zeros(len(rows), "V1")


def _bit_rows(rows: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as a Python int, column j at bit j;
    equal rows share one int."""
    keys, which = np.unique(_row_keys(np.packbits(rows, axis=1, bitorder="little")), return_inverse=True)
    ints = [int.from_bytes(key, "little") for key in keys.tolist()]
    return [ints[k] for k in which.tolist()]


@functools.lru_cache(maxsize=4)
def _copy_table(n: int, members: tuple) -> tuple:
    """Layout of `distance_to_property`'s table, cached by n and member
    content, with one column per distinct copy: the first map, in
    `find_induced_copy` order, of each class of maps putting the same codes
    on the same pairs (automorphic images, and the maps of a repeated or an
    isomorphic member).  Returns the pairs; masks[i], column i's pairs as a
    bitmask; need[p][c], the columns needing code c on pair p (read from its
    lower vertex) as a bitmask, with need[p][0] the columns using pair p;
    and width, the bit planes that hold any member's mismatch count."""
    mirror = members[0]._mirror
    pairs = tuple(itertools.combinations(range(n), 2))
    # want[i, p]: the code map i needs on pair p read from its lower vertex (0 if unused)
    want = np.zeros((sum(math.perm(n, H.n) for H in members), len(pairs)), dtype=np.int16)
    start, by_size = 0, {}
    for H in members:
        i, j = _upper_pairs(H.n)
        if H.n not in by_size:
            # per map of an H.n-vertex member (shared by members of that size):
            # its pattern pairs' pair indices and whether each keeps its order
            img = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n), H.n)),
                              dtype=np.intp).reshape(-1, H.n)
            a, b = img[:, i], img[:, j]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            by_size[H.n] = _pair_index(n, lo, hi), a < b
        p, forward = by_size[H.n]
        code = H._mp1[i, j]
        want[np.arange(start, start + len(p))[:, None], p] = np.where(forward, code, mirror[code])
        start += len(p)
    want = want[np.sort(np.unique(_row_keys(want), return_index=True)[1])]  # the first of each class
    codes = np.arange(members[0]._nch + 1)[:, None]
    need = want.T[:, None, :] == codes
    need[:, 0] = want.T != 0
    need = _bit_rows(need.reshape(len(pairs) * len(codes), len(want)))
    need = tuple(tuple(need[p * len(codes):(p + 1) * len(codes)]) for p in range(len(pairs)))
    width = max(math.comb(H.n, 2) for H in members).bit_length()
    return pairs, tuple(_bit_rows(want != 0)), need, width


@dataclass(frozen=True)
class FitResult:
    graph: object
    cost: int
    assignment: tuple


def _dir_fiber_target(state: str, label: frozenset) -> str:
    """Conformant state for a within-fiber pair currently in `state`; single
    arrows are oriented low-to-high when only one direction is allowed."""
    single = {STATE_FWD, STATE_BACK}
    if state in label and (state not in single or single <= label):
        return state
    if state in single and label & single:
        return STATE_FWD
    return next((s for s in (STATE_NONE, STATE_BI) if s in label), STATE_FWD)


@functools.lru_cache(maxsize=256)
def _target_table(K: TypeGraph) -> np.ndarray:
    """Conformant shifted code T[a, b, c] for a pair read from its lower
    vertex, with endpoints in fibers a and b, that now carries shifted code
    c (read-only; templates are frozen, so tables are cached)."""
    values = [None, *(range(1, K.r + 1) if K.kind == RTYPE else DIGRAPH_STATES)]
    T = np.zeros((K.k, K.k, len(values)), dtype=np.int16)
    for a, b in itertools.product(range(K.k), repeat=2):
        allowed = K.phi(a, b)
        first = next(s for s in values if s in allowed)
        for c, s in enumerate(values):
            if a == b and K.kind != RTYPE:
                T[a, b, c] = values.index(_dir_fiber_target(s, allowed))
            else:
                T[a, b, c] = values.index(s if s in allowed else first)
    T.setflags(write=False)
    return T


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `np.triu_indices(n, 1)`."""
    iu, ju = np.triu_indices(n, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def _fibers(n: int, k: int) -> np.ndarray:
    """Fiber of each of n slots, cut into k fibers as `partitions._cut` cuts blocks."""
    return np.repeat(np.arange(k), [len(s) for s in _cut(range(n), k)])


@functools.lru_cache(maxsize=32)
def _trial_assignments(n: int, k: int, trials: int, seed) -> np.ndarray:
    """Read-only fiber assignments of `best_of`'s seeded trials, one row each."""
    orders = [list(range(n)) for _ in range(trials)]
    rng = random.Random(seed)
    for order in orders:
        rng.shuffle(order)
    # vertex order[slot] joins the fiber of its slot
    A = _fibers(n, k)[np.argsort(orders, axis=1)]
    A.setflags(write=False)
    return A


def fit_to_type(G, K: TypeGraph, assignment="balanced", trials: int = 10, seed: int = 0) -> FitResult:
    """Cheapest conformant recoloring of G for a fiber assignment.

    assignment is "balanced" (vertex order cut into fibers as `equipartition`
    cuts blocks), an explicit vertex-to-template-vertex sequence, or
    "best_of", which tries `trials` seeded random balanced assignments and
    keeps the cheapest (first wins ties).  Cross-fiber pairs keep their
    value when allowed and otherwise take the first allowed value in
    canonical order; fibers follow the template vertex's own label, single
    arrows oriented by vertex index.
    Every assignment is priced by one gather from the template's table of
    conformant codes, and only the winning graph is built.
    """
    _check_kind(G, K._kind_key, "template kind does not match the graph",
                "template color count does not match the graph")
    if isinstance(assignment, str) and assignment == "best_of":
        A = _trial_assignments(G.n, K.k, _integer(trials, "trials", 1), _integer(seed, "seed", 0))
    elif isinstance(assignment, str):
        if assignment != "balanced":
            raise RegracutError(f"unknown assignment mode {assignment!r}")
        A = _fibers(G.n, K.k)[None, :]
    else:
        assign = list(assignment)
        if len(assign) != G.n:
            raise SizeMismatch("assignment length does not match the vertex count")
        A = np.array([[_integer(x, "assignment entry", 0, K.k - 1) for x in assign]])

    iu, ju = _upper_pairs(G.n)
    codes = G._mp1[iu, ju]
    fixed = _target_table(K)[A[:, iu], A[:, ju], codes]  # (trials, pairs)
    costs = (fixed != codes).sum(axis=1)
    best = int(costs.argmin())
    m = G._mp1.copy()
    m[iu, ju] = fixed[best]
    m[ju, iu] = G._mirror[fixed[best]]
    graph = _build(G.n, G._kind_key[1], m)
    return FitResult(graph=graph, cost=int(costs[best]), assignment=tuple(A[best].tolist()))


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
) -> ConstructResult:
    """Template whose pair labels hold the certified dense colors of the
    given blocks, with fiber labels found by exhaustive search.

    A color joins the label of pair (i, j) when `certify` with the named
    certifier does not find the block pair irregular at efun(k) and its
    density is at least delta.  Fiber labels are the lexicographically
    first assignment of nonempty proper subsets making the template admit
    no family member; both failure modes are reported, not raised.
    """
    blocks = list(blocks)
    k = len(blocks)
    if k < 1:
        raise RegracutError("need at least one block")
    blocks = _vertex_sets(G.n, blocks, [f"block {i}" for i in range(k)])
    _check_kind(G, family._kind_key, *_FAMILY_KIND)
    gamma = efun(k)
    # the color count, or the palette for a digraph (which has none)
    codec = _LabelCodec(G._kind_key[1] or _as_palette(P0 if palette is None else palette))
    # no pair reads gamma when k = 1
    gamma, delta = _real(gamma, "gamma", 0 if k > 1 else None), _real(delta, "delta")

    iu, ju = np.triu_indices(k, 1)
    codes, _ = _certify_pairs(G, blocks, iu, ju, gamma, certifier)
    pair_masks = []
    for i, j, code in zip(iu.tolist(), ju.tolist(), codes.tolist()):
        dens = _pair_densities(G, [blocks[i]], [blocks[j]])[0]
        label = frozenset(lab for lab, d in zip(G._labels, dens) if code != _IRR and d >= delta)
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
    return ConstructResult(type=codec.templates(found)[0])
