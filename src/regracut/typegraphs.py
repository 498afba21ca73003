"""Set-labeled template graphs and the expected editing cost they induce.

A template (here ``TypeGraph``) is a small complete graph whose vertices and
pairs carry *sets* of allowed colors or arrow states.  A concrete graph maps
into a template when some assignment of its vertices to template vertices
puts every pair's color inside the corresponding label set; vertices sharing
a template vertex must in addition satisfy that vertex's fiber conditions.
Templates into which no forbidden pattern maps certify recolorings free of
those patterns, and the quadratic form ``expected_edit_fraction`` prices the
recoloring for a random graph.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArrowClosureViolation,
    BadState,
    ColorOutOfRange,
    DimensionMismatch,
    EmptyFamily,
    EmptyLabel,
    FullSelfLabel,
    KindMismatch,
    MissingPair,
    RegracutError,
    SearchSpaceTooLarge,
    SymmetryViolation,
)
from .graphs import (
    DIGRAPH_STATES,
    DIRTYPE,
    RTYPE,
    STATE_BACK,
    STATE_BI,
    STATE_CODES,
    STATE_FWD,
    STATE_NONE,
    ColoredGraph,
    Digraph,
    P0,
    Palette,
    _check_kind,
    flip_state,
    palette,
)


def _pair_index(k: int, u: int, v: int) -> int:
    return u * (2 * k - u - 1) // 2 + (v - u - 1)


def _flip_label(label: frozenset) -> frozenset:
    return frozenset(flip_state(s) for s in label)


@dataclass(frozen=True)
class TypeGraph:
    """Complete template graph with set-valued vertex and pair labels.

    ``self_labels[x]`` is the label of vertex x; ``pair_labels`` holds one
    label per unordered pair in row-major (u, v) order with u < v, read from
    u.  For digraph templates the reading from the other endpoint swaps the
    two single-arrow states; colored-graph labels are symmetric.
    """

    kind: str
    k: int
    self_labels: tuple
    pair_labels: tuple
    r: int | None = None
    palette: Palette | None = None

    @property
    def _kind_key(self) -> tuple:
        """(kind, r), with r None unless the kind is RTYPE; see `_check_kind`."""
        return self.kind, self.r if self.kind == RTYPE else None

    def colors(self) -> tuple:
        """Ordered universe the labels draw from."""
        return _LabelCodec(self.r if self.kind == RTYPE else self.palette).elements

    def phi(self, x: int, y: int) -> frozenset:
        """Label set of the ordered vertex pair (x, y); phi(x, x) is the
        fiber label of x."""
        if not (0 <= x < self.k and 0 <= y < self.k):
            raise RegracutError(f"template vertex out of range on ({x}, {y})")
        if x == y:
            return self.self_labels[x]
        if x < y:
            return self.pair_labels[_pair_index(self.k, x, y)]
        label = self.pair_labels[_pair_index(self.k, y, x)]
        return label if self.kind == RTYPE else _flip_label(label)


def validate_type(K: TypeGraph) -> None:
    """Raise unless K satisfies every structural invariant.

    Labels must be nonempty subsets of the color or state universe, vertex
    labels additionally proper.  Mis-matched pair orderings are caught by
    the factories; here the stored form is checked.
    """
    if K.kind not in (RTYPE, DIRTYPE):
        raise KindMismatch(f"unknown template kind {K.kind!r}")
    if K.k < 1:
        raise RegracutError(f"template needs at least one vertex, got {K.k}")
    if K.kind == RTYPE:
        if not isinstance(K.r, int) or K.r < 2:
            raise RegracutError("colored-graph template needs r >= 2")
    elif not isinstance(K.palette, Palette):
        raise RegracutError("digraph template needs a palette")
    codec = _LabelCodec(K.r if K.kind == RTYPE else K.palette)
    universe = frozenset(codec.elements)
    if len(K.self_labels) != K.k:
        raise DimensionMismatch(f"expected {K.k} vertex labels")
    if len(K.pair_labels) != K.k * (K.k - 1) // 2:
        raise DimensionMismatch("pair label count does not match k choose 2")
    for x, label in enumerate(K.self_labels):
        if not label:
            raise EmptyLabel(f"vertex {x} has an empty label")
        if not label <= universe:
            bad = sorted(label - universe, key=str)
            raise (ColorOutOfRange if K.kind == RTYPE else BadState)(
                f"vertex {x} label contains {bad}"
            )
        if codec.whole and label == universe:
            raise FullSelfLabel(f"vertex {x} label is the full color set")
    for idx, label in enumerate(K.pair_labels):
        if not label:
            raise EmptyLabel(f"pair label {idx} is empty")
        if not label <= universe:
            bad = sorted(label - universe, key=str)
            raise (ColorOutOfRange if K.kind == RTYPE else BadState)(
                f"pair label {idx} contains {bad}"
            )


def _normalize_pairs(k: int, edge_labels: dict, kind: str) -> tuple:
    """Collapse an ordered-pair label dict to the u < v stored form,
    checking both-order consistency when a pair is given twice."""
    stored: dict[tuple[int, int], frozenset] = {}
    for (x, y), raw in edge_labels.items():
        if not (0 <= x < k and 0 <= y < k) or x == y:
            raise RegracutError(f"bad template pair ({x}, {y})")
        label = frozenset(raw)
        if x > y:
            x, y = y, x
            if kind == DIRTYPE:
                label = _flip_label(label)
        if (x, y) in stored and stored[(x, y)] != label:
            if kind == RTYPE:
                raise SymmetryViolation(f"pair ({x}, {y}) given two different labels")
            raise ArrowClosureViolation(
                f"pair ({x}, {y}) labels are not mirror images of each other"
            )
        stored[(x, y)] = label
    labels = []
    for u in range(k):
        for v in range(u + 1, k):
            if (u, v) not in stored:
                raise MissingPair(f"no label for template pair ({u}, {v})")
            labels.append(stored[(u, v)])
    return tuple(labels)


def rtype(r: int, self_labels, edge_labels: dict) -> TypeGraph:
    """Template over colors {1..r}; edge_labels maps vertex pairs (either
    order, consistently) to color sets."""
    selfs = tuple(frozenset(int(c) for c in lab) for lab in self_labels)
    k = len(selfs)
    pairs = _normalize_pairs(k, edge_labels, RTYPE)
    K = TypeGraph(kind=RTYPE, k=k, self_labels=selfs, pair_labels=pairs, r=int(r))
    validate_type(K)
    return K


def dirtype(pal, self_labels, edge_labels: dict) -> TypeGraph:
    """Digraph template over a palette (object or name); edge_labels maps
    ordered pairs to state sets read from the first vertex."""
    if isinstance(pal, str):
        pal = palette(pal)
    selfs = tuple(frozenset(str(s) for s in lab) for lab in self_labels)
    k = len(selfs)
    pairs = _normalize_pairs(k, edge_labels, DIRTYPE)
    K = TypeGraph(kind=DIRTYPE, k=k, self_labels=selfs, pair_labels=pairs, palette=pal)
    validate_type(K)
    return K


def _encode_label(K: TypeGraph, label: frozenset) -> tuple:
    if K.kind == RTYPE:
        return tuple(sorted(label))
    return tuple(sorted(STATE_CODES[s] for s in label))


def canonical_key(K: TypeGraph):
    """Relabeling-invariant identity: the lexicographically smallest ordered
    label matrix over all permutations of the template vertices."""
    head = (K.kind, K.r if K.kind == RTYPE else K.palette.name, K.k)
    best = None
    for perm in itertools.permutations(range(K.k)):
        mat = tuple(
            tuple(_encode_label(K, K.phi(perm[i], perm[j])) for j in range(K.k))
            for i in range(K.k)
        )
        if best is None or mat < best:
            best = mat
    return head + (best,)


# Why a member does not fit the family, by the first member's kind
_MIXED_FAMILY = {
    RTYPE: "family members must all share the same color count",
    DIRTYPE: "family mixes digraphs with colored graphs",
}


class ForbiddenFamily:
    """Nonempty collection of forbidden patterns, all of one kind."""

    __slots__ = ("members", "_kind_key")

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise EmptyFamily("a forbidden family needs at least one member")
        first = members[0]
        if not isinstance(first, (ColoredGraph, Digraph)):
            raise KindMismatch(f"unsupported family member {type(first).__name__}")
        mixed = _MIXED_FAMILY[first._kind_key[0]]
        for m in members[1:]:
            _check_kind(m, first._kind_key, mixed, mixed)
        self.members = members
        self._kind_key = first._kind_key

    @property
    def kind(self) -> str:
        return self._kind_key[0]

    @property
    def r(self) -> int | None:
        return self._kind_key[1]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TypeFamily:
    """Templates admitting no forbidden pattern, complete up to size_bound."""

    types: tuple
    size_bound: int

    def __iter__(self):
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)


class _LabelCodec:
    """Template labels as integer bitmasks: over the colors 1..r when kind
    is a color count r, else over the states of the palette kind, in
    `DIGRAPH_STATES` order.

    Bit i of a mask stands for elements[i].  Mask tables are built on first
    use, and label sets only for the masks asked for.
    """

    def __init__(self, kind):
        if isinstance(kind, int):
            self.head = {"kind": RTYPE, "r": kind}
            self.elements = tuple(range(1, kind + 1))
        else:
            self.head = {"kind": DIRTYPE, "palette": kind}
            self.elements = tuple(s for s in DIGRAPH_STATES if s in kind)
        # Vertex labels may never be every color or every state; a restricted
        # palette may be used whole (a tournament fiber is {fwd, back} under P4).
        self.whole = isinstance(kind, int) or len(self.elements) == len(DIGRAPH_STATES)
        self.bit = {e: 1 << i for i, e in enumerate(self.elements)}
        self._labels: dict[int, frozenset] = {}

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """Every nonempty label, in increasing mask order."""
        return np.arange(1, 1 << len(self.elements), dtype=np.int64)

    @functools.cached_property
    def self_masks(self) -> np.ndarray:
        """Every proper nonempty label, in increasing mask order."""
        return self.masks[:-1] if self.whole else self.masks

    def mirror(self, masks):
        """The same pairs' labels read from their other endpoints: the fwd
        and back bits trade places (colored-graph labels are symmetric)."""
        fwd, back = self.bit.get(STATE_FWD, 0), self.bit.get(STATE_BACK, 0)
        differ = (masks & fwd != 0) ^ (masks & back != 0)
        return masks ^ differ * (fwd | back)

    def mask(self, label) -> int:
        return sum(b for e, b in self.bit.items() if e in label)

    def label(self, mask: int) -> frozenset:
        lab = self._labels.get(mask)
        if lab is None:
            lab = self._labels[mask] = frozenset(e for e, b in self.bit.items() if mask & b)
        return lab

    def template(self, m: list) -> TypeGraph:
        """The template of a k-by-k mask matrix given as nested lists."""
        pairs = itertools.combinations(range(len(m)), 2)
        return TypeGraph(
            k=len(m),
            self_labels=tuple(self.label(row[x]) for x, row in enumerate(m)),
            pair_labels=tuple(self.label(m[u][v]) for u, v in pairs),
            **self.head,
        )


# Why a pattern does not fit a template, by the pattern's kind
_AGAINST = {
    RTYPE: "colored graph against a digraph template",
    DIRTYPE: "digraph against a colored-graph template",
}


def embeds(H, K: TypeGraph) -> tuple[bool, tuple | None]:
    """Search for a vertex map from H into the template K.

    Cross pairs need their color inside the pair's label set; vertices
    mapped together must satisfy the fiber conditions of the shared
    template vertex.  Returns (found, map) with the lexicographically first
    witness, or (found, None) when no map exists.
    """
    if not isinstance(H, (ColoredGraph, Digraph)):
        raise KindMismatch(f"unsupported pattern {type(H).__name__}")
    _check_kind(
        H, K._kind_key, _AGAINST[H._kind_key[0]], "pattern has r={1} but template has r={0}"
    )
    # colors 1..r, or every state rather than the template's palette:
    # labels are read as given
    codec = _LabelCodec(H._kind_key[1] or P0)
    M = np.array(
        [codec.mask(K.phi(x, y)) for x in range(K.k) for y in range(K.k)], dtype=np.int64
    ).reshape(1, K.k, K.k)
    hit, maps = _embeds_batch(H, M, codec)
    if hit[0]:
        return True, tuple(maps[0].tolist())
    return False, None


_CANDIDATE_BUDGET = 2_000_000
# Candidates are generated, deduplicated and filtered this many at a time,
# so the working set stays a few MiB however large the budgeted search is.
_CHUNK = 1 << 14


def enumerate_types(kind, k_max: int, family: ForbiddenFamily) -> TypeFamily:
    """All templates on up to k_max vertices that admit no family member.

    kind is a color count (colored-graph templates) or a palette object or
    name (digraph templates).  Candidates run in `itertools.product` order
    (vertex labels, then pair labels in row-major order) as integer label
    masks.  Each is deduplicated by the smallest packed code of its label
    matrix over all vertex relabelings, keeping the first member of every
    class, and the class representatives go through a batched embedding
    filter; only survivors are built as `TypeGraph`s.
    """
    if k_max < 1:
        raise RegracutError(f"k_max must be at least 1, got {k_max}")
    if isinstance(kind, int):
        key, mismatch = (RTYPE, kind), "family does not match the requested color count"
    else:
        kind = palette(kind) if isinstance(kind, str) else kind
        key, mismatch = (DIRTYPE, None), "family does not match the requested palette"
    _check_kind(family.members[0], key, mismatch, mismatch)
    codec = _LabelCodec(kind)

    width = len(codec.elements)
    n_edge = (1 << width) - 1
    n_self = n_edge - codec.whole
    budget = sum(n_self**k * n_edge ** (k * (k - 1) // 2) for k in range(1, k_max + 1))
    if budget > _CANDIDATE_BUDGET:
        raise SearchSpaceTooLarge(
            f"{budget} candidate templates exceed the exhaustive budget"
        )
    # A packed class code takes k * k * width bits.  With width >= 2 the
    # budget stops k_max at 5 (width 2 at 5, 3 at 3, 4..6 at 2, 7..20 at 1),
    # so codes take at most 50 bits; width <= 1 leaves at most one candidate
    # per k and nothing to pack.  Codes are packed by a float64 product, so
    # a larger budget must keep them within float64's 53 exact bits.
    assert width <= 1 or k_max * k_max * width <= 53, "class codes exceed 53 bits"

    kept = []
    for k in range(1, k_max + 1):
        for M in _class_representatives(k, codec):
            kept.extend(map(codec.template, M[~_admits_any(family, M, codec)].tolist()))
    return TypeFamily(types=tuple(kept), size_bound=k_max)


def _class_representatives(k: int, codec: _LabelCodec):
    """Yield the label-mask tensors of the first candidate of every class.

    Candidates on k vertices are taken in `itertools.product` order,
    `_CHUNK` flat indices at a time, and decoded by `_decode`.  A
    candidate's class code is the smallest, over all vertex permutations,
    of its row-major entries packed `width` bits apiece.  Each yielded
    tensor holds the chunk's classes not seen in an earlier chunk, in
    generation order.
    """
    pair_masks = [codec.masks] * (k * (k - 1) // 2)
    total = len(codec.self_masks) ** k * len(codec.masks) ** len(pair_masks)
    if total <= 1:
        # Nothing to tell apart.  Only here (width <= 1) does the budget let
        # k pass 5, where the k! relabelings below would not fit in memory.
        if total:
            yield _decode(0, 1, k, codec, pair_masks)
        return
    # Column p of `weights` packs the matrix relabeled by the p-th vertex
    # permutation: the entry that lands at row-major position t is shifted
    # width * (k*k - 1 - t) bits, so one product gives every relabeled code.
    # The product runs in float64 (numpy has no BLAS path for int64); codes
    # of at most 53 bits keep every partial sum an exact integer.
    shifts = len(codec.elements) * np.arange(k * k - 1, -1, -1)
    perms = list(itertools.permutations(range(k)))
    weights = np.zeros((k * k, len(perms)))
    for col, p in enumerate(perms):
        weights[[p[i] * k + p[j] for i in range(k) for j in range(k)], col] = 2.0**shifts
    seen = np.empty(0, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        M = _decode(start, min(start + _CHUNK, total), k, codec, pair_masks)
        code = (M.reshape(len(M), k * k) @ weights).min(axis=1).astype(np.int64)
        classes, first = np.unique(code, return_index=True)
        fresh = ~np.isin(classes, seen)
        seen = np.concatenate([seen, classes[fresh]])
        yield M[np.sort(first[fresh])]


def _first_avoiding(k: int, pair_masks: list, codec: _LabelCodec, family) -> list | None:
    """Mask matrix of the first template on k vertices, with pair p fixed to
    pair_masks[p] and vertex masks in `itertools.product` order, that
    admits no family member; None if there is none.  The search stops at
    the first chunk with a survivor.  All labelings pass or fail
    `validate_type` alike (vertex labels are proper by construction), so
    it runs once, on the first."""
    fixed = [np.array([m], dtype=np.int64) for m in pair_masks]
    total = len(codec.self_masks) ** k
    # a chunk holds at most 16 * _CHUNK mask entries, so many blocks stay small
    step = max(1, _CHUNK * 16 // max(16, k * k))
    for start in range(0, total, step):
        M = _decode(start, min(start + step, total), k, codec, fixed)
        if start == 0:
            validate_type(codec.template(M[0].tolist()))
        free = np.flatnonzero(~_admits_any(family, M, codec))
        if len(free):
            return M[free[0]].tolist()
    return None


def _decode(start: int, stop: int, k: int, codec: _LabelCodec, pair_masks: list) -> np.ndarray:
    """Label-mask tensor of the candidates start..stop-1 on k vertices.

    Vertex x ranges over `codec.self_masks` and pair p (row-major) over
    pair_masks[p], read from flat index i in mixed radix, which is
    `itertools.product` order.  Pair masks sit above the diagonal and
    their mirror images below it.
    """
    rest = np.arange(start, stop, dtype=np.int64)
    M = np.empty((len(rest), k, k), dtype=np.int64)
    pairs = list(itertools.combinations(range(k), 2))
    for (u, v), masks in reversed(list(zip(pairs, pair_masks))):
        rest, digit = np.divmod(rest, len(masks))
        M[:, u, v] = masks[digit]
        M[:, v, u] = codec.mirror(M[:, u, v])
    for x in reversed(range(k)):
        rest, digit = np.divmod(rest, len(codec.self_masks))
        M[:, x, x] = codec.self_masks[digit]
    return M


def _admits_any(family, M, codec: _LabelCodec) -> np.ndarray:
    """Which templates of the label-mask tensor M admit some family member."""
    hit = np.zeros(len(M), dtype=bool)
    for H in family:
        hit |= _embeds_batch(H, M, codec)[0]
    return hit


def _embeds_batch(H, M, codec: _LabelCodec) -> tuple[np.ndarray, np.ndarray]:
    """Which templates of an (N, k, k) label-mask tensor M admit H, and how.

    M[:, x, y] holds the mask of phi(x, y).  This holds the embedding rules
    for N templates at once: a depth-first search over partial vertex maps
    of H, in lexicographic order, carries the boolean vector of templates
    that still accept the map and prunes a branch once that vector is empty
    or every template in it is already known to admit H.  Returns the hit
    vector and an (N, H.n) array whose hit rows hold each template's
    lexicographically first map.
    """
    N, k = M.shape[0], M.shape[1]
    cols = np.ascontiguousarray(M.transpose(1, 2, 0))
    codes = H._mp1.tolist()
    cross = [[codec.bit.get(H._labels[c - 1], 0) if c else 0 for c in row] for row in codes]
    # a single arrow (a code the mirror moves) inside a fiber needs either
    # arrow state in the label
    single = [c for c, flip in enumerate(H._mirror.tolist()) if flip != c]
    arrows = codec.bit.get(STATE_FWD, 0) | codec.bit.get(STATE_BACK, 0)
    fiber = [[arrows if c in single else req for c, req in zip(row, crow)]
             for row, crow in zip(codes, cross)]
    # a fiber whose single arrows form a cycle fits no one-way label
    two_way = [(cols[u, u] & arrows) == arrows for u in range(k)]

    hit = np.zeros(N, dtype=bool)
    maps = np.full((N, H.n), -1, dtype=np.int64)
    assign = [0] * H.n

    def extend(v: int, alive: np.ndarray) -> None:
        if v == H.n:
            hit[alive] = True
            maps[alive] = assign
            return
        for u in range(k):
            ok = alive & ~hit
            for w in range(v):
                x = assign[w]
                ok &= (cols[x, u] & (fiber[w][v] if x == u else cross[w][v])) != 0
            if single:
                members = [w for w in range(v) if assign[w] == u] + [v]
                if len(members) > 2 and _arrow_cycle(codes, members):
                    ok &= two_way[u]
            if ok.any():
                assign[v] = u
                extend(v + 1, ok)

    extend(0, np.ones(N, dtype=bool))
    return hit, maps


def _arrow_cycle(codes: list, vertices: list) -> bool:
    """Whether the single arrows among the vertices of a digraph with
    shifted state-code rows `codes` close a directed cycle."""
    fwd = STATE_CODES[STATE_FWD] + 1
    left = set(vertices)
    while left:
        # an acyclic arrow set always has a vertex with no arrow leaving it
        sink = next((v for v in left if all(codes[v][w] != fwd for w in left)), None)
        if sink is None:
            return True
        left.remove(sink)
    return False


def expected_edit_fraction(K: TypeGraph, dist) -> float:
    """Average fraction of pairs a random graph must recolor to conform to K.

    Evaluates (1/k^2) 1^T (J - sum_rho p_rho A_rho) 1 where A_rho indicates
    which labels contain rho, diagonal included.  Digraph templates take
    dist = (p, q) for the both-arcs and per-direction single-arc weights;
    a pair allowing both directions counts the single-arc weight twice.
    """
    dist = tuple(float(x) for x in dist)
    k = K.k
    total = 0.0
    if K.kind == RTYPE:
        if len(dist) != K.r:
            raise DimensionMismatch(f"expected {K.r} weights, got {len(dist)}")
        for i in range(k):
            for j in range(k):
                lab = K.phi(i, j)
                total += 1.0 - sum(dist[c - 1] for c in lab)
    else:
        if len(dist) != 2:
            raise DimensionMismatch(f"expected (p, q), got {len(dist)} weights")
        p, q = dist
        for i in range(k):
            for j in range(k):
                lab = K.phi(i, j)
                arrows = (STATE_FWD in lab) + (STATE_BACK in lab)
                covered = (
                    (1.0 - p - 2.0 * q) * (STATE_NONE in lab)
                    + p * (STATE_BI in lab)
                    + q * arrows
                )
                total += 1.0 - covered
    return total / (k * k)


@dataclass(frozen=True)
class BoundReport:
    """Best type-derived asymptotic floor on the distance to the property."""

    type: TypeGraph
    fraction: float
    value: float


def edit_distance_lower_bound(dist, family: TypeFamily, n: int) -> BoundReport:
    """Strongest expected-fraction bound over the family, scaled to n(n-1)/2.

    Ties keep the earliest type in enumeration order.
    """
    if not family.types:
        raise EmptyFamily("no templates to bound with")
    best = None
    best_f = -1.0
    for K in family:
        f = expected_edit_fraction(K, dist)
        if f > best_f:
            best, best_f = K, f
    return BoundReport(type=best, fraction=best_f, value=best_f * n * (n - 1) / 2)


def theorem_error_terms(n: int, k: int, r: int, eps: float) -> dict:
    """Finite-size slack between the expected-fraction display and n(n-1)/2.

    The five terms cover equipartition rounding, the diagonal of the
    quadratic form, density concentration, the irregular-pair allowance,
    and the deviating-pair allowance at regularity parameter eps.
    """
    if k < 1 or n < k:
        raise RegracutError("need 1 <= k <= n for the error display")
    lo = n // k
    hi = math.ceil(n / k)
    pairs = k * (k - 1) // 2
    terms = {
        "rounding": n * (n - 1) / 2 - k * k / 2 * lo * lo,
        "diagonal": k / 2 * lo * lo,
        "density_concentration": r * pairs * lo ** (5 / 3),
        "irregular_pairs": eps * r * pairs * hi * hi,
        "deviating_pairs": eps * k * k * hi * hi,
    }
    terms["total"] = sum(terms.values())
    return terms


def type_to_json(K: TypeGraph) -> dict:
    """Plain-dict form of a template, pair labels read from the lower vertex."""
    if K.kind == RTYPE:
        head = {"kind": RTYPE, "r": K.r}
        enc = sorted
    else:
        head = {"kind": DIRTYPE, "palette": K.palette.name}
        enc = lambda lab: sorted(lab, key=STATE_CODES.__getitem__)
    edges = [
        {"u": u, "v": v, "labels": enc(K.phi(u, v))}
        for u in range(K.k)
        for v in range(u + 1, K.k)
    ]
    return head | {"k": K.k, "self": [enc(lab) for lab in K.self_labels], "edges": edges}


def type_from_json(obj: dict) -> TypeGraph:
    """Inverse of type_to_json; validates the result."""
    try:
        kind = obj["kind"]
        selfs = obj["self"]
        edges = {(int(e["u"]), int(e["v"])): e["labels"] for e in obj["edges"]}
    except (KeyError, TypeError) as exc:
        raise RegracutError(f"malformed template object: {exc}") from None
    if int(obj.get("k", len(selfs))) != len(selfs):
        raise DimensionMismatch("k does not match the number of vertex labels")
    if kind == RTYPE:
        return rtype(int(obj["r"]), selfs, edges)
    if kind == DIRTYPE:
        return dirtype(obj.get("palette", "P0"), selfs, edges)
    raise KindMismatch(f"unknown template kind {kind!r}")
