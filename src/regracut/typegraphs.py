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
import operator
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
    _index,
    _integer,
    _real,
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
    validate_arrow_distribution,
    validate_color_distribution,
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


def _validate_type(K: TypeGraph) -> None:
    """Raise unless K satisfies every structural invariant.

    Labels must be nonempty subsets of the color or state universe, vertex
    labels additionally proper.  Mis-matched pair orderings are caught by
    the factories; here the stored form is checked.
    """
    if K.kind not in (RTYPE, DIRTYPE):
        raise KindMismatch(f"unknown template kind {K.kind!r}")
    if K.k < 1:
        raise RegracutError(f"template needs at least one vertex, got {K.k}")
    if K.kind == DIRTYPE and not isinstance(K.palette, Palette):
        raise RegracutError("digraph template needs a palette")
    codec = _LabelCodec(_integer(K.r, "r", 2) if K.kind == RTYPE else K.palette)
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
    checking both-order consistency when a pair is given twice.  Pair
    vertices follow the integer rule: Python or numpy integers only."""
    stored: dict[tuple[int, int], frozenset] = {}
    for (x, y), raw in edge_labels.items():
        try:
            x, y = _index(x), _index(y)
        except TypeError:
            raise RegracutError(f"template pair vertices must be integers, got ({x!r}, {y!r})") from None
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
    r = _integer(r, "r", 2)
    colors = lambda label: frozenset(_integer(c, "color", 1, r, ColorOutOfRange) for c in label)
    selfs = tuple(map(colors, self_labels))
    k = len(selfs)
    pairs = _normalize_pairs(k, {xy: colors(label) for xy, label in edge_labels.items()}, RTYPE)
    K = TypeGraph(kind=RTYPE, k=k, self_labels=selfs, pair_labels=pairs, r=r)
    _validate_type(K)
    return K


def _as_palette(pal) -> Palette:
    """A palette given as an object or by name."""
    pal = palette(pal) if isinstance(pal, str) else pal
    if not isinstance(pal, Palette):
        raise RegracutError("digraph template needs a palette")
    return pal


def dirtype(pal, self_labels, edge_labels: dict) -> TypeGraph:
    """Digraph template over a palette (object or name); edge_labels maps
    ordered pairs to state sets read from the first vertex."""
    pal = _as_palette(pal)
    selfs = tuple(frozenset(str(s) for s in lab) for lab in self_labels)
    k = len(selfs)
    pairs = _normalize_pairs(k, edge_labels, DIRTYPE)
    K = TypeGraph(kind=DIRTYPE, k=k, self_labels=selfs, pair_labels=pairs, palette=pal)
    _validate_type(K)
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
    use, and label sets only for the masks asked for, each once.
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
        self.labels = _Labels(self.elements)

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

    def templates(self, M: np.ndarray) -> list:
        """The templates of an (N, k, k) label-mask tensor, in order."""
        k = M.shape[1]
        label = self.labels.__getitem__
        iu, ju = np.triu_indices(k, 1)
        return [
            TypeGraph(k=k, self_labels=tuple(map(label, selfs)),
                      pair_labels=tuple(map(label, pairs)), **self.head)
            for selfs, pairs in zip(M.diagonal(axis1=1, axis2=2).tolist(), M[:, iu, ju].tolist())
        ]


class _Labels(dict):
    """Label set of each mask over the elements, built on first lookup."""

    def __init__(self, elements: tuple):
        super().__init__()
        self.elements = elements

    def __missing__(self, mask: int) -> frozenset:
        label = self[mask] = frozenset(e for i, e in enumerate(self.elements) if mask >> i & 1)
        return label


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
    if (H._kind_key[1] or 0) > 63:  # bit 63 is the int64 sign bit
        raise RegracutError(f"labels over r={H.r} colors do not fit an int64 mask")
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
    (vertex labels, then pair labels in row-major order) by their flat
    index.  Every class of candidates equal up to a vertex relabeling keeps
    its first member, the one no relabeling gives a smaller flat index;
    those representatives go through a batched embedding filter, and only
    survivors are built as `TypeGraph`s.
    """
    k_max = _integer(k_max, "k_max", 1)
    try:
        kind = _index(kind)
        key, mismatch = (RTYPE, kind), "family does not match the requested color count"
    except TypeError:
        kind = _as_palette(kind)
        key, mismatch = (DIRTYPE, None), "family does not match the requested palette"
    _check_kind(family.members[0], key, mismatch, mismatch)
    codec = _LabelCodec(kind)

    n_edge = (1 << len(codec.elements)) - 1
    n_self = n_edge - codec.whole
    budget = sum(n_self**k * n_edge ** (k * (k - 1) // 2) for k in range(1, k_max + 1))
    if budget > _CANDIDATE_BUDGET:
        raise SearchSpaceTooLarge(
            f"{budget} candidate templates exceed the exhaustive budget"
        )
    # Flat indices, and every relabeled index, stay below the budget; a
    # larger budget must keep them within int64.
    assert budget < 2**63, "flat indices exceed int64"

    kept = []
    for k in range(1, k_max + 1):
        for M in _class_representatives(k, codec):
            kept.extend(codec.templates(M[~_admits_any(family, M, codec)]))
    return TypeFamily(types=tuple(kept), size_bound=k_max)


def _class_representatives(k: int, codec: _LabelCodec):
    """Yield the label-mask tensors of the first candidate of every class.

    Candidates on k vertices are taken in `itertools.product` order,
    `_CHUNK` flat indices at a time.  A candidate is the first of its class
    exactly when no vertex relabeling gives a smaller flat index, so it is
    dropped as soon as one does; only the survivors are decoded by
    `_decode`.  Each yielded tensor holds one chunk's representatives, in
    generation order.
    """
    pairs = list(itertools.combinations(range(k), 2))
    n_self, n_edge, n_pair = len(codec.self_masks), len(codec.masks), len(pairs)
    total = n_self**k * n_edge**n_pair
    if total <= 1:
        # Nothing to tell apart.  Only here (width <= 1) does the budget let
        # k pass 5, where the k! relabelings below would not fit in memory.
        if total:
            yield _decode(np.zeros(1, dtype=np.int64), k, codec, [codec.masks] * n_pair)
        return
    # Digit rows: vertices, pairs in row-major order, then those pairs'
    # mirror images.  Relabeled by p, vertex x takes p[x]'s label and pair
    # (u, v) takes (p[u], p[v])'s, read from the other endpoint when p swaps
    # them; each weight row puts every digit at the place it takes there.
    radix = [n_self] * k + [n_edge] * n_pair
    place = [math.prod(radix[t + 1:]) for t in range(k + n_pair)]
    weights = np.zeros((math.factorial(k) - 1, k + 2 * n_pair), dtype=np.int64)
    for w, p in zip(weights, itertools.islice(itertools.permutations(range(k)), 1, None)):
        w[list(p)] = place[:k]
        for t, (u, v) in enumerate(pairs, start=k):
            a, b = sorted((p[u], p[v]))
            w[k + _pair_index(k, a, b) + n_pair * (p[u] > p[v])] = place[t]
    # Vertex digits weigh the most, so a candidate whose vertex digits are
    # out of order has a smaller sorted relabeling.
    vertex = np.indices((n_self,) * k).reshape(k, -1)
    ordered = np.all(vertex[:-1] <= vertex[1:], axis=0)
    mirror = codec.mirror(codec.masks) - 1
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        flat = flat[ordered[flat // n_edge**n_pair]]
        digits = np.empty((k + 2 * n_pair, len(flat)), dtype=np.int64)
        rest = flat
        for row in reversed(range(k + n_pair)):
            rest, digits[row] = np.divmod(rest, radix[row])
        digits[k + n_pair:] = mirror[digits[k:k + n_pair]]
        for w in weights:
            keep = np.flatnonzero(w @ digits >= flat)
            flat, digits = flat[keep], digits.take(keep, axis=1)
        yield _decode(flat, k, codec, [codec.masks] * n_pair)


def _first_avoiding(k: int, pair_masks: list, codec: _LabelCodec, family) -> np.ndarray | None:
    """One-template mask tensor of the first template on k vertices, with
    pair p fixed to pair_masks[p] and vertex masks in `itertools.product`
    order, that admits no family member; None if there is none.  The
    search stops at the first chunk with a survivor, and refuses more than
    `_CANDIDATE_BUDGET` labelings before it starts."""
    total = ((1 << len(codec.elements)) - 1 - codec.whole) ** k
    if total > _CANDIDATE_BUDGET:
        raise SearchSpaceTooLarge(f"{total} fiber labelings exceed the exhaustive budget")
    fixed = [np.array([m], dtype=np.int64) for m in pair_masks]
    # a chunk holds at most 16 * _CHUNK mask entries, so many blocks stay small
    step = max(1, _CHUNK * 16 // max(16, k * k))
    for start in range(0, total, step):
        M = _decode(np.arange(start, min(start + step, total), dtype=np.int64), k, codec, fixed)
        free = np.flatnonzero(~_admits_any(family, M, codec))
        if len(free):
            return M[free[:1]]
    return None


def _decode(flat: np.ndarray, k: int, codec: _LabelCodec, pair_masks: list) -> np.ndarray:
    """Label-mask tensor of the candidates at the given flat indices on k vertices.

    Vertex x ranges over `codec.self_masks` and pair p (row-major) over
    pair_masks[p], read from flat index i in mixed radix, which is
    `itertools.product` order.  Pair masks sit above the diagonal and
    their mirror images below it.
    """
    rest = flat
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
    dist must be a distribution (`validate_color_distribution`, or
    `validate_arrow_distribution` for digraphs).  The k x k entry costs are
    summed in row-major order, by the kernel `edit_distance_lower_bound` uses.
    """
    return _edit_fractions((K,), _checked_dist(K.kind, K.r, dist))[0]


def _checked_dist(kind: str, r: int | None, dist) -> tuple:
    dist = tuple(dist)
    if kind == RTYPE:
        if len(dist) != r:
            raise DimensionMismatch(f"expected {r} weights, got {len(dist)}")
        return validate_color_distribution(dist)
    if len(dist) != 2:
        raise DimensionMismatch(f"expected (p, q), got {len(dist)} weights")
    return validate_arrow_distribution(*dist)


def _edit_fractions(types, dist: tuple) -> list:
    """Edit fraction of each template: each distinct label is priced once,
    and a template sums its k x k entry costs in row-major order.  Both
    entries of a digraph pair take its stored label's price (the two arrow
    states weigh the same)."""
    priced, fractions = {}, []
    for K in types:
        cost = [priced[lab] if lab in priced else priced.setdefault(lab, _entry_cost(K.kind, lab, dist))
                for lab in K.self_labels + K.pair_labels]
        fractions.append(functools.reduce(operator.add, map(cost.__getitem__, _row_major(K.k)))
                         / (K.k * K.k))
    return fractions


def _entry_cost(kind: str, label: frozenset, dist: tuple) -> float:
    """Weight of the pair values a label does not allow."""
    if kind == RTYPE:
        return 1.0 - sum(dist[c - 1] for c in label)
    p, q = dist
    arrows = (STATE_FWD in label) + (STATE_BACK in label)
    return 1.0 - ((1.0 - p - 2.0 * q) * (STATE_NONE in label) + p * (STATE_BI in label) + q * arrows)


@functools.lru_cache(maxsize=64)
def _row_major(k: int) -> tuple:
    """Where phi(x, y) sits in self_labels + pair_labels, (x, y) row-major."""
    return tuple(x if x == y else k + _pair_index(k, *sorted((x, y)))
                 for x in range(k) for y in range(k))


@dataclass(frozen=True)
class BoundReport:
    """Best type-derived asymptotic floor on the distance to the property."""

    type: TypeGraph
    fraction: float
    value: float


def edit_distance_lower_bound(dist, family: TypeFamily, n: int) -> BoundReport:
    """Strongest expected-fraction bound over the family, scaled to n(n-1)/2.

    dist is checked as in `expected_edit_fraction`, once per template kind.
    Ties keep the earliest type in enumeration order.
    """
    n = _integer(n, "n", 1)
    if not family.types:
        raise EmptyFamily("no templates to bound with")
    for kind, r in dict.fromkeys((K.kind, K.r) for K in family.types):
        dist = _checked_dist(kind, r, dist)
    f = _edit_fractions(family.types, dist)
    best = max(range(len(f)), key=f.__getitem__)
    return BoundReport(type=family.types[best], fraction=f[best], value=f[best] * n * (n - 1) / 2)


def theorem_error_terms(n: int, k: int, r: int, eps: float) -> dict:
    """Finite-size slack between the expected-fraction display and n(n-1)/2.

    The five terms cover equipartition rounding, the diagonal of the
    quadratic form, density concentration, the irregular-pair allowance,
    and the deviating-pair allowance at regularity parameter eps.
    """
    eps = _real(eps, "eps", 0)
    n = _integer(n, "n", 1)
    k, r = _integer(k, "k", 1, n), _integer(r, "r", 2)
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
        head = {"kind": RTYPE, "r": int(K.r)}
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
        edges = {(e["u"], e["v"]): e["labels"] for e in obj["edges"]}
    except (KeyError, TypeError) as exc:
        raise RegracutError(f"malformed template object: {exc}") from None
    if _integer(obj.get("k", len(selfs)), "k", 0) != len(selfs):
        raise DimensionMismatch("k does not match the number of vertex labels")
    if kind == RTYPE:
        return rtype(obj["r"], selfs, edges)
    if kind == DIRTYPE:
        return dirtype(obj.get("palette", "P0"), selfs, edges)
    raise KindMismatch(f"unknown template kind {kind!r}")
