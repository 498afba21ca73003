"""Complete edge-colored graphs and partially oriented digraphs.

Vertices are always 0..n-1.  A colored graph assigns every unordered pair a
color in {1..r}.  A digraph assigns every unordered pair one of four arrow
states: no arc, arcs both ways, a single arc from the lower-indexed endpoint
to the higher one ("fwd"), or the reverse ("back").  The ordered accessor
``arc(v, w)`` reads the state of the pair as seen from v, so
``arc(v, w) == "fwd"`` means the arc points v -> w regardless of index order.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadDistribution,
    BadState,
    ColorOutOfRange,
    DuplicatePair,
    MissingPair,
    RegracutError,
)

STATE_NONE = "none"
STATE_BI = "bi"
STATE_FWD = "fwd"
STATE_BACK = "back"

#: Canonical state order used for density vectors and serialized labels.
DIGRAPH_STATES = (STATE_NONE, STATE_BI, STATE_FWD, STATE_BACK)

STATE_CODES = {s: i for i, s in enumerate(DIGRAPH_STATES)}
_FLIP_CODE = np.array([0, 1, 3, 2], dtype=np.int8)  # none, bi, fwd<->back


def flip_state(state: str) -> str:
    """State of the same pair read from the opposite endpoint."""
    if state == STATE_FWD:
        return STATE_BACK
    if state == STATE_BACK:
        return STATE_FWD
    return state


class ColoredGraph:
    """Complete graph on n vertices with every pair colored from {1..r}."""

    __slots__ = ("n", "r", "_m")

    def __init__(self, n: int, r: int, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.int16)
        if n < 1:
            raise RegracutError(f"need at least one vertex, got n={n}")
        if r < 2:
            raise RegracutError(f"need at least two colors, got r={r}")
        if matrix.shape != (n, n):
            raise RegracutError(f"color matrix shape {matrix.shape} != ({n}, {n})")
        if np.any(np.diag(matrix) != 0):
            raise RegracutError("diagonal of the color matrix must be 0")
        if not np.array_equal(matrix, matrix.T):
            raise RegracutError("color matrix must be symmetric")
        off = matrix[~np.eye(n, dtype=bool)]
        if off.size and (off.min() < 1 or off.max() > r):
            raise ColorOutOfRange(f"colors must lie in 1..{r}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.n = n
        self.r = r
        self._m = matrix

    @property
    def matrix(self) -> np.ndarray:
        """Read-only n x n color matrix (0 on the diagonal)."""
        return self._m

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise RegracutError("no color on the diagonal")
        return int(self._m[u, v])

    def pairs(self):
        """Yield (u, v, color) for every unordered pair, u < v."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, int(self._m[u, v])

    def with_color(self, u: int, v: int, color: int) -> "ColoredGraph":
        if not 1 <= color <= self.r:
            raise ColorOutOfRange(f"color {color} not in 1..{self.r}")
        m = self._m.copy()
        m[u, v] = m[v, u] = color
        return ColoredGraph(self.n, self.r, m)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.n == other.n
            and self.r == other.r
            and np.array_equal(self._m, other._m)
        )

    def __hash__(self):
        return hash((self.n, self.r, self._m.tobytes()))

    def __repr__(self):
        return f"ColoredGraph(n={self.n}, r={self.r})"


class Digraph:
    """Complete graph on n vertices with an arrow state on every pair.

    Internally stores the ordered-state code matrix: entry (v, w) is the
    state of the pair as seen from v (codes follow DIGRAPH_STATES), with -1
    on the diagonal.  `_mp1` holds the same codes shifted by one (0 on the
    diagonal, states 1..4), the channel matrix the density code reads.
    """

    __slots__ = ("n", "_m", "_mp1")

    def __init__(self, n: int, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.int8)
        if n < 1:
            raise RegracutError(f"need at least one vertex, got n={n}")
        if matrix.shape != (n, n):
            raise RegracutError(f"state matrix shape {matrix.shape} != ({n}, {n})")
        if np.any(np.diag(matrix) != -1):
            raise RegracutError("diagonal of the state matrix must be -1")
        off_mask = ~np.eye(n, dtype=bool)
        off = matrix[off_mask]
        if off.size and (off.min() < 0 or off.max() > 3):
            raise BadState("state codes must lie in 0..3 off the diagonal")
        if not np.array_equal(matrix.T[off_mask], _FLIP_CODE[matrix[off_mask]]):
            raise BadState("opposite orientations of a pair must be flip-consistent")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        shifted = np.add(matrix, 1, dtype=np.int16)
        shifted.setflags(write=False)
        self.n = n
        self._m = matrix
        self._mp1 = shifted

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ordered-state code matrix (-1 on the diagonal)."""
        return self._m

    def arc(self, v: int, w: int) -> str:
        """Ordered state of the pair as seen from v."""
        if v == w:
            raise RegracutError("no state on the diagonal")
        return DIGRAPH_STATES[self._m[v, w]]

    def pair_state(self, u: int, v: int) -> str:
        """Unordered state of the pair, read from its lower-indexed endpoint."""
        if u == v:
            raise RegracutError("no state on the diagonal")
        a, b = (u, v) if u < v else (v, u)
        return DIGRAPH_STATES[self._m[a, b]]

    def pairs(self):
        """Yield (u, v, state) for every unordered pair, u < v."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, DIGRAPH_STATES[self._m[u, v]]

    def with_state(self, u: int, v: int, state: str) -> "Digraph":
        """New digraph with the unordered pair set to `state` (read low->high)."""
        if state not in STATE_CODES:
            raise BadState(f"unknown state {state!r}")
        a, b = (u, v) if u < v else (v, u)
        m = self._m.copy()
        code = STATE_CODES[state]
        m[a, b] = code
        m[b, a] = _FLIP_CODE[code]
        return Digraph(self.n, m)

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and np.array_equal(self._m, other._m)

    def __hash__(self):
        return hash((self.n, self._m.tobytes()))

    def __repr__(self):
        return f"Digraph(n={self.n})"


def new_rgraph(n: int, r: int, assignments) -> ColoredGraph:
    """Build a colored graph from (u, v, color) triples covering every pair."""
    if n < 1:
        raise RegracutError(f"need at least one vertex, got n={n}")
    if r < 2:
        raise RegracutError(f"need at least two colors, got r={r}")
    m = np.zeros((n, n), dtype=np.int16)
    seen = np.zeros((n, n), dtype=bool)
    for u, v, color in assignments:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise RegracutError(f"bad pair ({u}, {v}) for n={n}")
        a, b = (u, v) if u < v else (v, u)
        if seen[a, b]:
            raise DuplicatePair(f"pair ({a}, {b}) assigned twice")
        if not 1 <= color <= r:
            raise ColorOutOfRange(f"color {color} not in 1..{r} on pair ({a}, {b})")
        seen[a, b] = True
        m[a, b] = m[b, a] = color
    want = n * (n - 1) // 2
    got = int(seen.sum())
    if got != want:
        a, b = np.argwhere(np.triu(~seen, 1))[0]
        raise MissingPair(f"{want - got} pairs missing, e.g. ({a}, {b})")
    return ColoredGraph(n, r, m)


def new_digraph(n: int, assignments) -> Digraph:
    """Build a digraph from (u, v, state) triples with u < v covering every pair."""
    if n < 1:
        raise RegracutError(f"need at least one vertex, got n={n}")
    m = np.full((n, n), -1, dtype=np.int8)
    seen = np.zeros((n, n), dtype=bool)
    for u, v, state in assignments:
        if not (0 <= u < n and 0 <= v < n and u < v):
            raise RegracutError(f"digraph assignment needs 0 <= u < v < n, got ({u}, {v})")
        if seen[u, v]:
            raise DuplicatePair(f"pair ({u}, {v}) assigned twice")
        if state not in STATE_CODES:
            raise BadState(f"unknown state {state!r} on pair ({u}, {v})")
        seen[u, v] = True
        code = STATE_CODES[state]
        m[u, v] = code
        m[v, u] = _FLIP_CODE[code]
    want = n * (n - 1) // 2
    got = int(seen.sum())
    if got != want:
        a, b = np.argwhere(np.triu(~seen, 1))[0]
        raise MissingPair(f"{want - got} pairs missing, e.g. ({a}, {b})")
    return Digraph(n, m)


# ---------------------------------------------------------------------------
# palettes
# ---------------------------------------------------------------------------

class Palette:
    """One of the five closed state sets a digraph can draw its pairs from."""

    __slots__ = ("name", "allowed")

    def __init__(self, name: str, allowed):
        allowed = frozenset(allowed)
        has_fwd = STATE_FWD in allowed
        has_back = STATE_BACK in allowed
        if has_fwd != has_back:
            raise BadState("a palette contains both arrow states or neither")
        self.name = name
        self.allowed = allowed

    @property
    def index(self) -> int:
        return int(self.name[1:])

    def __contains__(self, state: str) -> bool:
        return state in self.allowed

    def __eq__(self, other) -> bool:
        return isinstance(other, Palette) and self.name == other.name and self.allowed == other.allowed

    def __hash__(self):
        return hash((self.name, self.allowed))

    def __repr__(self):
        return f"Palette({self.name})"


P0 = Palette("P0", DIGRAPH_STATES)
P1 = Palette("P1", (STATE_BI, STATE_FWD, STATE_BACK))
P2 = Palette("P2", (STATE_NONE, STATE_FWD, STATE_BACK))
P3 = Palette("P3", (STATE_NONE, STATE_BI))
P4 = Palette("P4", (STATE_FWD, STATE_BACK))

PALETTES = (P0, P1, P2, P3, P4)
_PALETTE_BY_NAME = {p.name: p for p in PALETTES}


def palette(name: str) -> Palette:
    try:
        return _PALETTE_BY_NAME[name]
    except KeyError:
        raise BadState(f"unknown palette {name!r}") from None


def palette_of(G: Digraph) -> Palette:
    """Smallest palette covering the states used by G.

    Ties (possible only when G uses no state at all, i.e. n = 1) and the
    general tie rule resolve by fewest allowed states, then lowest index.
    """
    used = set()
    for u in range(G.n):
        for v in range(u + 1, G.n):
            used.add(DIGRAPH_STATES[G.matrix[u, v]])
    candidates = [p for p in PALETTES if used <= p.allowed]
    return min(candidates, key=lambda p: (len(p.allowed), p.index))


# ---------------------------------------------------------------------------
# probability vectors
# ---------------------------------------------------------------------------

def validate_color_distribution(p, r: int | None = None) -> tuple[float, ...]:
    """Check a per-color probability vector: nonnegative, sums to 1 (1e-12)."""
    p = tuple(float(x) for x in p)
    if r is not None and len(p) != r:
        raise BadDistribution(f"expected {r} probabilities, got {len(p)}")
    if len(p) < 2:
        raise BadDistribution("need at least two colors")
    if any(x < 0 for x in p):
        raise BadDistribution("probabilities must be nonnegative")
    if abs(sum(p) - 1.0) > 1e-12:
        raise BadDistribution(f"probabilities sum to {sum(p)!r}, not 1")
    return p


def validate_arrow_distribution(p: float, q: float, pal: Palette | None = None) -> tuple[float, float]:
    """Check a digraph pair distribution (p, q): bi w.p. p, each arc direction w.p. q.

    When a palette is given, its support restriction is enforced:
    P1 forces p + 2q = 1, P2 forces p = 0 and q <= 1/2, P3 forces q = 0,
    P4 forces p = 0 and q = 1/2.
    """
    p = float(p)
    q = float(q)
    if p < 0 or q < 0:
        raise BadDistribution("p and q must be nonnegative")
    if p + 2 * q > 1 + 1e-12:
        raise BadDistribution(f"p + 2q = {p + 2 * q!r} exceeds 1")
    if pal is not None:
        tol = 1e-12
        if pal.name == "P1" and abs(p + 2 * q - 1.0) > tol:
            raise BadDistribution("palette P1 requires p + 2q = 1")
        if pal.name == "P2" and (abs(p) > tol or q > 0.5 + tol):
            raise BadDistribution("palette P2 requires p = 0 and q <= 1/2")
        if pal.name == "P3" and abs(q) > tol:
            raise BadDistribution("palette P3 requires q = 0")
        if pal.name == "P4" and (abs(p) > tol or abs(q - 0.5) > tol):
            raise BadDistribution("palette P4 requires p = 0 and q = 1/2")
    return p, q


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_rgraph(n: int, p, seed: int = 0) -> ColoredGraph:
    """Color every pair independently: color rho with probability p[rho-1]."""
    p = validate_color_distribution(p)
    r = len(p)
    if n < 1:
        raise RegracutError(f"need at least one vertex, got n={n}")
    rng = np.random.default_rng(seed)
    npairs = n * (n - 1) // 2
    draws = rng.choice(r, size=npairs, p=np.asarray(p) / sum(p)) + 1
    m = np.zeros((n, n), dtype=np.int16)
    iu, ju = np.triu_indices(n, 1)
    m[iu, ju] = draws
    m[ju, iu] = draws
    return ColoredGraph(n, r, m)


def sample_digraph(n: int, p: float, q: float, seed: int = 0) -> Digraph:
    """Draw every pair independently: bi w.p. p, fwd w.p. q, back w.p. q, none otherwise."""
    p, q = validate_arrow_distribution(p, q)
    if n < 1:
        raise RegracutError(f"need at least one vertex, got n={n}")
    rng = np.random.default_rng(seed)
    npairs = n * (n - 1) // 2
    weights = np.array([1.0 - p - 2 * q, p, q, q])
    weights = np.clip(weights, 0.0, None)
    draws = rng.choice(4, size=npairs, p=weights / weights.sum()).astype(np.int8)
    m = np.full((n, n), -1, dtype=np.int8)
    iu, ju = np.triu_indices(n, 1)
    m[iu, ju] = draws
    m[ju, iu] = _FLIP_CODE[draws]
    return Digraph(n, m)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def dumps_graph(G) -> str:
    """Serialize a graph to its line format (sorted pairs, LF endings)."""
    if isinstance(G, ColoredGraph):
        lines = [f"rgraph {G.r} {G.n}"]
        lines += [f"{u} {v} {c}" for u, v, c in G.pairs()]
    elif isinstance(G, Digraph):
        lines = [f"digraph {G.n}"]
        lines += [f"{u} {v} {s}" for u, v, s in G.pairs()]
    else:
        raise RegracutError(f"cannot serialize {type(G).__name__}")
    return "\n".join(lines) + "\n"


def loads_graph(text: str):
    """Parse the line format; dispatches on the header token."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise RegracutError("empty graph file")
    head = lines[0].split()
    kind = head[0]
    if kind not in ("rgraph", "digraph"):
        raise RegracutError(f"unknown graph kind {kind!r}")
    rgraph = kind == "rgraph"
    if len(head) != (3 if rgraph else 2):
        raise RegracutError(f"bad header {lines[0]!r}")
    try:
        sizes = [int(x) for x in head[1:]]
    except ValueError:
        raise RegracutError(f"bad header {lines[0]!r}") from None
    value = int if rgraph else str
    triples = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise RegracutError(f"bad line {ln!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), value(parts[2])
        except ValueError:
            raise RegracutError(f"bad line {ln!r}") from None
        if not u < v:
            raise RegracutError(f"pairs must be written with u < v, got {ln!r}")
        triples.append((u, v, c))
    if rgraph:
        r, n = sizes
        return new_rgraph(n, r, triples)
    return new_digraph(sizes[0], triples)


def write_graph(G, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_graph(G))


def read_graph(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise RegracutError(
                f"{path} is not ASCII text ({exc.reason} at byte {exc.start})"
            ) from None
    return loads_graph(text)
