"""Complete edge-colored graphs and partially oriented digraphs.

Vertices are always 0..n-1.  A colored graph assigns every unordered pair a
color in {1..r}.  A digraph assigns every unordered pair one of four arrow
states: no arc, arcs both ways, a single arc from the lower-indexed endpoint
to the higher one ("fwd"), or the reverse ("back").  The ordered accessor
``arc(v, w)`` reads the state of the pair as seen from v, so
``arc(v, w) == "fwd"`` means the arc points v -> w regardless of index order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    BadDistribution,
    BadState,
    ColorOutOfRange,
    DuplicatePair,
    KindMismatch,
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


RTYPE = "rtype"
DIRTYPE = "dirtype"

# Shifted code of a pair read from its other endpoint: the identity on every
# code an int16 color matrix can hold, or fwd and back swapped.
_COLOR_MIRROR = np.arange(np.iinfo(np.int16).max + 1, dtype=np.int16)
_STATE_MIRROR = np.array([0, 1, 2, 4, 3], dtype=np.int16)
_COLOR_MIRROR.setflags(write=False)
_STATE_MIRROR.setflags(write=False)


class _CodeGraph:
    """Trusted read-only internals both graph kinds share, set once by `_set`.

    `_mp1` is the n x n int16 shifted code matrix: 0 on the diagonal and
    elsewhere the channel code 1.._nch of the pair read from the row
    vertex.  Channel code c is labelled `_labels[c - 1]`, and `_mirror[c]`
    is the code of the same pair read from the other endpoint.
    `_kind_key` is (RTYPE, r) or (DIRTYPE, None), so one comparison checks
    both the kind and the color count.  Color labels are a range, so a
    large r costs nothing.
    """

    __slots__ = ("n", "_m", "_mp1", "_nch", "_labels", "_mirror", "_kind_key")

    def _set(self, n: int, r: int | None, mp1: np.ndarray) -> None:
        """Take ownership of a shifted code matrix already known to be
        valid; r is the color count, None for a digraph."""
        mp1.setflags(write=False)
        self.n, self._mp1, self._kind_key = n, mp1, (DIRTYPE if r is None else RTYPE, r)
        if r is None:
            self._m = np.subtract(mp1, 1, dtype=np.int8)
            self._m.setflags(write=False)
            self._labels, self._mirror = DIGRAPH_STATES, _STATE_MIRROR
        else:
            # colors are their own shifted codes
            self.r, self._m, self._labels = r, mp1, range(1, r + 1)
            self._mirror = _COLOR_MIRROR[: r + 1]
        self._nch = len(self._labels)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only n x n code matrix: colors with 0 on the diagonal, or
        ordered-state codes with -1 on it."""
        return self._m

    def pairs(self):
        """Yield (u, v, color or state) for every unordered pair, u < v."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, self._labels[self._mp1[u, v] - 1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _CodeGraph)
            and self._kind_key == other._kind_key
            and self.n == other.n
            and np.array_equal(self._m, other._m)
        )

    def __hash__(self):
        return hash((self._kind_key, self.n, self._m.tobytes()))


class ColoredGraph(_CodeGraph):
    """Complete graph on n vertices with every pair colored from {1..r}."""

    __slots__ = ("r",)

    def __init__(self, n: int, r: int, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.int16)
        if n < 1:
            raise RegracutError(f"need at least one vertex, got n={n}")
        _check_color_count(r)
        if matrix.shape != (n, n):
            raise RegracutError(f"color matrix shape {matrix.shape} != ({n}, {n})")
        if np.any(np.diag(matrix) != 0):
            raise RegracutError("diagonal of the color matrix must be 0")
        if not np.array_equal(matrix, matrix.T):
            raise RegracutError("color matrix must be symmetric")
        off = matrix[~np.eye(n, dtype=bool)]
        if off.size and (off.min() < 1 or off.max() > r):
            raise ColorOutOfRange(f"colors must lie in 1..{r}")
        self._set(n, r, matrix.copy())

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise RegracutError("no color on the diagonal")
        return int(self._m[u, v])

    def with_color(self, u: int, v: int, color: int) -> "ColoredGraph":
        if not 1 <= color <= self.r:
            raise ColorOutOfRange(f"color {color} not in 1..{self.r}")
        m = self._m.copy()
        m[u, v] = m[v, u] = color
        return ColoredGraph(self.n, self.r, m)

    def __repr__(self):
        return f"ColoredGraph(n={self.n}, r={self.r})"


class Digraph(_CodeGraph):
    """Complete graph on n vertices with an arrow state on every pair.

    `matrix` is the ordered-state code matrix: entry (v, w) is the state of
    the pair as seen from v (codes follow DIGRAPH_STATES), with -1 on the
    diagonal; `_mp1` holds the same codes shifted by one.
    """

    __slots__ = ()

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
        self._set(n, None, np.add(matrix, 1, dtype=np.int16))

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

    def __repr__(self):
        return f"Digraph(n={self.n})"


def _check_color_count(r: int) -> None:
    """Refuse fewer than two colors, or more than the int16 color matrix holds."""
    if r < 2:
        raise RegracutError(f"need at least two colors, got r={r}")
    if r >= len(_COLOR_MIRROR):
        raise ColorOutOfRange(f"at most {len(_COLOR_MIRROR) - 1} colors fit the color matrix, got r={r}")


def _build(n: int, r: int | None, mp1: np.ndarray):
    """Graph owning a trusted int16 shifted code matrix: an r-graph, or a
    digraph when r is None."""
    G = object.__new__(Digraph if r is None else ColoredGraph)
    G._set(n, r, mp1)
    return G


def _check_kind(G, key, kind_msg: str, r_msg: str) -> None:
    """The one kind test: raise KindMismatch unless G is a graph with kind
    key `key` (a graph's, family's or template's).  The message is kind_msg
    when the kinds differ or G is not a graph, else r_msg formatted with
    the expected color count and G's."""
    got = G._kind_key if isinstance(G, _CodeGraph) else None
    if got != key:
        same = got is not None and got[0] == key[0]
        raise KindMismatch(r_msg.format(key[1], got[1]) if same else kind_msg)


def new_rgraph(n: int, r: int, assignments) -> ColoredGraph:
    """Build a colored graph from (u, v, color) triples covering every pair."""
    rows, cols, nonint, _ = _triple_columns(assignments, 3)
    return _from_columns(n, r, *cols, rows.__getitem__, nonint)


def new_digraph(n: int, assignments) -> Digraph:
    """Build a digraph from (u, v, state) triples with u < v covering every pair."""
    rows, (u, v), nonint, states = _triple_columns(assignments, 2)
    codes = np.fromiter(
        map(STATE_CODES.get, states, itertools.repeat(-1)), np.int8, len(states)
    )
    return _from_columns(n, None, u, v, codes, rows.__getitem__, nonint)


_INTEGRAL = (int, np.integer, np.bool_)


def _triple_columns(assignments, ints: int):
    """Split (u, v, value) triples into columns.

    Returns the triples as a list, their first `ints` columns as int64 rows,
    the mask of triples with a non-integer entry there (None if there is
    none) and the value column as given.  Python and numpy integers and
    bools are integral; an integer beyond +-2**62 reads as -1, which every
    range check rejects.
    """
    rows = list(assignments)
    try:
        cols = list(zip(*rows, strict=True)) if rows else [(), (), ()]
    except (TypeError, ValueError):
        cols = []
    if len(cols) != 3:
        raise RegracutError("assignments must be (u, v, value) triples")
    try:
        block = np.asarray(cols[:ints])
    except (OverflowError, ValueError):
        block = None
    if block is not None and block.ndim == 2 and (block.dtype.kind in "biu" or not block.size):
        return rows, block.astype(np.int64, copy=False), None, cols[2]
    ok = np.array([[isinstance(x, _INTEGRAL) for x in col] for col in cols[:ints]])
    block = np.array([
        [int(x) if k and -(2**62) < x < 2**62 else -1 for x, k in zip(col, oks)]
        for col, oks in zip(cols[:ints], ok)
    ], dtype=np.int64)
    return rows, block, ~ok.all(axis=0), cols[2]


def _from_columns(n, r, u, v, val, triple, nonint=None):
    """Validate (u, v, value) columns and build the graph they describe.

    `r` is None for a digraph, whose values are state codes (-1 for a state
    outside DIGRAPH_STATES).  `triple(i)` returns the i-th triple as given,
    for messages, and `nonint` marks triples with a non-integer entry.  The
    first offending triple raises, with the checks in the order the
    per-triple constructors applied them.  Pairs are sorted, not counted in
    an n x n table, so the pair count is checked before the matrix exists.
    """
    if n < 1:
        raise RegracutError(f"need at least one vertex, got n={n}")
    if r is not None:
        _check_color_count(r)
    if r is None or not np.any(u > v):  # nothing to reorder; `bad` checks u < v
        a, b = u, v
        bad = (u < 0) | (u >= v) | (v >= n)
    else:
        a, b = np.minimum(u, v), np.maximum(u, v)
        bad = (a < 0) | (a == b) | (b >= n)
    if r is None:
        bad_value = val < 0
    else:
        bad_value = (val < 1) | (val > r)
    order, same = _pair_order(a, b, n)
    fail = bad | bad_value if nonint is None else bad | bad_value | nonint
    if np.count_nonzero(fail) or np.count_nonzero(same):
        dup = np.zeros(len(a), dtype=bool)
        dup[np.arange(len(a))[order][1:][same]] = True
        i = int((fail | dup).argmax())
        given = triple(i)
        x, y, value = given
        if nonint is not None and nonint[i]:
            raise RegracutError(f"non-integer value in triple {given!r}")
        if r is None:
            if bad[i]:
                raise RegracutError(f"digraph assignment needs 0 <= u < v < n, got ({x}, {y})")
            if dup[i]:
                raise DuplicatePair(f"pair ({x}, {y}) assigned twice")
            raise BadState(f"unknown state {value!r} on pair ({x}, {y})")
        if bad[i]:
            raise RegracutError(f"bad pair ({x}, {y}) for n={n}")
        x, y = (x, y) if x < y else (y, x)
        if dup[i]:
            raise DuplicatePair(f"pair ({x}, {y}) assigned twice")
        raise ColorOutOfRange(f"color {value} not in 1..{r} on pair ({x}, {y})")
    want = n * (n - 1) // 2
    if len(a) != want:
        x, y = _first_missing(a[order], b[order], n)
        raise MissingPair(f"{want - len(a)} pairs missing, e.g. ({x}, {y})")
    m = np.zeros((n, n), dtype=np.int16)
    m[a, b] = val + 1 if r is None else val  # pairs above the diagonal
    m += m.T if r is not None else _STATE_MIRROR[m.T]  # and their mirrors below
    return _build(n, r, m)


def _pair_order(a, b, n):
    """Stable sort order of the pairs (a, b), row-major (a slice when they
    are already in order), and for each sorted pair after the first whether
    it equals the one before it."""
    # a * n + b fits int64 below 2**31
    keys = (np.multiply(a, n, dtype=np.int64) + b,) if n < 2**31 else (b, a)
    if len(keys) == 1 and not np.any(keys[0][1:] < keys[0][:-1]):
        return slice(None), keys[0][1:] == keys[0][:-1]  # as dumps_graph writes them
    order = np.lexsort(keys)
    same = np.ones(max(len(a) - 1, 0), dtype=bool)
    for key in keys:
        key = key[order]
        same &= key[1:] == key[:-1]
    return order, same


def _first_missing(a, b, n):
    """First pair u < v < n, in row-major order, absent from the sorted,
    distinct pairs (a, b)."""
    wrap = b + 1 == n
    next_a = np.concatenate(([0], np.where(wrap, a + 1, a)))
    next_b = np.concatenate(([1], np.where(wrap, a + 2, b + 1)))
    gap = (next_a[:-1] != a) | (next_b[:-1] != b)
    k = int(gap.argmax()) if gap.any() else len(a)
    return int(next_a[k]), int(next_b[k])


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
    codes = np.unique(G.matrix[np.triu_indices(G.n, 1)])
    used = {DIGRAPH_STATES[c] for c in codes.tolist()}
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
    if not all(x >= 0 for x in p):  # NaN too
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
    if not (p >= 0 and q >= 0):  # NaN too
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
    _check_color_count(len(p))
    return _sample(n, len(p), np.asarray(p) / sum(p), seed)


def sample_digraph(n: int, p: float, q: float, seed: int = 0) -> Digraph:
    """Draw every pair independently: bi w.p. p, fwd w.p. q, back w.p. q, none otherwise."""
    p, q = validate_arrow_distribution(p, q)
    weights = np.clip(np.array([1.0 - p - 2 * q, p, q, q]), 0.0, None)
    return _sample(n, None, weights / weights.sum(), seed)


def _sample(n: int, r: int | None, p: np.ndarray, seed: int):
    """Graph whose pairs u < v read channel code c + 1 from u with
    probability p[c], independently; r is None for a digraph."""
    if n < 1:
        raise RegracutError(f"need at least one vertex, got n={n}")
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(p), size=n * (n - 1) // 2, p=p) + 1
    mirror = _STATE_MIRROR if r is None else _COLOR_MIRROR
    m = np.zeros((n, n), dtype=np.int16)
    iu, ju = np.triu_indices(n, 1)
    m[iu, ju] = draws
    m[ju, iu] = mirror[draws]
    return _build(n, r, m)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

#: Bytes per chunk of the byte-level parse, rounded up to whole lines;
#: bounds its temporary arrays.
_CHUNK = 1 << 17

#: State names as the token words of `_scan_chunk`: the name in the top
#: bytes and zeros below.  No token holds a 0 byte, so its word fixes it.
_STATE_WORDS = tuple(int.from_bytes(s.encode().rjust(8, b"\0"), "little") for s in DIGRAPH_STATES)


def dumps_graph(G) -> str:
    """Serialize a graph to its line format (sorted pairs, LF endings)."""
    if not isinstance(G, _CodeGraph):
        raise RegracutError(f"cannot serialize {type(G).__name__}")
    lines = [f"rgraph {G.r} {G.n}" if G._kind_key[0] == RTYPE else f"digraph {G.n}"]
    names = ["", *map(str, G._labels)]
    ids = [str(i) for i in range(G.n)]
    for u in range(G.n - 1):
        lead = ids[u] + " "
        values = map(names.__getitem__, G._mp1[u, u + 1:].tolist())
        lines.append(lead + ("\n" + lead).join(map(" ".join, zip(ids[u + 1:], values))))
    return "\n".join(lines) + "\n"


def loads_graph(text: str):
    """Parse the line format; dispatches on the header token.

    Text as `dumps_graph` writes it, with LF, CRLF or CR line ends, is
    read column by column from its bytes; other text (tabs, blank lines,
    repeated spaces, signs, non-ASCII digits) and malformed lines go to
    the per-line tokeniser.  Both feed one validator, so they accept
    the same graphs and raise the same errors.
    """
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        return _loads_lines(text)
    return _loads_bytes(data)


def _header(line: str):
    """(n, r) from a stripped header line; r is None for a digraph."""
    head = line.split()
    kind = head[0]
    if kind not in ("rgraph", "digraph"):
        raise RegracutError(f"unknown graph kind {kind!r}")
    rgraph = kind == "rgraph"
    if len(head) != (3 if rgraph else 2):
        raise RegracutError(f"bad header {line!r}")
    try:
        sizes = [int(x) for x in head[1:]]
    except ValueError:
        raise RegracutError(f"bad header {line!r}") from None
    return (sizes[1], sizes[0]) if rgraph else (sizes[0], None)


def _loads_lines(text: str):
    """Tokenise line by line; reads any text the line format allows."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise RegracutError("empty graph file")
    n, r = _header(lines[0])
    value = str if r is None else int
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
    return new_digraph(n, triples) if r is None else new_rgraph(n, r, triples)


def _loads_bytes(data: bytes):
    """Parse ASCII bytes column by column, or line by line if not canonical."""
    # str.splitlines reads CRLF, and CR in text without LF, as one break, and
    # a final line with or without its break, so the tokeniser reads the same lines
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n") if b"\n" in data else data.replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    line = data[:data.find(b"\n")].decode("ascii")
    # a control byte in the header could be a line break to str.splitlines
    if line.isprintable() and line.strip():
        n, r = _header(line.strip())
        cols = _scan(data, len(line) + 1, r is None)
        if cols is not None:
            u, v, val = cols
            value = DIGRAPH_STATES.__getitem__ if r is None else int
            return _from_columns(
                n, r, u, v, val, lambda i: (int(u[i]), int(v[i]), value(val[i]))
            )
    return _loads_lines(data.decode("ascii"))


def _scan(data: bytes, head: int, digraph: bool):
    """(u, v, value) columns of the canonical body data[head:], or None if it
    is not one.  The body ends with an LF, and a header of at least 8 bytes
    comes before it.

    Canonical lines are `u v value` with single spaces and an LF ending,
    decimal u < v and, for an r-graph, a decimal color, each of at most 8
    digits; a digraph value is a state name and becomes its code.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    lines = np.count_nonzero(buf[head:] == 10)
    u = np.empty(lines, dtype=np.int32)  # tokens have at most 8 digits
    v = np.empty(lines, dtype=np.int32)
    val = np.empty(lines, dtype=np.int8 if digraph else np.int32)
    pos, done = head, 0
    while pos < len(data):
        end = data.find(b"\n", min(pos + _CHUNK, len(data)) - 1) + 1
        got = _scan_chunk(buf, pos, end, digraph)
        if got is None:
            return None
        k = len(got[0])
        u[done:done + k], v[done:done + k], val[done:done + k] = got
        pos, done = end, done + k
    return u, v, val


def _scan_chunk(buf: np.ndarray, pos: int, end: int, digraph: bool):
    """`_scan` on the whole lines buf[pos:end]."""
    seg = buf[pos:end]
    # spaces, LFs and every other byte below "!" (tabs, CRs, controls), in one pass
    seps = np.flatnonzero(seg < 33)
    lines = len(seps) // 3
    # every third is an LF and the spaces are two in three: the rest are spaces
    if len(seps) % 3 or np.count_nonzero(seg == 32) != 2 * lines or np.any(seg[seps[2::3]] != 10):
        return None
    # a token ends at each separator; shift is 8 * (8 - its width)
    shift = (9 - np.diff(seps, prepend=-1)).view(np.uint64) << np.uint64(3)
    if np.any(shift > 56):  # a token is empty or longer than 8 bytes
        return None
    # the unaligned little-endian word of the 8 bytes before each separator,
    # shifted to keep the token in its top bytes and zeros below
    before = np.ndarray((len(seg),), dtype="<u8", buffer=buf, offset=pos - 8, strides=(1,))
    words = (before[seps] >> shift << shift).reshape(lines, 3)
    x = _decimal(words)  # a digraph's value column is read as states instead
    if digraph:  # a state code, or -1 for a token that is no state name
        val = sum((words[:, 2] == w) * np.int8(c) for c, w in enumerate(_STATE_WORDS, 1)) - 1
        letters = int((seps[2::3] - seps[1::3]).sum()) - lines
    else:
        val, letters = x[:, 2], 0
    # spaces, LFs and state letters are the only non-digits a canonical chunk holds
    if (
        np.count_nonzero(seg - np.uint8(48) > 9) != 3 * lines + letters
        or np.any(val < 0)
        or np.any(x[:, 0] >= x[:, 1])
    ):
        return None
    return x[:, 0], x[:, 1], val


def _decimal(x: np.ndarray) -> np.ndarray:
    """Values of decimal tokens of 1 to 8 digits held as words with the
    token in the top bytes and zeros below (whether the bytes are digits is
    checked elsewhere)."""
    # the low nibble of "0".."9" is its digit, the zero bytes read as leading
    # zeros and the first digit sits in the lowest byte: combine neighbouring
    # bytes, then neighbouring byte pairs, then the two halves
    x = x & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = x * 10 + (x >> 8)
    lanes = np.uint64(0x000000FF000000FF)
    x = (x & lanes) * (100 + (1000000 << 32)) + ((x >> 16) & lanes) * (1 + (10000 << 32))
    return (x >> 32).view(np.int64)


def write_graph(G, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_graph(G))


def read_graph(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():  # checked first: decoding copies the whole file
            data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise RegracutError(
            f"{path} is not ASCII text ({exc.reason} at byte {exc.start})"
        ) from None
    return _loads_bytes(data)
