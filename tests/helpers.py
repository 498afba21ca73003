"""Shared builders for the test suite.

Everything here is deterministic; randomness always flows through an
explicit seed so failures reproduce.
"""

import itertools
import math
import random
import string

import numpy as np

import regracut as rg
from regracut import typegraphs as tg
from regracut.density import (
    IRREGULAR,
    _IRR,
    _certify_pairs,
    _channel_counts,
    _pair_densities,
    _qualifying_min,
    _witnesses,
)
from regracut.editdist import (
    EMPTY_EDGE_LABEL,
    NO_VALID_VERTEX_LABELS,
)
from regracut.errors import (
    BadState,
    ColorOutOfRange,
    DimensionMismatch,
    DuplicatePair,
    KindMismatch,
    MissingPair,
    RegracutError,
    SearchSpaceTooLarge,
    _real,
)
from regracut.graphs import (
    _COLOR_MIRROR,
    _STATE_MIRROR,
    STATE_CODES,
    _build,
    _check_kind,
)
from regracut.partitions import _cut, _vertex_sets

# state code of a pair read from its other endpoint: none, bi, fwd<->back
FLIP_CODE = np.array([0, 1, 3, 2], dtype=np.int8)


def mono_rgraph(n, r, color):
    """Complete r-graph with every pair carrying the same color."""
    return rg.new_rgraph(n, r, [(u, v, color) for u, v in itertools.combinations(range(n), 2)])


def mono_digraph(n, state):
    return rg.new_digraph(n, [(u, v, state) for u, v in itertools.combinations(range(n), 2)])


def two_block_rgraph(half, inside=1, across=2):
    """Planted structure on 2*half vertices: color `inside` within each
    half, color `across` between the halves."""
    n = 2 * half
    pairs = []
    for u, v in itertools.combinations(range(n), 2):
        same = (u < half) == (v < half)
        pairs.append((u, v, inside if same else across))
    return rg.new_rgraph(n, 2, pairs)


def rgraph_from_matrix(mat, r):
    """Build an r-graph from a symmetric integer matrix (diagonal ignored)."""
    n = len(mat)
    return rg.new_rgraph(
        n, r, [(u, v, int(mat[u][v])) for u, v in itertools.combinations(range(n), 2)]
    )


def density_direct(G, A, B):
    """Per-channel densities via a slice-and-count independent of
    density_vector's internals; the reference oracle for density tests."""
    labels = rg.channel_labels(G)
    counts = {lab: 0 for lab in labels}
    if isinstance(G, rg.ColoredGraph):
        for a in A:
            for b in B:
                counts[G.color(a, b)] += 1
    else:
        for a in A:
            for b in B:
                counts[G.arc(a, b)] += 1
    total = len(A) * len(B)
    return np.array([counts[lab] / total for lab in labels])


def random_disjoint_sets(rng, n, amin=2):
    """Two disjoint nonempty vertex subsets of 0..n-1."""
    perm = rng.permutation(n)
    a = int(rng.integers(amin, max(amin + 1, n // 2)))
    b = int(rng.integers(amin, max(amin + 1, n - a)))
    return sorted(int(x) for x in perm[:a]), sorted(int(x) for x in perm[a:a + b])


def heuristic_reference(G, A, B, gamma):
    """Pair-by-pair degree-tail witness search, one channel and tail at a
    time; the oracle for the batched heuristic kernel.

    Slow on purpose: every degree and candidate density is recomputed with
    the public `density_vector`.
    """
    A, B = sorted(A), sorted(B)
    a_min = min(max(1, math.ceil(gamma * len(A))), len(A))
    b_min = min(max(1, math.ceil(gamma * len(B))), len(B))
    if a_min == len(A) and b_min == len(B):
        return rg.RegularityReport(gamma, rg.UNKNOWN)
    labels = rg.channel_labels(G)
    base = rg.density_vector(G, A, B)

    def extreme(scores, count, high):
        order = sorted(range(len(scores)), key=lambda x: scores[x])  # stable
        return sorted(order[-count:] if high else order[:count])

    best = None
    for c in range(len(labels)):
        for high in (True, False):
            a_idx = extreme([rg.density_vector(G, [a], B)[c] for a in A], a_min, high)
            for _ in range(2):
                a_sel = [A[x] for x in a_idx]
                b_idx = extreme([rg.density_vector(G, a_sel, [b])[c] for b in B], b_min, high)
                b_sel = [B[x] for x in b_idx]
                a_idx = extreme([rg.density_vector(G, [a], b_sel)[c] for a in A], a_min, high)
                a_sel = [A[x] for x in a_idx]
                devs = np.abs(rg.density_vector(G, a_sel, b_sel) - base)
                if devs.max() > gamma and (best is None or devs.max() > best[0]):
                    best = (float(devs.max()), tuple(a_sel), tuple(b_sel), int(devs.argmax()))
    if best is None:
        return rg.RegularityReport(gamma, rg.UNKNOWN)
    dev, a_sel, b_sel, c = best
    witness = rg.RegularityWitness(a_sel, b_sel, labels[c], dev)
    return rg.RegularityReport(gamma, rg.IRREGULAR, witness)


def exact_pair_reference(G, A, B, gamma):
    """The exhaustive certifier one pair at a time, on sorted disjoint
    sides and 0 < gamma < 1: the oracle for the batched exact kernel.

    Per channel, one int64 product gives every qualifying A' its channel
    counts into each vertex of B; t then runs upward and the first mask
    row violating at the high tail, else the low tail, is the witness,
    whose deviation is recounted from the sub-pair itself.
    """
    a = np.asarray(sorted(A), dtype=np.intp)
    b = np.asarray(sorted(B), dtype=np.intp)
    na, nb = len(a), len(b)
    mp1, nch = G._mp1, G._nch
    sub = mp1[np.ix_(a, b)]
    base = _channel_counts(sub[None], nch)[0] / (na * nb)
    labels = rg.channel_labels(G)
    b_min = max(1, math.ceil(gamma * nb))

    masks = np.arange(1, 1 << na, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(na)) & 1).astype(np.int64)
    sizes = bits.sum(axis=1)
    keep = sizes.astype(float) >= gamma * na
    bits = bits[keep]
    sizes = sizes[keep]

    for c in range(nch):
        ind = (sub == c + 1).astype(np.int64)
        col_sums = bits @ ind                      # (masks, nb)
        order = np.argsort(col_sums, axis=1, kind="stable")
        srt = np.take_along_axis(col_sums, order, axis=1)
        pref = np.cumsum(srt, axis=1)
        total = pref[:, -1]
        for t in range(b_min, nb + 1):
            min_e = pref[:, t - 1]
            max_e = total - (pref[:, nb - t - 1] if t < nb else 0)
            denom = sizes * t
            hi = max_e / denom - base[c] > gamma
            lo = base[c] - min_e / denom > gamma
            for tail, viol in (("hi", hi), ("lo", lo)):
                rows = np.nonzero(viol)[0]
                if rows.size:
                    row = int(rows[0])
                    a_mask = bits[row] == 1
                    cols = np.sort(order[row][-t:] if tail == "hi" else order[row][:t])
                    cand = sub[a_mask][:, cols]
                    dens = _channel_counts(cand[None], nch)[0] / cand.size
                    witness = rg.RegularityWitness(
                        tuple(int(v) for v in a[a_mask]),
                        tuple(int(v) for v in b[cols]),
                        labels[c],
                        float(abs(dens[c] - base[c])),
                    )
                    return rg.RegularityReport(gamma, IRREGULAR, witness)
    return rg.RegularityReport(gamma, rg.REGULAR)


def certify_pairs(G, *args):
    """`_certify_pairs` with its hits turned into witnesses by position."""
    codes, found = _certify_pairs(G, *args)
    return codes, _witnesses(G, found)


def run_kernel(kernel, G, A, B, gamma):
    """A batched kernel on the pairs (A[p], B[p]), given as (P, |A|) and
    (P, |B|) index arrays, called as `_certify_pairs` calls it: on the
    gathered codes, their channel densities and the qualifying minima."""
    sub = G._mp1[A[:, :, None], B[:, None, :]]
    a_min, b_min = (_qualifying_min(gamma, s) for s in sub.shape[1:])
    base = _channel_counts(sub, G._nch) / (A.shape[1] * B.shape[1])
    return kernel(sub, base, a_min, b_min, gamma)


def kernel_witnesses(G, A, B, hits):
    """A batched kernel's hits on the pairs (A[p], B[p]) as witnesses by p."""
    return _witnesses(G, [(np.arange(len(A)), A, B, hits)])


def batch_reports(gamma, codes, witnesses):
    """The public reports of a batched certifier's verdict codes and
    witnesses, one per pair position."""
    verdicts = (rg.REGULAR, rg.IRREGULAR, rg.UNKNOWN)
    return [rg.RegularityReport(gamma, verdicts[c], witnesses.get(p))
            for p, c in enumerate(codes.tolist())]


def venn_refine_reference(part, pairs, witnesses, cap, seed):
    """Witness refinement one vertex at a time: each vertex's signature is a
    tuple of memberships in its block's witness subsets, grouped in a dict
    and sorted; the oracle for `decomposition._venn_refine`."""
    k = part.order
    touching = [[] for _ in range(k)]
    for (i, j), w in zip(pairs, witnesses):
        touching[i].append(set(w.a_prime))
        touching[j].append(set(w.b_prime))
    cells_per_block = []
    for i, block in enumerate(part.blocks):
        groups = {}
        for v in block:
            groups.setdefault(tuple(v in w for w in touching[i]), []).append(v)
        cells_per_block.append([groups[s] for s in sorted(groups, reverse=True)])
    ell = max(len(cells) for cells in cells_per_block)
    ell = min(ell, min(part.sizes()), cap // k)
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
    return rg.Equipartition(blocks, parent=[i for i in range(k) for _ in range(ell)])


def deviation_stats_reference(G, coarse, fine, ell, eps):
    """Deviating sub-pairs counted one top pair at a time from slices of the
    fine density tensor; the oracle for `decomposition._deviation_stats`."""
    k = coarse.order
    top = rg.pair_density_tensor(G, coarse)
    sub = rg.pair_density_tensor(G, fine)
    bad = {}
    deviating = []
    for i in range(k):
        for j in range(i + 1, k):
            block = sub[i * ell:(i + 1) * ell, j * ell:(j + 1) * ell]
            count = int((np.abs(block - top[i, j]).max(axis=2) >= eps).sum())
            bad[(i, j)] = count
            if count > eps * ell * ell:
                deviating.append((i, j))
    return bad, tuple(deviating)


def select_subclusters_reference(G, result, efun, trials=20, seed=0, certifier="heuristic"):
    """Subcluster selection one draw at a time: each draw's quality is
    summed pair by pair from per-pair `certify` reports and slices of the
    density tensors, and `min` keeps the first best draw; the oracle for
    `select_subclusters`."""
    coarse, fine, ell = result.coarse, result.fine, result.ell
    k = coarse.order
    eps, gamma_k = efun(0), efun(k)
    top = rg.pair_density_tensor(G, coarse)
    sub = rg.pair_density_tensor(G, fine)
    if ell ** k <= trials:
        draws = list(itertools.product(range(ell), repeat=k))
    else:
        rng = np.random.default_rng(seed)
        draws = [tuple(int(x) for x in rng.integers(0, ell, size=k)) for _ in range(trials)]
    reports = {}

    def quality(draw):
        irregular = deviating = 0
        for i, j in itertools.combinations(range(k), 2):
            bi, bj = i * ell + draw[i], j * ell + draw[j]
            if (bi, bj) not in reports:
                reports[bi, bj] = rg.certify(G, fine.blocks[bi], fine.blocks[bj], gamma_k, certifier)
            irregular += reports[bi, bj].verdict == rg.IRREGULAR
            deviating += bool(np.abs(sub[bi, bj] - top[i, j]).max() >= eps)
        return irregular, deviating

    (irregular, deviating), chosen = min(((quality(d), d) for d in draws), key=lambda qd: qd[0])
    blocks = tuple(fine.blocks[i * ell + chosen[i]] for i in range(k))
    return rg.SubclusterSelection(
        chosen=chosen,
        blocks=blocks,
        irregular_pairs=irregular,
        deviating_pairs=deviating,
        draws=len(draws),
        min_block_fraction=min(len(b) for b in blocks) / G.n,
    )


def enumerate_types_reference(kind, k_max, family):
    """Template enumeration one candidate at a time: every labeling is built
    as a `TypeGraph`, deduplicated by the public `canonical_key` and
    filtered by `embeds_reference`; the oracle for `enumerate_types`."""
    if k_max < 1:
        raise rg.RegracutError(f"k_max must be at least 1, got {k_max}")
    if isinstance(kind, int):
        if family.kind != "rtype" or family.r != kind:
            raise KindMismatch("family does not match the requested color count")
        elements = tuple(range(1, kind + 1))
        full = frozenset(elements)
        head = {"kind": "rtype", "r": kind}
    else:
        pal = rg.palette(kind) if isinstance(kind, str) else kind
        if family.kind != "dirtype":
            raise KindMismatch("family does not match the requested palette")
        elements = tuple(s for s in rg.DIGRAPH_STATES if s in pal)
        full = frozenset(rg.DIGRAPH_STATES)
        head = {"kind": "dirtype", "palette": pal}

    subsets = [
        frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
        for mask in range(1, 1 << len(elements))
    ]
    proper = [s for s in subsets if s != full]
    n_self, n_edge = len(proper), len(subsets)
    budget = sum(n_self**k * n_edge ** (k * (k - 1) // 2) for k in range(1, k_max + 1))
    if budget > tg._CANDIDATE_BUDGET:
        raise SearchSpaceTooLarge(
            f"{budget} candidate templates exceed the exhaustive budget"
        )

    candidates = []
    seen = set()
    for k in range(1, k_max + 1):
        pair_count = k * (k - 1) // 2
        for selfs in itertools.product(proper, repeat=k):
            for pairs in itertools.product(subsets, repeat=pair_count):
                K = rg.TypeGraph(k=k, self_labels=selfs, pair_labels=pairs, **head)
                key = rg.canonical_key(K)
                if key not in seen:
                    seen.add(key)
                    candidates.append(K)

    kept = tuple(K for K in candidates if not any(embeds_reference(H, K)[0] for H in family))
    return rg.TypeFamily(types=kept, size_bound=k_max)


def class_representatives_reference(k, codec):
    """The class-code dedup `typegraphs._class_representatives` replaced:
    each candidate's code is the smallest, over all vertex permutations, of
    its row-major label masks packed `width` bits apiece in a float64
    product (exact within the candidate budget, at most 50 bits), and the
    first candidate of each code is kept.  Yields the same tensors."""
    width = len(codec.elements)
    pair_masks = [codec.masks] * (k * (k - 1) // 2)
    total = len(codec.self_masks) ** k * len(codec.masks) ** len(pair_masks)
    if total <= 1:
        if total:
            yield tg._decode(np.zeros(1, dtype=np.int64), k, codec, pair_masks)
        return
    assert k * k * width <= 53
    shifts = width * np.arange(k * k - 1, -1, -1)
    perms = list(itertools.permutations(range(k)))
    weights = np.zeros((k * k, len(perms)))
    for col, p in enumerate(perms):
        weights[[p[i] * k + p[j] for i in range(k) for j in range(k)], col] = 2.0**shifts
    seen = np.empty(0, dtype=np.int64)
    for start in range(0, total, tg._CHUNK):
        M = tg._decode(np.arange(start, min(start + tg._CHUNK, total)), k, codec, pair_masks)
        code = (M.reshape(len(M), k * k) @ weights).min(axis=1).astype(np.int64)
        classes, first = np.unique(code, return_index=True)
        fresh = ~np.isin(classes, seen)
        seen = np.concatenate([seen, classes[fresh]])
        yield M[np.sort(first[fresh])]


def expected_edit_fraction_reference(K, dist):
    """The edit fraction as one Python loop over `TypeGraph.phi`, row-major,
    with no check of dist beyond its length."""
    dist = tuple(float(x) for x in dist)
    k = K.k
    total = 0.0
    if K.kind == "rtype":
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
                arrows = ("fwd" in lab) + ("back" in lab)
                covered = (1.0 - p - 2.0 * q) * ("none" in lab) + p * ("bi" in lab) + q * arrows
                total += 1.0 - covered
    return total / (k * k)


def embeds_reference(H, K):
    """Embedding search one pair at a time on `TypeGraph.phi`, with the
    fiber rules written out per graph kind; the oracle for `embeds` and the
    batched filter.  Returns (found, lexicographically first map)."""
    if isinstance(H, rg.ColoredGraph):
        if K.kind != "rtype":
            raise KindMismatch("colored graph against a digraph template")
        if H.r != K.r:
            raise KindMismatch(f"pattern has r={H.r} but template has r={K.r}")
    elif isinstance(H, rg.Digraph):
        if K.kind != "dirtype":
            raise KindMismatch("digraph against a colored-graph template")
    else:
        raise KindMismatch(f"unsupported pattern {type(H).__name__}")
    n, k = H.n, K.k
    assign = [-1] * n
    directed = isinstance(H, rg.Digraph)

    def ok(v, u):
        for w in range(v):
            if assign[w] == u:
                continue
            s = H.arc(w, v) if directed else H.color(w, v)
            if s not in K.phi(assign[w], u):
                return False
        fiber = [w for w in range(v) if assign[w] == u]
        if directed:
            return _fiber_ok_digraph(H, K.self_labels[u], fiber, v)
        return all(H.color(w, v) in K.self_labels[u] for w in fiber)

    def extend(v):
        if v == n:
            return True
        for u in range(k):
            if ok(v, u):
                assign[v] = u
                if extend(v + 1):
                    return True
                assign[v] = -1
        return False

    if extend(0):
        return True, tuple(assign)
    return False, None


def _fiber_ok_digraph(H, lab, fiber, v):
    has_fwd = "fwd" in lab
    has_back = "back" in lab
    for w in fiber:
        s = H.arc(w, v)
        if s in ("none", "bi"):
            if s not in lab:
                return False
        elif not (has_fwd or has_back):
            return False
    if has_fwd != has_back:
        # single-arrow fibers must stay inside some transitive order
        members = fiber + [v]
        arcs = []
        for a, b in itertools.combinations(members, 2):
            s = H.arc(a, b)
            if s == "fwd":
                arcs.append((a, b))
            elif s == "back":
                arcs.append((b, a))
        return _is_acyclic(members, arcs)
    return True


def _is_acyclic(vertices, arcs):
    indeg = {v: 0 for v in vertices}
    out = {v: [] for v in vertices}
    for a, b in arcs:
        out[a].append(b)
        indeg[b] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(vertices)


def construct_type_reference(G, blocks, delta, efun, family, certifier="heuristic",
                             palette=None):
    """`construct_type_from_partition` with its fiber step one candidate at
    a time: every vertex labeling is built as a `TypeGraph`, validated and
    checked with `embeds_reference`; the oracle for the batched fiber
    search.  The validation prologue and the pair-label step are the
    library's."""
    blocks = list(blocks)
    k = len(blocks)
    if k < 1:
        raise rg.RegracutError("need at least one block")
    blocks = _vertex_sets(G.n, blocks, [f"block {i}" for i in range(k)])
    _check_kind(
        G, family._kind_key,
        "family kind does not match the graph", "family color count does not match the graph",
    )
    directed = isinstance(G, rg.Digraph)
    gamma = efun(k)
    labels = rg.channel_labels(G)
    if directed:
        pal = tg._as_palette(palette if palette is not None else rg.P0)
        universe = tuple(s for s in rg.DIGRAPH_STATES if s in pal)
    else:
        universe = tuple(range(1, G.r + 1))
    gamma, delta = _real(gamma, "gamma", 0 if k > 1 else None), _real(delta, "delta")

    pair_labels = {}
    for i in range(k):
        for j in range(i + 1, k):
            codes, _ = _certify_pairs(G, blocks, [i], [j], gamma, certifier)
            certified = codes[0] != _IRR
            dens = _pair_densities(G, [blocks[i]], [blocks[j]])[0]
            label = frozenset(
                lab for idx, lab in enumerate(labels) if certified and dens[idx] >= delta
            )
            if not label:
                return rg.ConstructResult(
                    type=None, failure=EMPTY_EDGE_LABEL,
                    detail=f"block pair ({i}, {j}) offers no certified dense color",
                )
            if directed and not label <= set(universe):
                return rg.ConstructResult(
                    type=None, failure=EMPTY_EDGE_LABEL,
                    detail=f"block pair ({i}, {j}) is dense outside the palette",
                )
            pair_labels[(i, j)] = label

    full_mask = (1 << len(universe)) - 1
    skip_full = not directed or len(universe) == len(rg.DIGRAPH_STATES)
    subsets = [
        frozenset(e for t, e in enumerate(universe) if mask >> t & 1)
        for mask in range(1, full_mask + 1)
        if not (mask == full_mask and skip_full)
    ]
    head = {"kind": "dirtype", "palette": pal} if directed else {"kind": "rtype", "r": G.r}
    for selfs in itertools.product(subsets, repeat=k):
        K = rg.TypeGraph(
            k=k, self_labels=selfs,
            pair_labels=tuple(pair_labels[p] for p in sorted(pair_labels)), **head,
        )
        tg.validate_type(K)
        if not any(embeds_reference(H, K)[0] for H in family):
            return rg.ConstructResult(type=K)
    return rg.ConstructResult(
        type=None, failure=NO_VALID_VERTEX_LABELS,
        detail="no proper nonempty fiber labeling avoids the family",
    )


def sample_reference(n, r, p, seed):
    """The one-draw `graphs._sample` that row-block sampling replaced: all
    n(n-1)/2 codes in one `choice` call, written through `np.triu_indices`."""
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(p), size=n * (n - 1) // 2, p=p) + 1
    mirror = _STATE_MIRROR if r is None else _COLOR_MIRROR
    m = np.zeros((n, n), dtype=np.int16)
    iu, ju = np.triu_indices(n, 1)
    m[iu, ju] = draws
    m[ju, iu] = mirror[draws]
    return _build(n, r, m)


def dumps_graph_reference(G):
    """The pair-by-pair `dumps_graph` that row-wise formatting replaced."""
    head = f"rgraph {G.r} {G.n}" if isinstance(G, rg.ColoredGraph) else f"digraph {G.n}"
    return "\n".join([head] + [f"{u} {v} {value}" for u, v, value in G.pairs()]) + "\n"


def loads_graph_reference(text):
    """The line-by-line parser and per-triple constructors that `loads_graph`,
    `new_rgraph` and `new_digraph` replaced; the oracle for their columnar
    paths."""
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
        return new_rgraph_reference(n, r, triples)
    return new_digraph_reference(sizes[0], triples)


def new_rgraph_reference(n, r, assignments):
    """The per-triple `new_rgraph` loop."""
    if n < 1:
        raise RegracutError(f"n must be at least 1, got {n}")
    if r < 2:
        raise RegracutError(f"r must be at least 2, got {r}")
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
    return rg.ColoredGraph(n, r, m)


def new_digraph_reference(n, assignments):
    """The per-triple `new_digraph` loop."""
    if n < 1:
        raise RegracutError(f"n must be at least 1, got {n}")
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
        m[v, u] = FLIP_CODE[code]
    want = n * (n - 1) // 2
    got = int(seen.sum())
    if got != want:
        a, b = np.argwhere(np.triu(~seen, 1))[0]
        raise MissingPair(f"{want - got} pairs missing, e.g. ({a}, {b})")
    return rg.Digraph(n, m)


def palette_of_reference(G):
    """The pair-by-pair `palette_of` that one np.unique replaced."""
    used = set()
    for u in range(G.n):
        for v in range(u + 1, G.n):
            used.add(rg.DIGRAPH_STATES[G.matrix[u, v]])
    candidates = [p for p in rg.PALETTES if used <= p.allowed]
    return min(candidates, key=lambda p: (len(p.allowed), p.index))


def count_copies_reference(G, H, parts):
    """The single-einsum spanning-copy count that the clique counter in
    `embedding._count_copies` replaced: the pairwise compatibility
    indicators, contracted as int64."""
    if math.prod(map(len, parts)) == 0:
        return 0
    if len(parts) == 1:
        return len(parts[0])
    mg, mh = G._mp1, H._mp1
    letters = string.ascii_lowercase[: len(parts)]
    subscripts = []
    operands = []
    for i, j in itertools.combinations(range(len(parts)), 2):
        subscripts.append(letters[i] + letters[j])
        operands.append((mg[np.ix_(parts[i], parts[j])] == mh[i, j]).astype(np.int64))
    return int(np.einsum(",".join(subscripts) + "->", *operands, optimize=True))


def induced_copy_reference(mg, mh):
    """First injective map realizing pattern rows mh inside host rows mg
    (shifted codes), or None: plain backtracking, pattern vertex v trying
    host vertices in increasing order.  The reference for the bitset search
    of `find_induced_copy`."""
    n, h = len(mg), len(mh)
    if h > n:
        return None
    assign = [-1] * h
    used = [False] * n

    def extend(v):
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


def distance_to_property_reference(G, family, max_nodes=None):
    """Exact distance by iterative deepening with a fresh induced-copy
    search at every node: the first copy of the first member found is
    branched on, each of its pairs recolored to each alternative value,
    no pair touched twice.  The reference for `distance_to_property`'s
    copy table, with the same branching order and so the same witness.
    Returns None once it has visited more than `max_nodes` nodes."""
    colored = isinstance(G, rg.ColoredGraph)
    mp1, nch = G._mp1, G._nch
    m = mp1.tolist()
    mirror = list(range(nch + 1)) if colored else [0, *(FLIP_CODE + 1).tolist()]
    patterns = [H._mp1.tolist() for H in family]
    nodes = itertools.count()

    class OutOfNodes(Exception):
        pass

    def search(budget, touched):
        if max_nodes is not None and next(nodes) > max_nodes:
            raise OutOfNodes
        image = next(
            (img for mh in patterns if (img := induced_copy_reference(m, mh)) is not None), None
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
                    return True
            m[u][v], m[v][u] = current, mirror[current]
            touched.discard((u, v))
        return False

    try:
        for budget in range(G.n * (G.n - 1) // 2 + 1):
            if search(budget, set()):
                if colored:
                    return budget, rg.ColoredGraph(G.n, G.r, m)
                return budget, rg.Digraph(G.n, np.array(m) - 1)
    except OutOfNodes:
        return None
    raise RegracutError("the target property is empty here")


def fit_to_type_reference(G, K, assignment="balanced", trials=10, seed=0):
    """`fit_to_type` pair by pair: every trial builds its conformant graph
    with the same per-pair rules and is priced by `edit_distance`; the
    first cheapest trial wins.  The reference for the table-priced fits."""
    import random

    if assignment == "best_of":
        rng = random.Random(seed)
        assigns = []
        for _ in range(trials):
            order = list(range(G.n))
            rng.shuffle(order)
            assign = [0] * G.n
            for slot, v in enumerate(order):
                assign[v] = slot * K.k // G.n
            assigns.append(assign)
    elif assignment == "balanced":
        assigns = [[v * K.k // G.n for v in range(G.n)]]
    else:
        assigns = [list(assignment)]
    best = None
    for assign in assigns:
        m = G.matrix.copy()
        for u, v in itertools.combinations(range(G.n), 2):
            allowed = K.phi(assign[u], assign[v])
            if isinstance(G, rg.ColoredGraph):
                if m[u, v] not in allowed:
                    m[u, v] = m[v, u] = min(allowed)
                continue
            state = rg.DIGRAPH_STATES[m[u, v]]
            if assign[u] == assign[v]:
                target = _fiber_target_reference(state, allowed)
            elif state in allowed:
                target = state
            else:
                target = next(s for s in rg.DIGRAPH_STATES if s in allowed)
            m[u, v] = STATE_CODES[target]
            m[v, u] = FLIP_CODE[STATE_CODES[target]]
        fitted = rg.ColoredGraph(G.n, G.r, m) if isinstance(G, rg.ColoredGraph) else rg.Digraph(G.n, m)
        cost = rg.edit_distance(G, fitted)
        if best is None or cost < best.cost:
            best = rg.FitResult(graph=fitted, cost=cost, assignment=tuple(assign))
    return best


def _fiber_target_reference(state, label):
    """Within-fiber state: kept when the fiber allows it, single arrows
    pointed low-to-high when only one direction is allowed, otherwise the
    first of none, bi, fwd the label allows."""
    has_fwd, has_back = "fwd" in label, "back" in label
    if state in ("none", "bi") and state in label:
        return state
    if state in ("fwd", "back") and (has_fwd or has_back):
        return state if has_fwd and has_back else "fwd"
    if "none" in label:
        return "none"
    if "bi" in label:
        return "bi"
    return "fwd"
