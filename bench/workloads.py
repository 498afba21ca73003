"""The four benchmark workloads: seeded job lists and the checks on their outputs.

A workload's ``setup(seed, workdir)`` builds every input from the seed and
returns the job list of one round.  The set of job shapes in a round is
fixed per workload and the seed draws the graphs, the library seeds and the
job order, so that every seed asks for about the same amount of work: a
seed-to-seed spread in the timings would otherwise hide a change in speed.

Jobs call the library through module attribute lookups made at call time
(``rg.decompose``, ``rg.cli.main``), never through function objects bound
at set-up, so that the tracer's rebinding sees every call.

``Job.verify(output)`` runs outside the timed region and returns the
problems found plus the output bytes whose digest is compared across
rounds and with the digests recorded in ``digests.json``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import regracut as rg
import regracut.cli


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    verify: Callable[[object], tuple[list[str], bytes]]


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _budget(nch: int, eps: float) -> int:
    return math.floor(64 / (nch * eps ** 4)) + 1


# ---------------------------------------------------------------------------
# decompose-sweep: library decompose + select_subclusters, acceptance-7 graphs
# ---------------------------------------------------------------------------

# (n, r, eps, m) shapes from the acceptance-7 draw (n 24-240, r 2-3,
# eps 0.25/0.3, m 2-3).  Each of these ends at the same orders, and so makes
# about the same number of certifier calls, on every graph drawn for it,
# which keeps the round's cost the same for every seed.  Shapes whose
# refinement stops at graph-dependent orders are left out: n=48, r=3,
# eps=0.25, m=2 ends at order 2 or 40, and the m=2 shapes that end at order
# 2 split into 24, 28 or 32 sub-blocks, which changes their cost by 1.8x.
SWEEP_SHAPES = (
    (24, 2, 0.3, 3),
    (48, 2, 0.25, 3),
    (48, 3, 0.25, 3),
    (48, 2, 0.3, 3),
    (72, 2, 0.25, 3),
    (144, 3, 0.3, 3),
    (240, 2, 0.3, 3),
)


def _decomposition_json(res, sel) -> dict:
    stats = res.pair_stats
    return {
        "coarse": [list(b) for b in res.coarse.blocks],
        "fine": [list(b) for b in res.fine.blocks],
        "fine_parent": list(res.fine.parent),
        "ell": res.ell,
        "iterations": res.iterations,
        "index_trace": list(res.index_trace),
        "irregular_top": [list(p) for p in stats.irregular_top],
        "unknown_top": stats.unknown_top,
        "irregular_sub": [list(p) for p in stats.irregular_sub],
        "unknown_sub": stats.unknown_sub,
        "deviation_bad_subpairs": [
            [i, j, c] for (i, j), c in sorted(stats.deviation_bad_subpairs.items())
        ],
        "deviating_pairs": [list(p) for p in stats.deviating_pairs],
        "bullets": res.bullets,
        "stalled": res.stalled,
        "cap_exceeded": res.cap_exceeded,
        "chosen": list(sel.chosen),
        "selection": [sel.irregular_pairs, sel.deviating_pairs, sel.draws],
    }


def _check_decomposition(G, res, sel, r: int, eps: float) -> list[str]:
    """Acceptance 7's iteration budget and deviation recount, plus the selection."""
    problems = []
    if res.iterations > _budget(r, eps):
        problems.append(f"{res.iterations} iterations over budget {_budget(r, eps)}")
    k, ell = res.coarse.order, res.ell
    for i, j in itertools.combinations(range(k), 2):
        base = rg.density_vector(G, res.coarse.blocks[i], res.coarse.blocks[j])
        count = 0
        for a, b in itertools.product(range(ell), repeat=2):
            d = rg.density_vector(G, res.fine.blocks[i * ell + a], res.fine.blocks[j * ell + b])
            count += bool(np.abs(d - base).max() >= eps)
        if res.pair_stats.deviation_bad_subpairs[(i, j)] != count:
            problems.append(f"pair ({i},{j}): reported "
                            f"{res.pair_stats.deviation_bad_subpairs[(i, j)]}, recounted {count}")
        if ((i, j) in res.pair_stats.deviating_pairs) != (count > eps * ell * ell):
            problems.append(f"pair ({i},{j}): deviating flag disagrees with the recount")
    if len(sel.chosen) != k or any(not 0 <= c < ell for c in sel.chosen):
        problems.append(f"selection {sel.chosen} does not pick one of {ell} per block")
    elif sel.blocks != tuple(res.fine.blocks[i * ell + c] for i, c in enumerate(sel.chosen)):
        problems.append("selected blocks do not match the chosen indices")
    return problems


def setup_decompose_sweep(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"decompose-sweep/{seed}")
    jobs = []
    for n, r, eps, m in SWEEP_SHAPES:
        G = rg.sample_rgraph(n, tuple(1.0 / r for _ in range(r)), seed=rng.randrange(2**31))
        efun = rg.EpsilonFunction.constant(eps)
        dseed = rng.randrange(1000)

        def run(G=G, m=m, efun=efun, dseed=dseed):
            res = rg.decompose(G, m, efun, cap=64, seed=dseed)
            return res, rg.select_subclusters(G, res, efun, seed=dseed)

        def verify(out, G=G, r=r, eps=eps):
            res, sel = out
            return _check_decomposition(G, res, sel, r, eps), _dump(_decomposition_json(res, sel))

        jobs.append(Job(f"n{n}-r{r}-eps{eps}-m{m}", run, verify))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# decompose-cli: in-process `regracut decompose` on graph files
# ---------------------------------------------------------------------------

# (kind, channels, n, m, eps, cap, certifier): r-graphs and digraphs at the
# default cap, two n=960 graphs (exit 3, cap exceeded) whose
# cap of 32 leaves blocks of 40-80 vertices, and one exact-certifier run
# whose m=8 gives blocks of 12, the exhaustive cap.
CLI_SHAPES = (
    ("rgraph", 3, 120, 3, 0.25, 256, "heuristic"),
    ("digraph", 4, 96, 3, 0.25, 256, "heuristic"),
    ("rgraph", 3, 960, 3, 0.25, 32, "heuristic"),
    ("digraph", 4, 960, 3, 0.25, 32, "heuristic"),
    ("rgraph", 2, 96, 8, 0.25, 256, "exact"),
)


def _check_cli_report(code: int, text: bytes, n: int, nch: int, eps: float) -> list[str]:
    if code not in (0, 3):
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("schema") != 1:
        problems.append(f"schema {report.get('schema')!r}, expected 1")
    if report["iterations"] > _budget(nch, eps):
        problems.append(f"{report['iterations']} iterations over budget {_budget(nch, eps)}")
    if sorted(v for block in report["fine"] for v in block) != list(range(n)):
        problems.append("fine blocks do not partition the vertices")
    if len(report["fine"]) != len(report["coarse"]) * report["ell"]:
        problems.append("fine order is not coarse order times ell")
    if (code == 3) != (report["stalled"] or report["cap_exceeded"]):
        problems.append(f"exit code {code} disagrees with the stop flags")
    return problems


def setup_decompose_cli(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"decompose-cli/{seed}")
    jobs = []
    for idx, (kind, nch, n, m, eps, cap, certifier) in enumerate(CLI_SHAPES):
        gseed = rng.randrange(2**31)
        if kind == "rgraph":
            G = rg.sample_rgraph(n, tuple(1.0 / nch for _ in range(nch)), seed=gseed)
        else:
            G = rg.sample_digraph(n, 0.2, 0.3, seed=gseed)
        name = f"{idx}-{kind}{n}-c{nch}-m{m}-eps{eps}-cap{cap}-{certifier}"
        graph_path = workdir / f"{name}.graph"
        out_path = workdir / f"{name}.json"
        rg.write_graph(G, graph_path)
        argv = [
            "decompose", "--input", str(graph_path), "--m", str(m), "--eps", str(eps),
            "--cap", str(cap), "--certifier", certifier,
            "--seed", str(rng.randrange(1000)), "--out", str(out_path),
        ]

        def verify(code, n=n, nch=nch, eps=eps, out_path=out_path):
            text = out_path.read_bytes() if out_path.exists() else b""
            problems = _check_cli_report(code, text, n, nch, eps)
            out_path.unlink(missing_ok=True)
            return problems, str(code).encode() + b"\n" + text

        jobs.append(Job(name, lambda argv=argv: rg.cli.main(argv), verify))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# templates: enumerate_types + edit_distance_lower_bound, then copy counting
# ---------------------------------------------------------------------------

def _random_simplex(rng: random.Random, r: int) -> tuple[float, ...]:
    w = [rng.random() + 0.05 for _ in range(r)]
    return tuple(x / sum(w) for x in w)


def _enumeration_job(name, kind, kmax, family, dist, n) -> Job:
    def run():
        types = rg.enumerate_types(kind, kmax, family)
        return types, rg.edit_distance_lower_bound(dist, types, n)

    def verify(out):
        types, bound = out
        problems = []
        keys = [rg.canonical_key(K) for K in types]
        if len(set(keys)) != len(keys):
            problems.append("two survivors share a canonical key")
        for K in types:
            if any(rg.embeds(H, K)[0] for H in family):
                problems.append(f"survivor {rg.type_to_json(K)} admits a family member")
                break
        best = max(rg.expected_edit_fraction(K, dist) for K in types)
        if bound.type not in types.types or bound.fraction != best:
            problems.append(f"bound fraction {bound.fraction!r}, best template gives {best!r}")
        payload = {
            "types": [rg.type_to_json(K) for K in types],
            "bound": [rg.type_to_json(bound.type), bound.fraction, bound.value],
        }
        return problems, _dump(payload)

    return Job(name, run, verify)


def _reference_count(G, H, parts) -> int:
    """Spanning-copy count by a loop over the first part, independent of einsum."""
    mg = G.matrix.astype(np.int64)
    mh = H.matrix.astype(np.int64)
    k = len(parts)
    ind = {(i, j): (mg[np.ix_(parts[i], parts[j])] == mh[i, j]).astype(np.int64)
           for i, j in itertools.combinations(range(k), 2)}
    if k == 3:
        return int(((ind[0, 1] @ ind[1, 2]) * ind[0, 2]).sum())
    total = 0
    for a in range(len(parts[0])):
        x, y, z = ind[0, 1][a], ind[0, 2][a], ind[0, 3][a]
        paths = (ind[1, 3] * z) @ ind[2, 3].T
        total += int((np.outer(x, y) * ind[1, 2] * paths).sum())
    return total


def _copy_job(name, G, H, parts, eta) -> Job:
    def run():
        return (rg.count_spanning_copies(G, H, parts, eta=eta),
                rg.check_embedding_lemma(G, H, parts, eta=eta))

    def verify(out):
        cc, report = out
        problems = []
        expected = _reference_count(G, H, parts)
        if cc.count != expected:
            problems.append(f"count {cc.count}, reference count {expected}")
        if report.copies != cc:
            problems.append("embedding check counted differently from count_spanning_copies")
        if cc.satisfied != (cc.count >= cc.bound):
            problems.append("satisfied flag disagrees with the bound")
        payload = {
            "count": [cc.count, cc.total, cc.bound, cc.satisfied],
            "pairs": [[p.i, p.j, str(p.channel), p.density, p.density_ok, p.regularity]
                      for p in report.pairs],
            "premises_hold": report.premises_hold,
        }
        return problems, _dump(payload)

    return Job(name, run, verify)


# (graph kind, k, part size) for the copy-counting jobs.
COPY_SHAPES = (
    ("rgraph", 3, 15), ("rgraph", 3, 100), ("rgraph", 3, 200),
    ("rgraph", 4, 15), ("rgraph", 4, 50), ("rgraph", 4, 75),
    ("digraph", 3, 100),
)


def setup_templates(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"templates/{seed}")
    mono = rg.ForbiddenFamily([rg.new_rgraph(3, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])])
    cycle = rg.ForbiddenFamily(
        [rg.new_digraph(3, [(0, 1, "fwd"), (1, 2, "fwd"), (0, 2, "back")])]
    )
    jobs = [_enumeration_job("enum-r3-k3-mono-triangle", 3, 3, mono,
                             _random_simplex(rng, 3), rng.randrange(50, 500))]
    for pal, kmax in (("P0", 2), ("P3", 3), ("P4", 3)):
        q = rng.uniform(0.05, 0.45)
        jobs.append(_enumeration_job(f"enum-{pal}-k{kmax}-3-cycle", pal, kmax, cycle,
                                     (rng.uniform(0.0, 1.0 - 2 * q), q), rng.randrange(50, 500)))
    for kind, k, size in COPY_SHAPES:
        n = k * size
        gseed = rng.randrange(2**31)
        if kind == "rgraph":
            G = rg.sample_rgraph(n, _random_simplex(rng, 2), seed=gseed)
            H = rg.new_rgraph(k, 2, [(u, v, rng.choice((1, 2)))
                                     for u, v in itertools.combinations(range(k), 2)])
        else:
            G = rg.sample_digraph(n, 0.2, 0.3, seed=gseed)
            H = rg.new_digraph(k, [(u, v, rng.choice(rg.DIGRAPH_STATES))
                                   for u, v in itertools.combinations(range(k), 2)])
        order = list(range(n))
        rng.shuffle(order)
        parts = [sorted(order[i * size:(i + 1) * size]) for i in range(k)]
        jobs.append(_copy_job(f"copies-{kind}-k{k}-{size}", G, H, parts, 0.3))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# edit-distance: acceptance-9 sandwich and exact distance on dense n=7 graphs
# ---------------------------------------------------------------------------

# One in SANDWICH_SHARE of the 5-vertex 2-colorings with each number of
# color-1 pairs is checked per round (128 of the 1024).  The exact search
# costs from 1 to 70 copy searches depending on that number, so a fixed
# share per count keeps the round's cost steady across seeds.
SANDWICH_SHARE = 8
# Dense n=7 samples per round, by their number of color-1 pairs.  The search
# deepens to about (color-1 pairs - 12), and its cost grows about threefold
# per level, so a fixed quota per count keeps the round's cost steady; the
# quotas follow the binomial weights of p=(0.9, 0.1) on 21 pairs.
DENSE_QUOTAS = {17: 2, 18: 4, 19: 6, 20: 6}
# A triangle-free graph on 7 vertices has at most 12 edges (Turan).
TRIANGLE_FREE_MAX_7 = 12


def _distance_payload(dist, witness) -> dict:
    return {"distance": dist, "witness": witness.matrix.tolist()}


def _sandwich_job(name, G, triangle, family, templates) -> Job:
    def run():
        dist, witness = rg.distance_to_property(G, family)
        fits = [rg.fit_to_type(G, K, assignment="best_of", trials=10, seed=0)
                for K in templates]
        return dist, witness, fits, [rg.has_induced_copy(f.graph, triangle) for f in fits]

    def verify(out):
        dist, witness, fits, copies = out
        problems = []
        best = min(f.cost for f in fits)
        if dist > best:
            problems.append(f"distance {dist} above the cheapest fit {best}")
        if any(copies):
            problems.append("a fitted graph still holds the pattern")
        if rg.has_induced_copy(witness, triangle) or rg.edit_distance(G, witness) != dist:
            problems.append("distance witness is not a pattern-free graph at that distance")
        payload = _distance_payload(dist, witness) | {
            "fits": [[f.cost, list(f.assignment)] for f in fits], "copies": copies}
        return problems, _dump(payload)

    return Job(name, run, verify)


def _dense_job(name, G, ones, triangle, family) -> Job:
    def run():
        return rg.distance_to_property(G, family)

    def verify(out):
        dist, witness = out
        problems = []
        if rg.has_induced_copy(witness, triangle) or rg.edit_distance(G, witness) != dist:
            problems.append("distance witness is not a pattern-free graph at that distance")
        if dist < ones - TRIANGLE_FREE_MAX_7:
            problems.append(f"distance {dist} below the Turan floor {ones - TRIANGLE_FREE_MAX_7}")
        return problems, _dump(_distance_payload(dist, witness))

    return Job(name, run, verify)


def setup_edit_distance(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"edit-distance/{seed}")
    triangle = rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    family = rg.ForbiddenFamily([triangle])
    templates = rg.enumerate_types(2, 3, family)
    pairs = list(itertools.combinations(range(5), 2))
    by_ones = {}
    for code in range(1 << len(pairs)):
        by_ones.setdefault(len(pairs) - code.bit_count(), []).append(code)
    jobs = []
    for _, codes in sorted(by_ones.items()):
        for code in rng.sample(codes, round(len(codes) / SANDWICH_SHARE)):
            colors = [1 + (code >> i & 1) for i in range(len(pairs))]
            G = rg.new_rgraph(5, 2, [(u, v, c) for (u, v), c in zip(pairs, colors)])
            jobs.append(_sandwich_job(f"sandwich-{code:04d}", G, triangle, family, templates))
    quotas = dict(DENSE_QUOTAS)
    while any(quotas.values()):
        gseed = rng.randrange(2**31)
        G = rg.sample_rgraph(7, (0.9, 0.1), seed=gseed)
        ones = int(np.count_nonzero(G.matrix == 1)) // 2
        if quotas.get(ones):
            quotas[ones] -= 1
            jobs.append(_dense_job(f"dense-{ones}-{gseed}", G, ones, triangle, family))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "decompose-sweep": setup_decompose_sweep,
    "decompose-cli": setup_decompose_cli,
    "templates": setup_templates,
    "edit-distance": setup_edit_distance,
}
