"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear;
without ``-s`` pytest shows them in the captured-output section. Every
check also enforces its own wall-clock budget.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np

import regracut as rg

import helpers

MAX_NOTES = 8


class Record:
    def __init__(self):
        self.ok = True
        self.notes = []

    def expect(self, condition, note):
        if not condition:
            self.ok = False
            if len(self.notes) < MAX_NOTES:
                self.notes.append(note)


@contextmanager
def criterion(number, name, limit_seconds):
    rec = Record()
    start = time.perf_counter()
    try:
        yield rec
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number}: FAIL ({name}; crashed after {elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    in_time = elapsed < limit_seconds
    status = "PASS" if rec.ok and in_time else "FAIL"
    print(
        f"ACCEPTANCE {number}: {status} "
        f"({name}; {elapsed:.2f}s of {limit_seconds:.0f}s allowed)"
    )
    for note in rec.notes:
        print(f"  - {note}")
    assert rec.ok, f"criterion {number} ({name}): " + "; ".join(rec.notes)
    assert in_time, f"criterion {number} ({name}) took {elapsed:.2f}s"


def random_simplex(rng, r):
    weights = np.array([rng.random() + 0.05 for _ in range(r)])
    return tuple(weights / weights.sum())


def color_triangle():
    return rg.new_rgraph(3, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])


def test_01_density_normalization():
    rng = random.Random(1)
    with criterion(1, "density vectors sum to one", 5.0) as rec:
        for trial in range(500):
            r = rng.choice([2, 3, 4])
            n = rng.randint(8, 60)
            G = rg.sample_rgraph(n, random_simplex(rng, r), seed=trial)
            A, B = helpers.random_disjoint_sets(np.random.default_rng(trial), n)
            total = float(np.sum(rg.density_vector(G, A, B)))
            rec.expect(
                abs(total - 1.0) <= 1e-12,
                f"trial {trial}: densities sum to {total!r}",
            )


def test_02_index_bounds_and_refinement():
    rng = random.Random(2)
    with criterion(2, "index bounds and refinement monotonicity", 10.0) as rec:
        for trial in range(500):
            r = rng.choice([2, 3])
            n = rng.randint(8, 40)
            k = rng.randint(2, min(6, n))
            G = rg.sample_rgraph(n, random_simplex(rng, r), seed=trial)
            part = rg.equipartition(n, k, seed=trial)
            ind = rg.partition_index(G, part)
            rec.expect(
                -1e-12 <= ind <= 0.5 + 1e-12,
                f"trial {trial}: index {ind!r} outside [0, 1/2]",
            )
        shapes = [(2, 2), (2, 3), (2, 6), (3, 2), (3, 4), (4, 2), (4, 3), (6, 2)]
        for trial in range(100):
            k, ell = shapes[trial % len(shapes)]
            G = rg.sample_rgraph(24, random_simplex(rng, 2), seed=1000 + trial)
            coarse = rg.equipartition(24, k, seed=trial)
            fine = rg.refine_equipartition(coarse, ell, seed=trial)
            gain = rg.partition_index(G, fine) - rg.partition_index(G, coarse)
            rec.expect(
                gain >= -1e-9,
                f"refinement trial {trial} (k={k}, ell={ell}): index fell by {-gain!r}",
            )


def test_03_defect_cauchy_schwarz():
    rng = random.Random(3)
    with criterion(3, "defect Cauchy-Schwarz inequality", 2.0) as rec:
        for trial in range(1000):
            n = rng.randint(2, 50)
            xs = [rng.uniform(0.0, 10.0) for _ in range(n)]
            m = rng.randint(1, n - 1)
            chk = rg.defect_cs_check(xs, m)
            rec.expect(chk.holds, f"trial {trial}: inequality reported violated")
            rec.expect(
                chk.lhs >= chk.rhs - 1e-9,
                f"trial {trial}: lhs {chk.lhs!r} < rhs {chk.rhs!r}",
            )
        flat = rg.defect_cs_check([1.0, 1.0, 1.0, 1.0], 2)
        rec.expect(
            flat.alpha == 0.0 and abs(flat.lhs - flat.rhs) <= 1e-12,
            "uniform sequence should meet the bound with equality",
        )
        skew = rg.defect_cs_check([2.0, 0.0], 1)
        rec.expect(
            abs(skew.lhs - 4.0) <= 1e-12 and abs(skew.rhs - 4.0) <= 1e-12,
            "head-heavy pair should give lhs = rhs = 4",
        )


def test_04_regularity_oracle_agreement():
    rng = random.Random(4)
    with criterion(4, "heuristic witnesses validated against the exact oracle", 60.0) as rec:
        for trial in range(200):
            r = rng.choice([2, 3])
            n = rng.randint(12, 20)
            G = rg.sample_rgraph(n, random_simplex(rng, r), seed=trial)
            size = rng.choice([5, 6])
            verts = rng.sample(range(n), 2 * size)
            A, B = verts[:size], verts[size:]
            gamma = rng.uniform(0.1, 0.5)
            heur = rg.certify(G, A, B, gamma, "heuristic")
            exact = rg.certify(G, A, B, gamma, "exact", exact_cap=12)
            if heur.verdict != "irregular":
                continue
            w = heur.witness
            rec.expect(
                len(w.a_prime) >= gamma * size - 1e-9
                and len(w.b_prime) >= gamma * size - 1e-9,
                f"trial {trial}: witness subsets below the size floor",
            )
            base = helpers.density_direct(G, A, B)
            sub = helpers.density_direct(G, w.a_prime, w.b_prime)
            ci = rg.channel_labels(G).index(w.color)
            dev = abs(sub[ci] - base[ci])
            rec.expect(
                dev >= gamma - 1e-12,
                f"trial {trial}: recomputed deviation {dev!r} below gamma {gamma!r}",
            )
            rec.expect(
                abs(dev - w.deviation) <= 1e-12,
                f"trial {trial}: reported deviation {w.deviation!r} != recomputed {dev!r}",
            )
            rec.expect(
                exact.verdict != "regular",
                f"trial {trial}: heuristic called irregular a pair the exact oracle certifies",
            )


def test_05_embedding_constants():
    with criterion(5, "embedding constants and the inequality chain", 1.0) as rec:
        g = rg.embedding_constants(0.5, 2).gamma
        rec.expect(abs(g - 1 / 6) <= 1e-12, f"gamma(1/2, 2) = {g!r}, expected 1/6")
        for eta_tenths in range(1, 10):
            eta = eta_tenths / 10
            for k in range(2, 7):
                gamma = rg.embedding_constants(eta, k).gamma
                lhs = max(2.0, 1.0 / (eta - gamma)) * gamma
                rhs = rg.embedding_constants(eta - gamma, k - 1).gamma
                rec.expect(
                    lhs <= rhs + 1e-12,
                    f"chain fails at eta={eta}, k={k}: {lhs!r} > {rhs!r}",
                )


def test_06_embedding_lemma_at_desk_scale():
    with criterion(6, "copy counts clear the embedding floor", 30.0) as rec:
        H = color_triangle()
        parts = [list(range(15)), list(range(15, 30)), list(range(30, 45))]
        delta = rg.embedding_constants(0.4, 3).delta
        floor = delta * 15 ** 3
        target = math.ceil(0.5 * 225)
        failures = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            colors = {
                (u, v): 2 for u, v in itertools.combinations(range(45), 2)
            }
            for a, b in itertools.combinations(range(3), 2):
                cross = [(u, v) for u in parts[a] for v in parts[b]]
                for t in rng.permutation(len(cross))[:target]:
                    colors[cross[t]] = 1
            G = rg.new_rgraph(45, 2, [(u, v, c) for (u, v), c in colors.items()])
            cc = rg.count_spanning_copies(G, H, parts, eta=0.4)
            if cc.count < floor:
                failures += 1
                report = rg.check_embedding_lemma(G, H, parts, eta=0.4)
                for pair in report.pairs:
                    rec.notes.append(
                        f"seed {seed} pair ({pair.i},{pair.j}) channel {pair.channel}: "
                        f"density {pair.density:.3f} ok={pair.density_ok}, "
                        f"regularity {pair.regularity}"
                    )
        rec.expect(
            failures <= 1,
            f"{failures}/20 seeds fell below the floor {floor:.2f}",
        )


def test_07_decomposition_loop_contract():
    rng = random.Random(7)
    configs = []
    for _ in range(30):
        configs.append((rng.choice([24, 36, 48, 60, 72, 96]), rng.choice([2, 3]),
                        rng.choice([0.25, 0.3]), rng.choice([2, 3])))
    for _ in range(15):
        configs.append((rng.choice([120, 144, 180]), rng.choice([2, 3]),
                        rng.choice([0.25, 0.3]), rng.choice([2, 3])))
    for _ in range(5):
        configs.append((rng.choice([216, 240]), rng.choice([2, 3]),
                        rng.choice([0.25, 0.3]), rng.choice([2, 3])))
    with criterion(7, "iteration budget and deviation recount", 300.0) as rec:
        for idx, (n, r, eps, m) in enumerate(configs):
            G = rg.sample_rgraph(n, tuple(1.0 / r for _ in range(r)), seed=idx)
            efun = rg.EpsilonFunction.constant(eps)
            res = rg.decompose(G, m, efun, cap=64, seed=idx)
            budget = math.floor(64 / (r * eps ** 4)) + 1
            rec.expect(
                res.iterations <= budget,
                f"graph {idx} (n={n}, r={r}, eps={eps}): "
                f"{res.iterations} iterations over budget {budget}",
            )
            k, ell = res.coarse.order, res.ell
            for i in range(k):
                for j in range(i + 1, k):
                    base = rg.density_vector(
                        G, res.coarse.blocks[i], res.coarse.blocks[j]
                    )
                    count = 0
                    for a in range(ell):
                        for b in range(ell):
                            d = rg.density_vector(
                                G,
                                res.fine.blocks[i * ell + a],
                                res.fine.blocks[j * ell + b],
                            )
                            if np.abs(d - base).max() >= eps:
                                count += 1
                    rec.expect(
                        res.pair_stats.deviation_bad_subpairs[(i, j)] == count,
                        f"graph {idx} pair ({i},{j}): reported "
                        f"{res.pair_stats.deviation_bad_subpairs[(i, j)]}, recounted {count}",
                    )
                    rec.expect(
                        ((i, j) in res.pair_stats.deviating_pairs)
                        == (count > eps * ell * ell),
                        f"graph {idx} pair ({i},{j}): deviating flag disagrees with recount",
                    )


def test_08_expected_fraction_worked_examples():
    with criterion(8, "expected edit fraction worked examples", 1.0) as rec:
        single = rg.rtype(2, [{1}], {})
        for p1 in (0.3, 0.5, 0.8):
            f = rg.expected_edit_fraction(single, (p1, 1 - p1))
            rec.expect(
                abs(f - (1 - p1)) <= 1e-12,
                f"single-vertex template at p1={p1}: {f!r} != {1 - p1!r}",
            )
        mixed = rg.rtype(2, [{1}, {2}], {(0, 1): {1, 2}})
        for p1 in (0.3, 0.5):
            f = rg.expected_edit_fraction(mixed, (p1, 1 - p1))
            rec.expect(
                abs(f - 0.25) <= 1e-12,
                f"mixed two-vertex template at p1={p1}: {f!r} != 0.25",
            )
        tournament = rg.dirtype(rg.P4, [{"fwd", "back"}], {})
        f = rg.expected_edit_fraction(tournament, (0.0, 0.5))
        rec.expect(abs(f) <= 1e-12, f"tournament template at q=1/2: {f!r} != 0")


def test_09_edit_distance_sandwich():
    with criterion(9, "distance below every template fit, fits triangle-free", 600.0) as rec:
        tri = color_triangle()
        family = rg.ForbiddenFamily([tri])
        templates = rg.enumerate_types(2, 3, family)
        rec.expect(len(templates) == 10, f"expected 10 templates, got {len(templates)}")
        pairs = list(itertools.combinations(range(5), 2))
        for bits in itertools.product((1, 2), repeat=10):
            G = rg.new_rgraph(5, 2, [(u, v, c) for (u, v), c in zip(pairs, bits)])
            dist, _ = rg.distance_to_property(G, family)
            best = None
            for K in templates:
                fit = rg.fit_to_type(G, K, assignment="best_of", trials=10, seed=0)
                if rg.has_induced_copy(fit.graph, tri):
                    rec.expect(
                        False, f"fitted graph for {bits} still holds the pattern"
                    )
                if best is None or fit.cost < best:
                    best = fit.cost
            rec.expect(
                dist <= best,
                f"graph {bits}: exact distance {dist} above cheapest fit {best}",
            )


def test_10_mean_distance_tracks_the_template_bound():
    with criterion(10, "edge-count distances concentrate on the bound", 30.0) as rec:
        family = rg.ForbiddenFamily([rg.new_rgraph(2, 2, [(0, 1, 1)])])
        distances = []
        for seed in range(200):
            G = rg.sample_rgraph(7, (0.5, 0.5), seed=seed)
            dist, _ = rg.distance_to_property(G, family)
            ones = sum(
                1 for u, v in itertools.combinations(range(7), 2) if G.color(u, v) == 1
            )
            rec.expect(
                dist == ones,
                f"seed {seed}: distance {dist} != color-1 pair count {ones}",
            )
            distances.append(dist)
        mean = sum(distances) / len(distances)
        spread = 3 * math.sqrt(21 * 0.25 / 200)
        rec.expect(
            abs(mean - 10.5) <= spread,
            f"mean distance {mean!r} outside 10.5 +/- {spread!r}",
        )
