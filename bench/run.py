"""regracut benchmark: one workload as a closed loop of seeded jobs.

Run from the repository root:

    python3 bench/run.py --workload decompose-sweep --seed 1106 --seconds 20 --trace 0

One client in one process with no worker threads: the next job starts when
the previous one returns.  The workload's job list is built from --seed,
then run round after round until --seconds have passed (at least two
rounds).  Outputs are checked after each round, outside the timed region.
Timings are scaled to the host's speed, measured by HostProbe.

With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (see tracer.py).  Earlier lines give the same numbers for
people, plus the environment.  --record-digests stores the output digests
of this seed's jobs in digests.json.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()
# One client thread: no BLAS/OpenMP pools, and no REGRACUT_THREADS pool,
# which matches the library default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REGRACUT_THREADS", None)

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1106
HELD_OUT_SEED = 2871
SETUP_REPEATS = 3
MIN_ROUNDS = 2
# Host-speed probe: its time on a quiet host, and how often it runs between jobs.
PROBE_NOMINAL_S = 0.0015
PROBE_EVERY_S = 0.1

PER_LAYER_FUNCTIONS = {
    # name: stats reported besides self_s
    "density.irregularity_witness_heuristic": ("calls",),
    "density.density_vector": ("calls",),
    "density.pair_density_tensor": ("calls",),
    "density.is_regular_exact": ("calls",),
    "decomposition.regularize": ("calls",),
    "decomposition.decompose": ("calls",),
    "decomposition.select_subclusters": ("calls",),
    "graphs.read_graph": ("calls",),
    "cli.main": ("calls",),
    "graphs.sample_rgraph": (),
    "graphs.sample_digraph": (),
    "graphs.write_graph": (),
    "typegraphs.canonical_key": ("calls",),
    "typegraphs.embeds": ("calls",),
    "typegraphs.enumerate_types": (),
    "embedding.count_spanning_copies": ("calls",),
    "embedding.check_embedding_lemma": (),
    "editdist.distance_to_property": ("calls",),
    "editdist.find_induced_copy": ("calls",),
    "editdist.fit_to_type": ("calls",),
    "editdist.edit_distance": (),
}
# ratio name: (numerator counter, denominator counter or function calls)
PER_LAYER_RATIOS = {
    "density.irregularity_witness_heuristic.irregular_ratio":
        ("density.irregularity_witness_heuristic.irregular", "density.irregularity_witness_heuristic"),
    "typegraphs.canonical_key.unique_ratio":
        ("typegraphs.canonical_key.unique", "typegraphs.canonical_key"),
    "typegraphs.enumerate_types.kept_ratio":
        ("typegraphs.enumerate_types.kept", "typegraphs.enumerate_types.candidates"),
    "editdist.find_induced_copy.hit_ratio":
        ("editdist.find_induced_copy.hit", "editdist.find_induced_copy"),
}
PER_LAYER_COUNTS = (
    "decomposition.regularize.stop_satisfied",
    "decomposition.regularize.stop_stalled",
    "decomposition.regularize.stop_cap_exceeded",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this seed's output digests in digests.json")
    return p.parse_args(argv)


def import_library():
    """Import regracut from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import regracut
    if Path(regracut.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"regracut came from {regracut.__file__}, not {src}")
    import workloads
    return regracut, workloads


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


class HostProbe:
    """A fixed piece of interpreter and numpy work that uses no regracut code.

    On a shared 2-core Xeon VM the host's speed was seen to drift by up to
    1.7x within minutes as other tenants came and went, which swamps the
    changes this benchmark is meant to see.  The probe runs between jobs,
    never inside a timed job, at most every PROBE_EVERY_S.  The median of a
    run's probe times over PROBE_NOMINAL_S is the host's slowness during the
    run; the reported timings are divided by it, so that they read as on a
    host where the probe takes PROBE_NOMINAL_S.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.floats = rng.random(2048)
        self.codes = rng.integers(0, 5, 2048)
        self.matrix = rng.integers(-1, 4, (256, 256), dtype=np.int8)
        # 8 MiB read at random places: sensitive to cache and memory contention
        self.table = rng.integers(0, 1 << 20, 1 << 21, dtype=np.int32)
        self.places = rng.integers(0, 1 << 21, 1 << 14)
        self.samples = []
        self.last = -PROBE_EVERY_S

    def run(self):
        np = self.np
        t0 = time.perf_counter()
        acc = int((self.matrix.astype(np.int16) + 1).sum())
        acc += int(self.table[self.places].sum())
        acc += len({(i % 97, (i % 5, i % 3), i * 7 % 13) for i in range(1500)})
        for i in range(0, 2048, 32):
            acc += int(np.argsort(self.floats[i:i + 48], kind="stable")[0])
            acc += int(np.bincount(self.codes[i:i + 48], minlength=5)[1])
            acc += sum(v * v % 7 for v in range(40))
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return acc

    def between_jobs(self):
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.run()

    def slowness(self, start: int = 0, stop: int | None = None) -> float:
        """Median time of probes start..stop, over the nominal."""
        return statistics.median(self.samples[start:stop]) / PROBE_NOMINAL_S


class Round:
    """Timed job seconds and failures of one pass over the job list."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0


def run_job(job, tracer):
    """Run one job; returns (seconds, output, error)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = job.run()
        else:
            with tracer.installed(), tracer.job(job.name):
                out = job.run()
    except Exception as exc:  # a failing job is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def verify_job(job, out, error, reference: dict) -> list[str]:
    """Problems with one output; a digest seen first becomes the reference."""
    if error is not None:
        return [error]
    found, data = job.verify(out)
    digest = hashlib.sha256(data).hexdigest()
    if reference.setdefault(job.name, digest) != digest:
        found.append(f"output digest {digest[:12]} differs from {reference[job.name][:12]}")
    return found


def run_rounds(jobs, probe, seconds, reference, problems, tracer=None, min_rounds=MIN_ROUNDS):
    """Rounds over the job list until `seconds` have passed.

    Each job starts from a collected heap, with no earlier output alive, so
    its cost does not depend on the jobs before it; its output is checked
    right after it, outside the timed region and with tracing off.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rnd = Round()
        for job in jobs:
            gc.collect()
            probe.between_jobs()
            seconds_taken, out, error = run_job(job, tracer)
            found = verify_job(job, out, error, reference)
            del out
            rnd.attempted += 1
            rnd.seconds += seconds_taken
            if found:
                rnd.failed += 1
                problems.extend(f"{job.name}: {msg}" for msg in found)
        probe.run()
        rounds.append(rnd)
    return rounds


def per_layer_metrics(tracer, setup_totals, traced_rounds, overhead):
    calls0, self0, counts0 = setup_totals
    scale = 1.0 / len(traced_rounds)

    def value(table, base, key):
        # one set-up plus one round of the job list
        return base.get(key, 0) + (table.get(key, 0) - base.get(key, 0)) * scale

    metrics = {}
    for name, stats in PER_LAYER_FUNCTIONS.items():
        if "calls" in stats:
            metrics[f"{name}.calls"] = (value(tracer.calls, calls0, name), "count")
        metrics[f"{name}.self_s"] = (value(tracer.self_s, self0, name), "s")
    for name, (num, den) in PER_LAYER_RATIOS.items():
        top = tracer.counts.get(num, 0)
        bottom = tracer.counts.get(den, tracer.calls.get(den, 0))
        metrics[name] = (top / bottom if bottom else 0.0, "fraction")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (value(tracer.counts, counts0, name), "count")
    metrics["bench.self_s"] = (value(tracer.self_s, self0, "bench"), "s")
    other = [n for n in tracer.self_s if n != "bench" and n not in PER_LAYER_FUNCTIONS]
    metrics["trace.other.self_s"] = (sum(value(tracer.self_s, self0, n) for n in other), "s")
    metrics["trace.overhead_ratio"] = (overhead, "fraction")
    return metrics


def job_lines(tracer, traced_rounds) -> list[str]:
    """The set-up and each job taking 2% or more of a traced round: wall time
    and the largest self times, as ``name seconds/calls``."""
    split = {job: {name: (calls / (1 if job == "setup" else traced_rounds),
                          own / (1 if job == "setup" else traced_rounds))
                   for name, (calls, own) in table.items()}
             for job, table in tracer.jobs.items()}
    walls = {job: sum(own for _, own in table.values()) for job, table in split.items()}
    round_s = sum(w for job, w in walls.items() if job != "setup")
    lines = []
    for job in sorted(split, key=walls.get, reverse=True):
        if job != "setup" and walls[job] < 0.02 * round_s:
            continue
        top = sorted(split[job].items(), key=lambda kv: kv[1][1], reverse=True)[:4]
        lines.append(f"job {job} {walls[job]:.4g} s: " + ", ".join(
            f"{name} {own:.4g}/{calls:.0f}" for name, (calls, own) in top))
    return lines


def record_digests(workload, seed, jobs, reference):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data.setdefault(workload, {})[str(seed)] = {job.name: reference[job.name] for job in jobs}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        regracut, workloads = import_library()
    except ImportError as exc:
        print(f"error: cannot import regracut from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    setup = workloads.WORKLOADS[args.workload]
    recorded = {}
    if DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed), {})
    reference = dict(recorded)
    problems = []
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    probe = HostProbe()
    try:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(regracut)
            work.mkdir(parents=True)
            with tracer.installed(), tracer.job("setup"):
                jobs = setup(args.seed, work)
            setup_totals = tracer.snapshot()
            plain = run_rounds(jobs, probe, args.seconds / 2, reference, problems, min_rounds=1)
            mark = len(probe.samples)
            traced = run_rounds(jobs, probe, args.seconds / 2, reference, problems, tracer,
                                min_rounds=1)
            plain_s = statistics.median(r.seconds for r in plain) / probe.slowness(0, mark)
            traced_s = statistics.median(r.seconds for r in traced) / probe.slowness(mark)
            overhead = traced_s / plain_s - 1.0
            rounds = plain + traced
            metrics = per_layer_metrics(tracer, setup_totals, traced, overhead)
            details = job_lines(tracer, len(traced))
        else:
            details = []
            setup_times = []
            for i in range(SETUP_REPEATS):
                probe.run()
                t0 = time.perf_counter()
                (work / str(i)).mkdir(parents=True)
                jobs = setup(args.seed, work / str(i))
                setup_times.append(time.perf_counter() - t0)
            rounds = run_rounds(jobs, probe, args.seconds, reference, problems)
            rate = sum(r.attempted - r.failed for r in rounds) / sum(r.seconds for r in rounds)
            setup_s = import_s + statistics.median(setup_times)
            slowness = probe.slowness()
            print(f"unscaled jobs_per_s {rate:.6g} setup_s {setup_s:.6g}; "
                  f"host slowness {slowness:.4g} from {len(probe.samples)} probes")
            metrics = {
                "jobs_per_s": (rate * slowness, "jobs/s"),
                "setup_s": (setup_s / slowness, "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.record_digests and not failed:
        record_digests(args.workload, args.seed, jobs, reference)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"jobs/round {len(jobs)} digests {'recorded' if recorded else 'first round'}")
    print("round_s " + " ".join(f"{r.seconds:.3f}" for r in rounds))
    for line in details:
        print(line)
    for msg in problems[:20]:
        print(f"FAIL {msg}")
    for name, (val, unit) in metrics.items():
        print(f"{name} {val:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
