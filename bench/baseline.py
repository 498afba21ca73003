"""Record the benchmark's baseline numbers in bench/baseline.json.

Run from the repository root:

    python3 bench/baseline.py [--seconds 20] [--workload NAME ...]

For each workload this runs bench/run.py untraced on the default and the
held-out seed, and traced on the default seed, one process at a time, and
stores the parsed result lines, the traced run's per-job split and the
environment line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import DEFAULT_SEED, HELD_OUT_SEED, import_library  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    return env, json.loads(lines[-1]), [ln for ln in lines if ln.startswith("job ")]


def main() -> int:
    names = list(import_library()[1].WORKLOADS)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workload", nargs="+", default=names, choices=names)
    args = p.parse_args()
    path = BENCH / "baseline.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["seeds"] = {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}
    data["run_seconds"] = args.seconds
    for workload in args.workload:
        env, default, _ = run_once(workload, DEFAULT_SEED, args.seconds, 0)
        _, held_out, _ = run_once(workload, HELD_OUT_SEED, args.seconds, 0)
        _, traced, jobs = run_once(workload, DEFAULT_SEED, args.seconds, 1)
        data["env"] = env
        data.setdefault("workloads", {})[workload] = {
            "default": default, "held_out": held_out, "traced_default": traced,
            "traced_default_jobs": jobs,
        }
        print(workload, {k: v["value"] for k, v in default["metrics"].items()}, flush=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
