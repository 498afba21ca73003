"""The decomposition workloads of the benchmark reproduce their recorded bytes.

One round of the `decompose-sweep` and `decompose-cli` job lists of
`bench/workloads.py` at the default seed must pass each job's own checks
and hash to the sha256 recorded for that job in `bench/digests.json`, so
byte-identity is checked by the plain test run on every supported Python.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 1106


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["decompose-sweep", "decompose-cli"])
def test_one_round_matches_recorded_digests(workloads, name, tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text())[name][str(SEED)]
    jobs = workloads.WORKLOADS[name](SEED, tmp_path)
    assert sorted(job.name for job in jobs) == sorted(recorded)
    for job in jobs:
        problems, data = job.verify(job.run())
        assert problems == [], job.name
        assert hashlib.sha256(data).hexdigest() == recorded[job.name], job.name
