"""The benchmark's own tests: a tiny run of every workload, checks included.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from harness import DigestBook, Spans, fingerprint, pct

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_its_checks_and_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-day", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


#: Runs a command as a subreaper and prints how many processes it left:
#: its orphans are adopted here and not reaped until counted, so each one
#: counts, exited or not.
LEFTOVER_PROBE = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from harness import adopt_orphans, child_pids, reap_children
assert adopt_orphans()
proc = subprocess.run(sys.argv[2:], capture_output=True)
print(proc.returncode, len(child_pids()))
reap_children()
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_leaves_no_process_behind():
    # fleet-day spawns workers, whose multiprocessing resource trackers
    # outlive the processes that started them unless stopped.
    cmd = [sys.executable, RUN, "--workload", "fleet-day", "--seed", "7", "--seconds", "2", "--smoke"]
    proc = subprocess.run(
        [sys.executable, "-c", LEFTOVER_PROBE, HERE, *cmd], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.stdout.split() == ["0", "0"], proc.stdout[-3000:] + proc.stderr[-3000:]


def test_a_fingerprint_mismatch_is_reported():
    book = DigestBook("sweep-day", reference=lambda key: fingerprint([1.0]))
    book.stored = {"a": fingerprint([1.0])}
    assert book.mismatches([("a", fingerprint([1.0])), ("b", fingerprint([1.0]))]) == []
    assert len(book.mismatches([("a", fingerprint([1.0 + 2**-52]))])) == 1


def test_spans_nest_per_thread():
    spans = Spans(enabled=True)
    inner = spans.timed("inner", lambda: sum(range(1000)))
    outer = spans.timed("outer", lambda: inner())
    outer()
    (rec_inner,) = spans.named("inner")
    (rec_outer,) = spans.named("outer")
    assert rec_inner[1] == rec_outer[0] and rec_outer[1] == 0
    assert rec_outer[3] <= rec_inner[3] <= rec_inner[4] <= rec_outer[4]
    assert spans.root_time() == rec_outer[4] - rec_outer[3]


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert pct(values, 0.5) == 50 and pct(values, 0.99) == 99 and pct([], 0.5) == 0.0
