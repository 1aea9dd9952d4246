"""Harness self-test: every workload at tiny size, a few seconds each.

    python -m pytest perfbench/test_perfbench.py

Checks the result line's JSON shape, that the metric names and units are
the ones BENCHMARK.json declares, and that error_rate is 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_declared_metrics(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "api-dense", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_triangle_pairs_invert_the_pair_enumeration():
    idx = np.arange(50_000)
    i, j = gen._triangle_pairs(idx)
    assert np.all(i < j) and np.array_equal(j * (j - 1) // 2 + i, idx)


def test_sbm_edges_are_distinct_and_seeded():
    a = gen.sbm_edges([300, 200], 0.05, 0.01, np.random.default_rng(4))
    b = gen.sbm_edges([300, 200], 0.05, 0.01, np.random.default_rng(4))
    src, dst, labels = a
    assert np.all(src < dst) and np.unique(src * 500 + dst).size == src.size
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert labels.size == 500


def test_self_time_subtracts_direct_children():
    tr = Tracer(0)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p, _ in tr.spans]
    outer, inner = self_times(spans)
    assert inner == pytest.approx(spans[1]["end"] - spans[1]["start"])
    assert outer == pytest.approx(spans[0]["end"] - spans[0]["start"] - inner)
