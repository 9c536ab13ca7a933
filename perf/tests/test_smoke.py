"""Smoke test of the benchmark: ``python3 -m pytest perf/tests -q``.

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/`` only):
it runs the whole benchmark at 1/20 size, which takes about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

from harness import END_TO_END, EXACT, PER_LAYER  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = ("ingest_powerlaw", "churn_uniform", "analytics_stream",
             "serve_mixed")


def quick(tmp_path, name, *extra) -> dict:
    out = tmp_path / f"{name}.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--out", str(out),
         *extra], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    reports = json.loads(out.read_text())["reports"]
    return {(r["workload"], r["trace"]): r for r in reports}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf")
    return {"a": quick(tmp, "a"),
            "same_seed": quick(tmp, "b", "--trace", "1"),
            "other_seed": quick(tmp, "c", "--trace", "1", "--seed", "1")}


def test_every_metric_is_emitted_with_a_legal_name(runs):
    end_to_end = [n for n, _ in END_TO_END]
    per_layer = [n for n, _, _ in PER_LAYER]
    assert all(NAME.match(n) for n in end_to_end + per_layer)
    for workload in WORKLOADS:
        plain, traced = runs["a"][workload, 0], runs["a"][workload, 1]
        assert list(plain["metrics"]) == end_to_end
        assert list(traced["metrics"]) == per_layer
        for report in (plain, traced):
            assert report["correct"] and report["failed"] == 0
            assert report["attempted"] >= 1
        assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_exact_counts_repeat_for_a_seed_and_move_with_it(runs):
    for workload in WORKLOADS:
        first = runs["a"][workload, 1]["metrics"]
        again = runs["same_seed"][workload, 1]["metrics"]
        other = runs["other_seed"][workload, 1]["metrics"]
        assert [first[n]["value"] for n in EXACT] == \
            [again[n]["value"] for n in EXACT]
        assert [first[n]["value"] for n in EXACT] != \
            [other[n]["value"] for n in EXACT]


def test_benchmark_json_matches_the_registry():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_perf_owns_its_load_generator():
    """No driver here may lean on the program's own generators or bench
    harness: a later PR could then move the numbers by editing them."""
    banned = ("repro.net.loadgen", "repro.bench.harness", "_common")
    for path in PERF.glob("*.py"):
        imports = [line for line in path.read_text().splitlines()
                   if line.lstrip().startswith(("import ", "from "))]
        for line in imports:
            assert not any(b in line for b in banned), (path.name, line)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero and print
    no result line."""
    import shutil

    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ingest_powerlaw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
