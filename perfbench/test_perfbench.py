"""Self-tests for the benchmark, each at a size of a few seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from tlinkrec import model, relations, solver, timeml  # noqa: E402

SMALL_DOCS = {"reconcile-dense": 1, "reconcile-many-small": 4, "experiment-sparse": 2}


def bench(root: Path, workload: str, trace: int, timeout: float = 120):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--docs", str(SMALL_DOCS[workload])],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


def json_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = json_lines(proc.stdout)
    out = lines[-1]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    section = declared["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in section}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    if trace:
        breakdown = next(line for line in lines if "breakdown" in line)
        metrics = {name: m["value"] for name, m in out["metrics"].items()}
        parts = [metrics[name] for name in run.SELF_TIME_SPANS.values()]
        assert sum(parts) + metrics["unattributed_s"] == pytest.approx(
            metrics["traced_wall_s"], abs=1e-9)
        assert breakdown["absent"] == []


def three_node_votes() -> model.VoteTable:
    p, q, r = (timeml.EntityRef(timeml.EntityKind.EVENT_INSTANCE, f"ei{i}", "d")
               for i in (1, 2, 3))
    arcs = [timeml.CanonicalArc(p, q), timeml.CanonicalArc(q, r),
            timeml.CanonicalArc(p, r)]
    alpha = np.zeros((3, model.N_LABELS))
    alpha[:, relations.RelType.BEFORE.value - 1] = 1.0
    return model.VoteTable("d", arcs, alpha)


def test_gate_counts_a_corrupted_solution_as_failed():
    m = run.tlinkrec_modules()
    votes = three_node_votes()
    program = model.build_ip(votes)
    good = solver.solve(program)
    assert run.gate_document(m, votes, good)[0] is None

    before, after = relations.RelType.BEFORE, relations.RelType.AFTER
    assignment = {0: before, 1: before, 2: after}  # p<q, q<r but r<p
    objective = sum(votes.alpha[arc, rel.value - 1] for arc, rel in assignment.items())
    bad = replace(good, assignment=assignment, objective_value=float(objective))
    problems = solver.violations(program, bad)
    assert len(problems) == 1 and problems[0].startswith("triangle row")
    reason, _ = run.gate_document(m, votes, bad)
    assert reason.startswith("fails verification")

    unproven = replace(good, proven_optimal=False)
    assert run.gate_document(m, votes, unproven)[0] == "not proven optimal"


def test_missing_layer_function_is_reported_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in (tmp_path / "src" / "tlinkrec").glob("*.py"):
        text = path.read_text()
        path.write_text(re.sub(r"\benumerate_triangles\b", "_triangles", text))
    proc = bench(tmp_path, "reconcile-dense", 1)
    assert proc.returncode == 0, proc.stderr
    lines = json_lines(proc.stdout)
    assert next(line for line in lines if "breakdown" in line)["absent"] == [
        "model.enumerate_triangles"]
    out = lines[-1]
    assert out["correct"] is True
    assert out["metrics"]["model.enumerate_triangles_s"]["value"] == 0.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "reconcile-dense", 0, timeout=60)
    assert proc.returncode != 0
    assert json_lines(proc.stdout) == []


def test_speed_probe_takes_its_samples_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = probe.samples[1:-1]
    assert len(inside) >= 3
    assert probe.net_s == pytest.approx(probe.elapsed_s - sum(inside))
    assert probe.normalised_s() == pytest.approx(
        probe.net_s * speed.REFERENCE_CHUNK_S / probe.chunk_s)
