"""Reconciliation benchmark: three synthetic workloads, measured in one process.

    python3 perfbench/run.py --workload reconcile-dense --seed 1 --seconds 30 --trace 0

Paths are resolved from this file, so any working directory works.  Each run
generates its corpus with ``synthetic.generate_corpus``, then repeats the
workload's measured phase for about ``--seconds`` and reports medians.  Every
pass is preceded by a timed set-up in a fresh interpreter (``import tlinkrec``,
numpy and scipy included, plus ``timeml.load_corpus``, as a CLI invocation
pays), and ``setup_s`` is the median of at least seven set-ups.  The pass itself
runs on a fresh, untimed in-process import and load, so module-level caches are
cold in every pass alike.  The host's speed drifts, so set-ups and untraced
passes are timed under ``speed.SpeedProbe`` and ``setup_s`` and ``wall_s`` are
normalised to a reference speed; the raw times are printed in the context
line.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, in raw seconds, of
the median traced pass.  Outputs are checked outside the timed window: every
document's full program is rebuilt and verified, optimality must be proven,
and every pass must reproduce the same objective total and F1.  The last line
of standard output is the JSON result.

Corpus content is pinned to generator seed 7 (the seed the workload sizes were
first measured at); ``--seed`` shuffles the order of the TLINKs in every file.
Content is pinned because the branch-and-bound cost is heavy-tailed: over 40
dense documents, 27 solved at the root and one took 73 nodes and 26 s, so
corpora drawn from different seeds differ in wall time by 2x, far more than
any change the benchmark must resolve.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = HERE / "manifest.json"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from tracing import HOOKS_SPAN, Tracer, pass_breakdown  # noqa: E402

CONTENT_SEED = 7
CLASSIFIERS = (("alpha", 0.1), ("beta", 0.25), ("gamma", 0.4))
MEMBERS = tuple(name for name, _ in CLASSIFIERS)
SETUP_REPEATS = 7
OBJECTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    n_events: Tuple[int, int]
    density: float
    experiment: bool  # procedure 2 over enumerate_ensembles, else reconcile


WORKLOADS = {w.name: w for w in (
    Workload("reconcile-dense", 3, (20, 30), 0.4, False),
    Workload("reconcile-many-small", 50, (4, 8), 0.6, False),
    Workload("experiment-sparse", 4, (60, 90), 0.08, True),
)}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "ok_frac": "ratio",
}

# Self time in the median traced pass; with unattributed_s they add up to
# traced_wall_s.
SELF_TIME_SPANS = {
    "timeml.load": "timeml.load_in_pass_s",
    "timeml.write": "timeml.write_s",
    "model.collect_arcs": "model.collect_arcs_s",
    "model.enumerate_triangles": "model.enumerate_triangles_s",
    "model.build_ip": "model.build_ip_s",
    "solver.solve": "solver.solve_s",
    "solver.lp": "solver.lp_s",
    "relations.closure": "relations.closure_s",
    "scoring.score": "scoring.score_s",
    "scoring.write_csv": "scoring.write_csv_s",
    "pipeline.reconcile": "pipeline.reconcile_s",
    "pipeline.write_reconciled": "pipeline.write_reconciled_s",
    HOOKS_SPAN: "trace.hooks_s",
}

PER_LAYER = {
    **{metric: "s" for metric in SELF_TIME_SPANS.values()},
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "timeml.load_s": "s",
    "timeml.links_parsed": "count",
    "timeml.links_skipped": "count",
    "model.arcs": "count",
    "model.triangles": "count",
    "model.rows": "count",
    "solver.nodes": "count",
    "solver.lp_iterations": "count",
    "solver.lp_calls": "count",
    "solver.doc_solve_max_s": "s",
    "solver.verify_s": "s",
    "solver.unvoted_labels": "count",
    "relations.closure_calls": "count",
    "relations.closure_repeat_frac": "ratio",
    "relations.closure_nodes": "count",
    "pipeline.weights_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def tlinkrec_modules() -> SimpleNamespace:
    return SimpleNamespace(**{
        name: sys.modules[f"tlinkrec.{name}"]
        for name in ("model", "pipeline", "scoring", "solver", "timeml")
    })


# -- inputs -----------------------------------------------------------------

def generate(workload: Workload, seed: int, docs: int, root: Path) -> None:
    """Pinned-content corpus; the seed only reorders each file's TLINKs."""
    synthetic = importlib.import_module("tlinkrec.synthetic")
    specs = [synthetic.SyntheticClassifier(name, rate) for name, rate in CLASSIFIERS]
    synthetic.generate_corpus(root, seed=CONTENT_SEED, n_docs=docs,
                              classifiers=specs, n_events=workload.n_events,
                              arc_density=workload.density)
    rng = random.Random(seed)
    for path in sorted(root.rglob("*.tml")):
        tree = ET.parse(path)
        top = tree.getroot()
        links = top.findall("TLINK")
        for link in links:
            top.remove(link)
        rng.shuffle(links)
        top.extend(links)
        tree.write(path, encoding="utf-8", xml_declaration=True)


# Run by a fresh interpreter: argv is this directory, the source directory and
# the corpus.  Prints normalised set-up s, raw set-up s and raw load_corpus s.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
sys.path.insert(0, sys.argv[2])
with SpeedProbe() as probe:
    import tlinkrec
    t1 = time.perf_counter()
    tlinkrec.load_corpus(sys.argv[3])
    t2 = time.perf_counter()
print(probe.normalised_s(), probe.net_s, t2 - t1)
"""


def timed_setup(corpus_root: Path) -> Tuple[float, float, float]:
    """`import tlinkrec` plus load in a new interpreter: see SETUP_CHILD."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), str(SRC),
                           str(corpus_root)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    normalised, raw, load_s = map(float, proc.stdout.split())
    return normalised, raw, load_s


def load(corpus_root: Path):
    """Fresh in-process import of tlinkrec plus load_corpus, for the next pass."""
    for key in [k for k in sys.modules if k == "tlinkrec" or k.startswith("tlinkrec.")]:
        del sys.modules[key]
    importlib.import_module("tlinkrec")
    return sys.modules["tlinkrec.timeml"].load_corpus(corpus_root)


def fingerprint(m: SimpleNamespace, corpus) -> str:
    """Digest of the parsed corpus: doc ids, canonical arcs and labels, weights."""
    digest = hashlib.sha256()
    runs = {"reference": corpus.reference, **corpus.runs}
    for name in sorted(runs):
        run = runs[name]
        digest.update(f"run {name} {run.f1_weight!r}\n".encode())
        for doc in sorted(run.documents):
            digest.update(f"doc {doc}\n".encode())
            votes = m.timeml.canonical_votes(run.documents[doc])
            for arc, rel in sorted(votes.items(), key=lambda kv: kv[0].key):
                digest.update(f"{arc.lo.kind.name} {arc.lo.id} {arc.hi.kind.name} "
                              f"{arc.hi.id} {rel.name}\n".encode())
    return digest.hexdigest()


# -- the measured phase -----------------------------------------------------

@dataclass
class Outcome:
    modules: SimpleNamespace  # the tlinkrec import that produced the results
    results: list  # pipeline.ReconcileResult per reconciled ensemble
    f1: float

    @property
    def objective(self) -> float:
        return sum(result.solutions[doc].objective_value
                   for result in self.results for doc in sorted(result.solutions))


def reconcile_pass(m: SimpleNamespace, corpus, out: Path) -> Outcome:
    """What `tlinkrec reconcile` does after loading the corpus."""
    result = m.pipeline.reconcile(corpus, MEMBERS)
    m.pipeline.write_reconciled(result, out / "timeml")
    report = m.scoring.score_run(corpus.reference, result.run)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scores.csv", "w", encoding="utf-8") as fh:
        m.scoring.write_csv(report, fh)
    return Outcome(m, [result], report.f1)


def ensembles(m: SimpleNamespace) -> list:
    """Procedure 2's sweep: every superset of {alpha} among the members."""
    return m.pipeline.enumerate_ensembles(m.pipeline.EnsembleSpec(("alpha",)),
                                          set(MEMBERS))


def experiment_pass(m: SimpleNamespace, corpus_root: Path, sweep) -> Outcome:
    config = m.pipeline.ExperimentConfig(corpus_root=corpus_root)
    rows = m.pipeline.run_procedure_two(config, sweep)
    return Outcome(m, [row.result for row in rows],
                   statistics.fmean(row.report.f1 for row in rows))


def check_written(out: Path, docs: List[str]) -> Optional[str]:
    written = sorted(p.stem for p in (out / "timeml").glob("*.tml"))
    if written != sorted(docs):
        return f"reconciled TimeML files {written} != documents {sorted(docs)}"
    lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
    if not lines or not lines[-1].startswith("ALL,"):
        return "scores.csv has no ALL line"
    return None


# -- correctness gate -------------------------------------------------------

def gate_document(m: SimpleNamespace, votes, solution) -> Tuple[Optional[str], float]:
    """(failure reason or None, seconds in verify) for one solved document."""
    verify_s = 0.0
    try:
        program = m.model.build_ip(votes)
        t0 = time.perf_counter()
        ok = m.solver.verify(program, solution)
        verify_s = time.perf_counter() - t0
        if not ok:
            return "fails verification: " + m.solver.violations(program, solution)[0], verify_s
    except Exception as exc:  # a document that raises is a failed operation
        return f"gate raised {type(exc).__name__}: {exc}", verify_s
    if not solution.proven_optimal:
        return "not proven optimal", verify_s
    return None, verify_s


def unvoted_labels(m: SimpleNamespace, results) -> int:
    """Arcs given a non-NONE label that no member voted for."""
    none = m.model.RelType.NONE
    count = 0
    for result in results:
        for doc, solution in result.solutions.items():
            alpha = result.votes[doc].alpha
            count += sum(1 for arc, rel in solution.assignment.items()
                         if rel is not none and alpha[arc, rel.value - 1] == 0)
    return count


# -- context ----------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context() -> Dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "loadavg_before": os.getloadavg(),
    }


# -- one run ----------------------------------------------------------------

def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


@contextmanager
def work_dir(name: str):
    """A fresh directory under the checkout, removed afterwards."""
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        docs: Optional[int] = None) -> Dict:
    docs = workload.docs if docs is None else docs
    context = run_context()
    with work_dir(f"{workload.name}-{seed}") as work:
        return _run(workload, seed, seconds, trace, docs, context, work)


def _run(workload, seed, seconds, trace, docs, context, work) -> Dict:
    corpus_root = work / "corpus"
    generate(workload, seed, docs, corpus_root)

    corpus = load(corpus_root)
    m = tlinkrec_modules()
    problems: List[str] = []

    digest = fingerprint(m, corpus)
    recorded = json.loads(MANIFEST.read_text())["workloads"].get(workload.name, {})
    if docs == workload.docs and recorded.get("fingerprint") != digest:
        problems.append(f"INPUT FINGERPRINT MISMATCH for {workload.name}: "
                        f"recorded {recorded.get('fingerprint')}, got {digest}; "
                        "the generator or TimeML reader/writer changed the inputs")
    if workload.experiment:
        s2 = m.pipeline.default_split(corpus.documents)[1]
        attempted = len(ensembles(m)) * len(s2)
    else:
        attempted = len(corpus.documents)

    tracer = Tracer()
    passes: List[Dict] = []
    setups: List[Tuple[float, float, float]] = []
    kept: Optional[Outcome] = None
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"out-{len(passes)}"
        setups.append(timed_setup(corpus_root))
        if passes:
            corpus = load(corpus_root)
            m = tlinkrec_modules()
        if workload.experiment:
            members = ensembles(m)
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        loadavg = os.getloadavg()[0]
        probe = None if traced else SpeedProbe()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with probe or nullcontext():
                if workload.experiment:
                    outcome = experiment_pass(m, corpus_root, members)
                else:
                    outcome = reconcile_pass(m, corpus, out)
        except Exception:
            log(traceback.format_exc())
            problems.append("measured pass raised")
            return result(False, attempted, attempted, {}, problems, context)
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                  "loadavg": loadavg, "objective": outcome.objective, "f1": outcome.f1}
        if probe:
            record.update(wall_s=probe.net_s, normalised_s=probe.normalised_s(),
                          chunk_ms=probe.chunk_s * 1e3)
        if traced:
            record["tracer"] = {
                "self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s),
                "max_s": dict(tracer.max_s), "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
                "breakdown": pass_breakdown(tracer, t1 - t0),
            }
        if not workload.experiment:
            bad = check_written(out, corpus.documents)
            if bad:
                problems.append(bad)
            shutil.rmtree(out, ignore_errors=True)
        if kept is None:
            kept = outcome
        passes.append(record)
        # Stop where the next pass would end closer to the budget than not.
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and time.perf_counter() - started + record["wall_s"] / 2 >= seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(corpus_root))

    # -- correctness gate, outside the timed window ------------------------
    failures = 0
    verify_s = 0.0
    for res in kept.results:
        for doc in sorted(res.solutions):
            reason, spent = gate_document(kept.modules, res.votes[doc],
                                          res.solutions[doc])
            verify_s += spent
            if reason:
                failures += 1
                log(f"gate: {doc}: {reason}")
    failures += attempted - sum(len(res.solutions) for res in kept.results)
    for record in passes:
        if (record["objective"], record["f1"]) != (kept.objective, kept.f1):
            kind = "traced" if record["traced"] else "untraced"
            problems.append(f"{kind} pass gave objective {record['objective']!r} "
                            f"f1 {record['f1']!r}, first pass {kept.objective!r} "
                            f"{kept.f1!r}")
    if docs == workload.docs and "objective" in recorded:
        want = recorded["objective"]
        if abs(kept.objective - want) > OBJECTIVE_RTOL * max(1.0, abs(want)):
            problems.append(f"objective total {kept.objective!r} != recorded {want!r}")
    print(json.dumps({"gate": {"objective_total": kept.objective, "f1": kept.f1,
                               "attempted": attempted, "failed": failures,
                               "fingerprint": digest}}))

    untraced = [r for r in passes if not r["traced"]]
    context["passes"] = [{k: r[k] for k in ("traced", "wall_s", "normalised_s", "chunk_ms",
                                            "cpu_s", "loadavg") if k in r}
                         for r in passes]
    context["setups"] = [{"normalised_s": s[0], "wall_s": s[1]} for s in setups]
    wall_s = statistics.median(r["wall_s"] for r in untraced)

    if not trace:
        metrics = {
            "setup_s": metric(statistics.median(s[0] for s in setups), "s"),
            "wall_s": metric(statistics.median(r["normalised_s"] for r in untraced), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "f1": metric(kept.f1, "ratio"),
            "ok_frac": metric((attempted - failures) / attempted, "ratio"),
        }
    else:
        traced_passes = sorted((r for r in passes if r["traced"]),
                               key=lambda r: r["wall_s"])
        median_pass = traced_passes[(len(traced_passes) - 1) // 2]
        metrics = layer_metrics(median_pass, wall_s, setups, corpus, verify_s,
                                unvoted_labels(kept.modules, kept.results))
        print(json.dumps({"breakdown": median_pass["tracer"]["breakdown"],
                          "traced_wall_s": median_pass["wall_s"],
                          "absent": tracer.absent}))
    return result(not problems and failures == 0, attempted, failures, metrics,
                  problems, context)


def layer_metrics(traced: Dict, untraced_wall_s: float, setups, corpus,
                  verify_s: float, unvoted: int) -> Dict:
    t = traced["tracer"]
    counts = t["counts"]
    closure_calls = t["calls"].get("relations.closure", 0)
    values = {metric_name: t["self_s"].get(span, 0.0)
              for span, metric_name in SELF_TIME_SPANS.items()}
    values.update({
        "unattributed_s": t["breakdown"]["unattributed"],
        "traced_wall_s": traced["wall_s"],
        "trace_overhead_s": traced["wall_s"] - untraced_wall_s,
        "timeml.load_s": statistics.median(s[2] for s in setups),
        "timeml.links_parsed": sum(len(links) for run in [corpus.reference,
                                                          *corpus.runs.values()]
                                   for links in run.documents.values()),
        "timeml.links_skipped": len(corpus.skipped),
        "model.arcs": counts.get("model.arcs", 0),
        "model.triangles": counts.get("model.triangles", 0),
        "model.rows": counts.get("model.rows", 0),
        "solver.nodes": counts.get("solver.nodes", 0),
        "solver.lp_iterations": counts.get("solver.lp_iterations", 0),
        "solver.lp_calls": t["calls"].get("solver.lp", 0),
        "solver.doc_solve_max_s": t["max_s"].get("solver.solve", 0.0),
        "solver.verify_s": verify_s,
        "solver.unvoted_labels": unvoted,
        "relations.closure_calls": closure_calls,
        "relations.closure_repeat_frac":
            counts.get("relations.closure_repeats", 0) / closure_calls
            if closure_calls else 0.0,
        "relations.closure_nodes": counts.get("relations.closure_nodes", 0),
        "pipeline.weights_s": t["total_s"].get("pipeline.weights", 0.0),
    })
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def result(correct: bool, attempted: int, failed: int, metrics: Dict,
           problems: List[str], context: Dict) -> Dict:
    for problem in problems:
        log(f"PROBLEM: {problem}")
    print(json.dumps({"context": context}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, default=None,
                        help="document count override, for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "tlinkrec" / "__init__.py").is_file():
        log(f"no tlinkrec sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
              args.docs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
