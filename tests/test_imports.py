"""scipy is imported only where it is used: a milp call, BinaryProgram.rows
and a_eq, and export_lp.  Each case runs a fresh interpreter, since this
process imported scipy with the test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlinkrec
from tlinkrec.model import build_ip
from tlinkrec.synthetic import SyntheticClassifier, generate_corpus

from referees import brute_force_solve
from test_solver import hub_votes

SRC = Path(tlinkrec.__file__).resolve().parents[1]
CLASSIFIERS = [SyntheticClassifier("alpha", 0.1), SyntheticClassifier("beta", 0.25),
               SyntheticClassifier("gamma", 0.4)]
SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(code: str, *args: str) -> dict:
    """The JSON that code prints last, run by a new interpreter that
    imports tlinkrec from this checkout; args become sys.argv[1:]."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


PASSES = f"""
import json, sys
from pathlib import Path
import tlinkrec
from tlinkrec.pipeline import (EnsembleSpec, ExperimentConfig, enumerate_ensembles,
                               reconcile, run_procedure_two, write_reconciled)
from tlinkrec.scoring import score_run

small, sparse, out = map(Path, sys.argv[1:4])
strict = sys.argv[4] == "strict"
members = ("alpha", "beta", "gamma")
result = reconcile(tlinkrec.load_corpus(small), members, none_breaks_triangles=strict)
write_reconciled(result, out / "timeml")
f1 = score_run(tlinkrec.load_corpus(small).reference, result.run).f1
rows = run_procedure_two(
    ExperimentConfig(corpus_root=sparse, none_breaks_triangles=strict),
    enumerate_ensembles(EnsembleSpec(("alpha",)), set(members)))
stats = [next(iter(result.solutions.values())).stats]
stats += [next(iter(row.result.solutions.values())).stats for row in rows]
print(json.dumps({{"scipy": {SCIPY}, "f1": f1,
                   "rounds": [s.rounds for s in stats],
                   "milp_cols": sum(s.milp_cols for s in stats)}}))
"""


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A many-small-shaped corpus and a small sparse-shaped one."""
    root = tmp_path_factory.mktemp("corpora")
    generate_corpus(root / "small", seed=7, n_docs=12, classifiers=CLASSIFIERS,
                    n_events=(4, 8), arc_density=0.6)
    generate_corpus(root / "sparse", seed=7, n_docs=4, classifiers=CLASSIFIERS,
                    n_events=(60, 90), arc_density=0.08)
    return root


@pytest.mark.parametrize("mode", ["default", "strict"])
def test_pass_imports_no_scipy(corpora, tmp_path, mode):
    # Reconcile, write and score, then a procedure-2 sweep.  Every solve
    # re-solves components (more than one round) and every component has a
    # plan, so no milp is called and no scipy module is loaded.
    out = run_fresh(PASSES, str(corpora / "small"), str(corpora / "sparse"),
                    str(tmp_path), mode)
    assert out["scipy"] == []
    assert min(out["rounds"]) > 1 and out["milp_cols"] == 0
    assert 0 < out["f1"] <= 1
    assert len(list((tmp_path / "timeml").glob("*.tml"))) == 12


def test_cli_imports_no_scipy():
    assert run_fresh(f"import json, sys, tlinkrec.cli; print(json.dumps({{'scipy': {SCIPY}}}))"
                     ) == {"scipy": []}


FIRST_MILP = f"""
import json, sys
from unittest.mock import patch
import numpy as np
import tlinkrec.solver as solver
from tlinkrec.model import BinaryProgram

strict = sys.argv[1] == "strict"
data = np.load(sys.argv[2])
program = BinaryProgram(data["objective"], data["triangles"], strict)
before = {SCIPY}
with patch.object(solver, "ENUMERATION_BOUND", 0):
    sol = solver.solve(program)
print(json.dumps({{"before": before, "optimize": "scipy.optimize" in sys.modules,
                   "milp_cols": sol.stats.milp_cols, "proven": sol.proven_optimal,
                   "objective": sol.objective_value,
                   "verified": solver.verify(program, sol)}}))
"""


@pytest.mark.parametrize("strict", [False, True])
def test_first_milp_call_imports_scipy(tmp_path, strict):
    # With no plan allowed, the hub goes to milp, whose first call imports
    # scipy.optimize; the answer is still the brute-force optimum.
    program = build_ip(hub_votes(), none_breaks_triangles=strict)
    np.savez(tmp_path / "hub.npz", objective=program.objective, triangles=program.triangles)
    out = run_fresh(FIRST_MILP, "strict" if strict else "default", str(tmp_path / "hub.npz"))
    assert out["before"] == [] and out["optimize"]
    assert out["milp_cols"] > 0 and out["proven"] and out["verified"]
    assert abs(out["objective"] - brute_force_solve(program).objective_value) <= 1e-9
