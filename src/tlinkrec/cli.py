"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 solve error.
An --out directory may be written again, but reconcile and experiment refuse
one (a configuration error, before any solve) that holds an output file of
theirs, a timeml/*.tml or a *.csv or procedure*.txt, that this run would not
write; gen-synthetic refuses any --out that is not empty.  No command
removes a file.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import click

from .errors import ConfigurationError, DataError, SolveError
from .model import build_ip, collect_arcs, export_lp
from .pipeline import (
    EnsembleSpec,
    ExperimentConfig,
    WeightsSource,
    check_members,
    format_experiment_table,
    reconcile,
    reconciled_documents,
    run_procedure_one,
    run_procedure_two,
    write_reconciled,
)
from .relations import dump_table
from .scoring import ScoreReport, score_run, write_csv
from .solver import DEFAULT_TIME_LIMIT
from .synthetic import SyntheticClassifier, generate_corpus
from .timeml import load_corpus, load_run_dir, read_lines, write_skipped_report


TIME_LIMIT_HELP = ("Solver time in seconds per document, pooled over every "
                   "document reconciled (under experiment, every ensemble's "
                   "documents, in one solve); inf means no limit.")
MEMBERS_HELP = "Comma-separated classifier names."
WEIGHTS_HELP = "Weights file (default: <corpus>/weights.txt)."
STRICT_HELP = "Exclude NONE from triangle conclusions (ablation mode)."


def _positive(ctx, param, value: float) -> float:
    if not value > 0:  # also rejects NaN
        raise click.BadParameter(f"{value} is not a positive number")
    return value


def _read_config(path: str, known: Set[str]) -> Dict[str, str]:
    values = {}
    for where, line in read_lines(path):
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigurationError(f"{where}: {key!r} names no option of any command")
        values[key] = value.strip()
    return values


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="key=value file providing option defaults.")
@click.option("-v", "--verbose", is_flag=True, help="Log progress to stderr.")
@click.pass_context
def cli(ctx, config_path, verbose):
    """Reconcile temporal-relation classifier ensembles with global consistency."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if config_path:
        # config key -> parameter name, per command.  `out` names a directory
        # for some commands and a single file (out_path) for score and
        # export-lp; the file ones are taken from the command line only.
        options = {cmd_name: {opt.lstrip("-").replace("-", "_"): param.name
                              for param in cmd.params if param.name != "out_path"
                              for opt in param.opts}
                   for cmd_name, cmd in cli.commands.items()}  # noqa: F821
        defaults = _read_config(config_path, set().union(*options.values()))
        ctx.default_map = {cmd_name: {name: defaults[key] for key, name in keys.items()
                                      if key in defaults}
                           for cmd_name, keys in options.items()}


def _members(text: str, where: str = "--members") -> Tuple[str, ...]:
    members = tuple(m.strip() for m in text.split(",") if m.strip())
    if not members:
        raise ConfigurationError(f"{where}: ensemble member list is empty")
    return members


def _split_from_file(path: Optional[str]) -> Optional[Tuple[List[str], List[str]]]:
    """Split file: `s1 <doc-id>` / `s2 <doc-id>` lines."""
    if path is None:
        return None
    s1, s2 = [], []
    for where, line in read_lines(path):
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("s1", "s2"):
            raise ConfigurationError(f"{where}: expected 's1|s2 <doc-id>'")
        (s1 if parts[0] == "s1" else s2).append(parts[1])
    return s1, s2


def _read_ensembles(path: str) -> Dict[str, EnsembleSpec]:
    """'label: name,name,...' or 'name,name' lines, keyed by the ensemble's CSV stem."""
    ensembles: Dict[str, EnsembleSpec] = {}
    for where, line in read_lines(path):
        label, _, members = line.rpartition(":")
        spec = EnsembleSpec(_members(members, where), label.strip())
        stem = spec.display().replace(", ", "_")
        problem = ("repeats an earlier one" if stem in ensembles else
                   "contains a path separator" if "/" in stem or "\\" in stem else None)
        if problem:
            raise ConfigurationError(f"{where}: ensemble name {spec.display()!r} {problem}")
        ensembles[stem] = spec
    if not ensembles:
        raise ConfigurationError(f"no ensembles defined in {path}")
    return ensembles


def _report_inconsistent(report: ScoreReport, system: str = "system",
                         reference: bool = True) -> None:
    """One stderr line per document side whose graph is INCONSISTENT, the
    system side named system; reference=False leaves out the reference side."""
    for doc, counts in sorted(report.per_document.items()):
        for side, flagged in (("reference", reference and counts.inconsistent_ref),
                              (system, counts.inconsistent_sys)):
            if flagged:
                click.echo(f"{side}/{doc}: INCONSISTENT, scored by its stored labels",
                           err=True)


def _refuse_stale(out: Path, patterns: Iterable[str], written: Set[str]) -> None:
    """ConfigurationError when out holds a file matching one of patterns
    that this run would not write, named relative to out; it would look like
    this run's output.  No file is removed."""
    stale = sorted(path.relative_to(out).as_posix() for pattern in patterns
                   for path in out.glob(pattern) if path.is_file())
    stale = [name for name in stale if name not in written]
    if stale:
        raise ConfigurationError(
            f"--out {out} holds {len(stale)} file(s) that this run would not write, "
            f"first {stale[0]}; remove them or choose another --out")


@cli.command("reconcile")
@click.option("--corpus", "corpus_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--members", required=True, help=MEMBERS_HELP)
@click.option("--weights", "weights_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help=WEIGHTS_HELP)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--strict/--no-strict", "strict", default=False, help=STRICT_HELP)
@click.option("--time-limit", type=float, callback=_positive,
              default=DEFAULT_TIME_LIMIT, show_default=True, help=TIME_LIMIT_HELP)
def reconcile_cmd(corpus_root, members, weights_path, out_dir, strict, time_limit):
    """Reconcile an ensemble and write TimeML output plus a score CSV."""
    corpus = load_corpus(corpus_root, weights_path)
    names = _members(members)
    check_members(corpus, names)
    out = Path(out_dir)
    _refuse_stale(out, ["timeml/*.tml"],
                  {f"timeml/{doc}.tml" for doc in reconciled_documents(corpus, names)})
    result = reconcile(corpus, names, time_limit=time_limit,
                       none_breaks_triangles=strict)
    write_reconciled(result, out / "timeml")
    report = score_run(corpus.reference, result.run)
    _report_inconsistent(report)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scores.csv", "w", encoding="utf-8") as fh:
        write_csv(report, fh)
    with open(out / "skipped.txt", "w", encoding="utf-8") as fh:
        write_skipped_report(corpus.skipped, fh)
    click.echo(f"F1 {report.f1:.4f}  P {report.precision:.4f}  R {report.recall:.4f}")


@cli.command("score")
@click.option("--system", "system_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--reference", "reference_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default: stdout).")
@click.option("--average", type=click.Choice(["micro", "macro"]), default="micro",
              show_default=True)
@click.option("--collapse-identity/--no-collapse-identity", default=True,
              help="Treat IDENTITY as SIMULTANEOUS when scoring.")
def score_cmd(system_dir, reference_dir, out_path, average, collapse_identity):
    """Score a system annotation directory against a reference directory."""
    skipped = []
    reference = load_run_dir(Path(reference_dir), "reference", 1.0, skipped)
    system = load_run_dir(Path(system_dir), "system", 1.0, skipped)
    write_skipped_report(skipped, click.get_text_stream("stderr"))
    for doc in sorted(system.documents.keys() - reference.documents.keys()):
        click.echo(f"system/{doc}: no reference document, not scored", err=True)
    for doc in sorted(reference.documents.keys() - system.documents.keys()):
        click.echo(f"reference/{doc}: no system document, scored as empty", err=True)
    report = score_run(reference, system, average=average,
                       collapse_identity=collapse_identity)
    _report_inconsistent(report)
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            write_csv(report, fh)
    else:
        write_csv(report, click.get_text_stream("stdout"))


@cli.command("export-lp")
@click.option("--corpus", "corpus_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--members", required=True, help=MEMBERS_HELP)
@click.option("--weights", "weights_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help=WEIGHTS_HELP)
@click.option("--doc", "doc_id", required=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--strict/--no-strict", "strict", default=False, help=STRICT_HELP)
def export_lp_cmd(corpus_root, members, weights_path, doc_id, out_path, strict):
    """Export one document's integer program in CPLEX LP format."""
    corpus = load_corpus(corpus_root, weights_path)
    names = _members(members)
    check_members(corpus, names)
    votes = collect_arcs([corpus.runs[n] for n in names], doc_id)
    if not len(votes.arcs):
        raise DataError(f"no classifier annotates document {doc_id!r}")
    program = build_ip(votes, none_breaks_triangles=strict)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as fh:
        export_lp(program, fh)
    click.echo(f"{doc_id}: {program.num_vars} variables, {program.num_rows} rows")


@cli.command("experiment")
@click.option("--corpus", "corpus_root", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--procedure", type=click.Choice(["1", "2"]), required=True)
@click.option("--ensembles", "ensembles_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="One ensemble per line: 'label: name,name,...' or 'name,name'.")
@click.option("--weights", "weights_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help=WEIGHTS_HELP)
@click.option("--split", "split_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Doc-id split file ('s1 <doc>' / 's2 <doc>' lines).")
@click.option("--weights-source", type=click.Choice([s.value for s in WeightsSource]),
              default=None, help="Where member weights come from "
              "(default: full for procedure 1, s1 for procedure 2).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
@click.option("--strict/--no-strict", "strict", default=False, help=STRICT_HELP)
@click.option("--time-limit", type=float, callback=_positive,
              default=DEFAULT_TIME_LIMIT, show_default=True, help=TIME_LIMIT_HELP)
def experiment_cmd(corpus_root, procedure, ensembles_path, weights_path, split_path,
                   weights_source, out_dir, strict, time_limit):
    """Run experiment procedure 1 or 2 over a file of ensembles."""
    ensembles = _read_ensembles(ensembles_path)
    if out_dir:
        _refuse_stale(Path(out_dir), ["*.csv", "procedure*.txt"],
                      {f"procedure{procedure}.txt", *(f"{stem}.csv" for stem in ensembles)})
    config = ExperimentConfig(
        corpus_root=Path(corpus_root),
        split=_split_from_file(split_path),
        time_limit=time_limit,
        none_breaks_triangles=strict,
        weights_path=Path(weights_path) if weights_path else None,
        weights_source=WeightsSource(weights_source) if weights_source else None,
    )
    runner = run_procedure_one if procedure == "1" else run_procedure_two
    rows = runner(config, list(ensembles.values()))
    # Every ensemble is scored on the same reference documents, so the
    # reference side is named once, with the first ensemble.
    for i, row in enumerate(rows):
        _report_inconsistent(row.report, row.spec.display(), reference=i == 0)
    table = format_experiment_table(rows)
    click.echo(table, nl=False)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"procedure{procedure}.txt").write_text(table, encoding="utf-8")
        for stem, row in zip(ensembles, rows):
            with open(out / f"{stem}.csv", "w", encoding="utf-8") as fh:
                write_csv(row.report, fh)


@cli.command("gen-synthetic")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--docs", type=int, default=10, show_default=True)
@click.option("--classifiers", default="alpha:0.1,beta:0.25,gamma:0.4",
              show_default=True, help="name:flip-rate pairs, comma-separated.")
@click.option("--density", type=float, default=0.6, show_default=True)
def gen_synthetic_cmd(out_dir, seed, docs, classifiers, density):
    """Generate a fixed-seed synthetic corpus into a new or empty directory."""
    if Path(out_dir).is_dir() and any(Path(out_dir).iterdir()):
        raise ConfigurationError(f"--out {out_dir} exists and is not empty")
    specs = []
    for part in classifiers.split(","):
        name, _, rate = part.partition(":")
        if not name.strip():
            raise ConfigurationError("bad --classifiers value")
        try:
            specs.append(SyntheticClassifier(name.strip(),
                                             float(rate) if rate else 0.2))
        except ValueError:
            raise ConfigurationError(f"bad flip rate in {part!r}")
    doc_ids = generate_corpus(Path(out_dir), seed=seed, n_docs=docs,
                              classifiers=specs, arc_density=density)
    click.echo(f"wrote {len(doc_ids)} documents for {len(specs)} classifiers "
               f"to {out_dir}")


@cli.command("dump-composition-table")
def dump_table_cmd():
    """Print the 14x14 composition table grid."""
    click.echo(dump_table(), nl=False)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except ConfigurationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(1)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)
    except SolveError as exc:
        click.echo(f"solve error: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
