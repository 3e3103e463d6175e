import re
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

import tlinkrec.cli as cli_module
from tlinkrec.cli import cli, main
from tlinkrec.model import build_ip
from tlinkrec.pipeline import format_experiment_table, run_procedure_two
from tlinkrec.relations import RelType
from tlinkrec.solver import verify
from tlinkrec.synthetic import SyntheticClassifier, generate_corpus
from tlinkrec.timeml import EntityKind, EntityRef, TLink, write_timeml


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    generate_corpus(root, seed=1, n_docs=4, classifiers=[
        SyntheticClassifier("alpha", 0.1),
        SyntheticClassifier("beta", 0.3),
    ])
    return root


@pytest.fixture()
def runner():
    return CliRunner()


class TestReconcileCommand:
    def test_writes_outputs(self, runner, corpus_root, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, [
            "reconcile", "--corpus", str(corpus_root),
            "--members", "alpha,beta", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("F1 ")
        assert (out / "scores.csv").exists()
        assert list((out / "timeml").glob("*.tml"))

    def test_skipped_tlinks_written(self, corpus_root, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        doc = corpus / "runs" / "alpha" / "synth_000.tml"
        doc.write_text(re.sub(r'relType="[A-Z_]+"', 'relType="BOGUS"',
                              doc.read_text(), count=1))
        main(["reconcile", "--corpus", str(corpus), "--members", "alpha,beta",
              "--out", str(tmp_path / "out")])
        assert (tmp_path / "out" / "skipped.txt").read_text() == (
            "alpha/synth_000 l1 unknown relType BOGUS\n")
        # A clean rerun into the same --out leaves no stale line behind.
        main(["reconcile", "--corpus", str(corpus_root), "--members", "alpha,beta",
              "--out", str(tmp_path / "out")])
        assert (tmp_path / "out" / "skipped.txt").read_text() == ""

    def test_unknown_member_is_config_error(self, runner, corpus_root, tmp_path):
        result = runner.invoke(cli, [
            "reconcile", "--corpus", str(corpus_root),
            "--members", "nosuch", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code != 0


class TestScoreCommand:
    def test_self_score_to_stdout(self, runner, corpus_root):
        ref = str(corpus_root / "reference")
        result = runner.invoke(cli, ["score", "--system", ref, "--reference", ref])
        assert result.exit_code == 0, result.output
        assert "ALL,1.0000,1.0000,1.0000" in result.output

    def test_csv_file(self, runner, corpus_root, tmp_path):
        ref = str(corpus_root / "reference")
        out = tmp_path / "scores.csv"
        result = runner.invoke(cli, [
            "score", "--system", str(corpus_root / "runs" / "alpha"),
            "--reference", ref, "--out", str(out), "--average", "macro",
        ])
        assert result.exit_code == 0, result.output
        assert out.read_text().startswith("doc_id,precision")

    def test_csv_file_in_missing_directory(self, runner, corpus_root, tmp_path):
        ref = str(corpus_root / "reference")
        out = tmp_path / "d" / "missing" / "s.csv"
        result = runner.invoke(cli, ["score", "--system", ref, "--reference", ref,
                                     "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "ALL,1.0000,1.0000,1.0000" in out.read_text()

    def test_empty_dir_is_data_error(self, runner, tmp_path, corpus_root):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(cli, [
            "score", "--system", str(empty),
            "--reference", str(corpus_root / "reference"),
        ])
        assert result.exit_code != 0

    def test_skipped_tlinks_reported_on_stderr(self, corpus_root, tmp_path, capsys):
        ref = corpus_root / "reference"
        system = tmp_path / "system"
        shutil.copytree(ref, system)
        doc = system / "synth_000.tml"
        doc.write_text(re.sub(r'relType="[A-Z_]+"', 'relType="BOGUS"',
                              doc.read_text(), count=1))
        main(["score", "--system", str(system), "--reference", str(ref)])
        captured = capsys.readouterr()
        skipped = captured.err.splitlines()
        assert len(skipped) == 1
        assert skipped[0].startswith("system/synth_000 ")
        assert skipped[0].endswith(" unknown relType BOGUS")
        assert captured.out.startswith("doc_id,precision")
        assert "BOGUS" not in captured.out

    def test_system_document_without_reference_reported(self, corpus_root,
                                                        tmp_path, capsys):
        ref = corpus_root / "reference"
        system = tmp_path / "system"
        shutil.copytree(ref, system)
        (system / "synth_001.tml").rename(system / "synth_01x.tml")
        main(["score", "--system", str(system), "--reference", str(ref)])
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "system/synth_01x: no reference document, not scored",
            "reference/synth_001: no system document, scored as empty"]
        rows = {line.split(",")[0]: line.split(",")
                for line in captured.out.splitlines()}
        assert "synth_01x" not in rows
        assert rows["synth_001"][2] == "0.0000"  # recall

    def test_reference_document_without_system_reported(self, corpus_root,
                                                        tmp_path, capsys):
        ref = corpus_root / "reference"
        system = tmp_path / "system"
        shutil.copytree(ref, system)
        (system / "synth_001.tml").unlink()
        main(["score", "--system", str(system), "--reference", str(ref)])  # exit 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "reference/synth_001: no system document, scored as empty"]
        rows = {line.split(",")[0]: line.split(",")
                for line in captured.out.splitlines()}
        assert rows["synth_001"][1:4] == ["0.0000", "0.0000", "0.0000"]


def write_before_cycle(path, doc, n=3):
    """A document whose n BEFORE links form a cycle: INCONSISTENT."""
    events = [EntityRef(EntityKind.EVENT_INSTANCE, f"ei{i}", doc) for i in range(1, n + 1)]
    write_timeml(events, [TLink(events[i - 1], events[i], RelType.BEFORE)
                          for i in range(n)], path)


class TestInconsistentReported:
    def test_score_names_each_inconsistent_side(self, corpus_root, tmp_path, capsys):
        ref, system = tmp_path / "reference", tmp_path / "system"
        shutil.copytree(corpus_root / "reference", ref)
        shutil.copytree(corpus_root / "reference", system)
        main(["score", "--system", str(system), "--reference", str(ref)])
        consistent = capsys.readouterr()
        assert consistent.err == ""
        write_before_cycle(ref / "synth_000.tml", "synth_000")
        write_before_cycle(system / "synth_002.tml", "synth_002")
        main(["score", "--system", str(system), "--reference", str(ref)])
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "reference/synth_000: INCONSISTENT, scored by its stored labels",
            "system/synth_002: INCONSISTENT, scored by its stored labels"]
        rows = captured.out.splitlines()
        assert rows[0] == consistent.out.splitlines()[0]
        assert rows[2] == consistent.out.splitlines()[2]  # synth_001 unchanged

    def test_reconcile_names_an_inconsistent_reference(self, corpus_root, tmp_path,
                                                       capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        write_before_cycle(corpus / "reference" / "synth_001.tml", "synth_001")
        main(["reconcile", "--corpus", str(corpus), "--members", "alpha,beta",
              "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "reference/synth_001: INCONSISTENT, scored by its stored labels"]
        assert captured.out.startswith("F1 ")

    def test_experiment_names_the_reference_once_and_each_ensemble(
            self, corpus_root, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        write_before_cycle(corpus / "reference" / "synth_001.tml", "synth_001")
        for name in ("alpha", "beta"):
            # Four arcs and no triangle, so every ensemble keeps the cycle.
            write_before_cycle(corpus / "runs" / name / "synth_002.tml", "synth_002", 4)
        ens = tmp_path / "ens.txt"
        ens.write_text("pair: alpha,beta\nalpha\n")
        out = tmp_path / "exp"
        main(["experiment", "--corpus", str(corpus), "--procedure", "1",
              "--ensembles", str(ens), "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "reference/synth_001: INCONSISTENT, scored by its stored labels",
            "pair/synth_002: INCONSISTENT, scored by its stored labels",
            "alpha/synth_002: INCONSISTENT, scored by its stored labels"]
        assert captured.out == (out / "procedure1.txt").read_text()
        assert "INCONSISTENT" not in captured.out


class TestExportLpCommand:
    def test_export(self, runner, corpus_root, tmp_path):
        out = tmp_path / "doc.lp"
        result = runner.invoke(cli, [
            "export-lp", "--corpus", str(corpus_root),
            "--members", "alpha,beta", "--doc", "synth_000", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert text.startswith("Maximize\n") and text.endswith("End\n")
        assert "variables" in result.output

    def test_export_into_missing_directory(self, runner, corpus_root, tmp_path):
        out = tmp_path / "d" / "missing" / "x.lp"
        result = runner.invoke(cli, [
            "export-lp", "--corpus", str(corpus_root),
            "--members", "alpha,beta", "--doc", "synth_000", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert out.read_text().startswith("Maximize\n")

    def test_missing_doc(self, runner, corpus_root, tmp_path):
        result = runner.invoke(cli, [
            "export-lp", "--corpus", str(corpus_root),
            "--members", "alpha", "--doc", "nope",
            "--out", str(tmp_path / "x.lp"),
        ])
        assert result.exit_code != 0

    def test_unknown_member_exits_1(self, corpus_root, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["export-lp", "--corpus", str(corpus_root),
                  "--members", "nosuch", "--doc", "synth_000",
                  "--out", str(tmp_path / "x.lp")])
        assert err.value.code == 1
        assert "unknown classifier" in capsys.readouterr().err
        assert not (tmp_path / "x.lp").exists()


class TestExperimentCommand:
    def test_procedure_one(self, runner, corpus_root, tmp_path):
        ens = tmp_path / "ens.txt"
        ens.write_text("pair: alpha,beta\nsolo: alpha\n")
        out = tmp_path / "exp"
        result = runner.invoke(cli, [
            "experiment", "--corpus", str(corpus_root), "--procedure", "1",
            "--ensembles", str(ens), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "pair" in result.output and "solo" in result.output
        assert (out / "procedure1.txt").exists()
        assert (out / "pair.csv").exists()

    def test_procedure_two_with_split(self, runner, corpus_root, tmp_path):
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha,beta\n")
        split = tmp_path / "split.txt"
        split.write_text("s1 synth_000\ns1 synth_001\ns2 synth_002\ns2 synth_003\n")
        result = runner.invoke(cli, [
            "experiment", "--corpus", str(corpus_root), "--procedure", "2",
            "--ensembles", str(ens), "--split", str(split),
        ])
        assert result.exit_code == 0, result.output

    def test_procedure_two_strict(self, runner, corpus_root, tmp_path, monkeypatch):
        # --strict reaches the solver: every document of the run verifies
        # against its strict program, and the table written is the run's.
        ens = tmp_path / "ens.txt"
        ens.write_text("pair: alpha,beta\n")
        rows = []

        def spy(config, ensembles):
            assert config.none_breaks_triangles
            rows.extend(run_procedure_two(config, ensembles))
            return rows

        monkeypatch.setattr(cli_module, "run_procedure_two", spy)
        out = tmp_path / "exp"
        result = runner.invoke(cli, [
            "experiment", "--corpus", str(corpus_root), "--procedure", "2",
            "--ensembles", str(ens), "--strict", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert [row.spec.display() for row in rows] == ["pair"]
        solutions = rows[0].result.solutions
        assert solutions
        for doc, solution in solutions.items():
            program = build_ip(rows[0].result.votes[doc], none_breaks_triangles=True)
            assert verify(program, solution), doc
        table = (out / "procedure2.txt").read_text(encoding="utf-8")
        assert table == format_experiment_table(rows) and table in result.output

    @pytest.mark.parametrize("lines, message", [
        ("x: alpha\nx: alpha,beta\n", "ens.txt:2: ensemble name 'x' repeats"),
        ("alpha,beta\nalpha_beta: alpha\n",
         "ens.txt:2: ensemble name 'alpha_beta' repeats"),
        ("a/b: alpha\n", "ens.txt:1: ensemble name 'a/b' contains a path separator"),
        ("alpha\nbad: \n", "ens.txt:2: ensemble member list is empty"),
    ])
    def test_bad_ensemble_names_exit_1(self, corpus_root, tmp_path, capsys,
                                       monkeypatch, lines, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("ensemble names must be checked before any solve")

        monkeypatch.setattr(cli_module, "run_procedure_one", no_solve)
        ens = tmp_path / "ens.txt"
        ens.write_text(lines)
        out = tmp_path / "exp"
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--corpus", str(corpus_root), "--procedure", "1",
                  "--ensembles", str(ens), "--out", str(out)])
        assert err.value.code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_procedure_two_rejects_full_reference_weights(self, corpus_root,
                                                          tmp_path, capsys):
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha,beta\n")
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--corpus", str(corpus_root), "--procedure", "2",
                  "--ensembles", str(ens), "--weights-source", "full"])
        assert err.value.code == 1
        message = capsys.readouterr().err
        assert "procedure 2" in message and "full-reference weights" in message

    def test_split_with_unknown_document_exits_1(self, corpus_root, tmp_path, capsys):
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha,beta\n")
        split = tmp_path / "split.txt"
        split.write_text("s1 nosuchdoc\ns2 synth_002\n")
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--corpus", str(corpus_root), "--procedure", "2",
                  "--ensembles", str(ens), "--split", str(split)])
        assert err.value.code == 1
        assert "not in the corpus: nosuchdoc" in capsys.readouterr().err

    def test_bad_split_line(self, runner, corpus_root, tmp_path):
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha\n")
        split = tmp_path / "split.txt"
        split.write_text("s3 synth_000\n")
        result = runner.invoke(cli, [
            "experiment", "--corpus", str(corpus_root), "--procedure", "2",
            "--ensembles", str(ens), "--split", str(split),
        ])
        assert result.exit_code != 0

    def test_split_without_s1_documents_exits_1(self, corpus_root, tmp_path,
                                                capsys):
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha,beta\n")
        split = tmp_path / "split.txt"
        split.write_text("s2 synth_002\ns2 synth_003\n")
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--corpus", str(corpus_root), "--procedure", "2",
                  "--ensembles", str(ens), "--split", str(split)])
        assert err.value.code == 1
        assert "S1 has no documents" in capsys.readouterr().err


class TestRepeatedMembers:
    @pytest.mark.parametrize("command", ["reconcile", "export-lp", "experiment"])
    def test_repeated_member_exits_1(self, corpus_root, tmp_path, capsys, command):
        ens = tmp_path / "ens.txt"
        ens.write_text("x: alpha,alpha\n")
        out = tmp_path / "out"
        args = {"reconcile": ["--members", "alpha,alpha,beta", "--out", str(out)],
                "export-lp": ["--members", "alpha,alpha", "--doc", "synth_000",
                              "--out", str(out)],
                "experiment": ["--procedure", "1", "--ensembles", str(ens),
                               "--out", str(out)]}
        with pytest.raises(SystemExit) as err:
            main([command, "--corpus", str(corpus_root), *args[command]])
        assert err.value.code == 1
        assert "repeated ensemble member(s): alpha" in capsys.readouterr().err
        assert not out.exists()


class TestGenSyntheticCommand:
    def test_generates(self, runner, tmp_path):
        out = tmp_path / "synth"
        result = runner.invoke(cli, [
            "gen-synthetic", "--out", str(out), "--seed", "2", "--docs", "3",
            "--classifiers", "a:0.1,b:0.2",
        ])
        assert result.exit_code == 0, result.output
        assert "wrote 3 documents for 2 classifiers" in result.output
        assert (out / "weights.txt").exists()

    def test_bad_rate(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "gen-synthetic", "--out", str(tmp_path / "s"),
            "--classifiers", "a:notafloat",
        ])
        assert result.exit_code != 0

    @pytest.mark.parametrize("args, message", [
        (["--docs", "-3"], "document count -3 is less than 1"),
        (["--docs", "0"], "document count 0 is less than 1"),
        (["--classifiers", "beta:-1"], "flip rate of 'beta' -1.0 is not in [0, 1]"),
        (["--classifiers", "beta:1.5"], "flip rate of 'beta' 1.5 is not in [0, 1]"),
        (["--classifiers", "beta:nan"], "flip rate of 'beta' nan is not in [0, 1]"),
        (["--density", "1.5"], "arc density 1.5 is not in [0, 1]"),
        (["--density", "-0.2"], "arc density -0.2 is not in [0, 1]"),
        (["--classifiers", "alpha:0.1,alpha:0.2"], "repeated classifier name(s): alpha"),
        (["--classifiers", ":0.1"], "bad --classifiers value"),
    ])
    def test_bad_input_exits_1(self, tmp_path, capsys, args, message):
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as err:
            main(["gen-synthetic", "--out", str(out), *args])
        assert err.value.code == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_non_empty_out_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(["gen-synthetic", "--out", str(out), "--docs", "4"])
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["gen-synthetic", "--out", str(out), "--docs", "2", "--classifiers", "a"])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: --out {out} exists and is not empty\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_empty_existing_out_is_used(self, tmp_path, capsys):
        main(["gen-synthetic", "--out", str(tmp_path), "--docs", "2"])
        assert "wrote 2 documents for 3 classifiers" in capsys.readouterr().out
        assert (tmp_path / "weights.txt").exists()


def tree_bytes(root):
    return {p: p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestStaleOut:
    """reconcile and experiment refuse an --out holding an output file that
    the run would not write, before solving; no file is removed."""

    def test_reconcile_four_then_two_documents(self, corpus_root, tmp_path, capsys,
                                               monkeypatch):
        two = tmp_path / "two"
        shutil.copytree(corpus_root, two)
        for path in two.rglob("synth_00[23].tml"):
            path.unlink()
        out = tmp_path / "out"
        main(["reconcile", "--corpus", str(corpus_root), "--members", "alpha,beta",
              "--out", str(out)])
        before = tree_bytes(out)
        assert len(list((out / "timeml").glob("*.tml"))) == 4
        capsys.readouterr()
        monkeypatch.setattr(cli_module, "reconcile", None)  # no solve may start
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--corpus", str(two), "--members", "alpha,beta",
                  "--out", str(out)])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: --out {out} holds 2 file(s) that this run would not "
            "write, first timeml/synth_002.tml; remove them or choose another --out\n")
        assert tree_bytes(out) == before

    def test_experiment_two_then_one_ensemble(self, corpus_root, tmp_path, capsys):
        ens = tmp_path / "ens.txt"
        ens.write_text("a: alpha\nb: beta\n")
        out = tmp_path / "out"
        args = ["experiment", "--corpus", str(corpus_root), "--procedure", "1",
                "--ensembles", str(ens), "--out", str(out)]
        main(args)
        before = tree_bytes(out)
        assert sorted(p.name for p in before) == ["a.csv", "b.csv", "procedure1.txt"]
        ens.write_text("a: alpha\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 1
        assert capsys.readouterr() == ("", (
            f"configuration error: --out {out} holds 1 file(s) that this run would not "
            "write, first b.csv; remove them or choose another --out\n"))
        assert tree_bytes(out) == before
        # Another procedure would leave procedure1.txt beside its own table.
        ens.write_text("a: alpha\nb: beta\n")
        with pytest.raises(SystemExit) as err:
            main(args[:4] + ["2"] + args[5:])
        assert err.value.code == 1
        assert "first procedure1.txt;" in capsys.readouterr().err
        assert tree_bytes(out) == before

    def test_rerun_writing_the_same_files_succeeds(self, corpus_root, tmp_path, capsys):
        ens = tmp_path / "ens.txt"
        ens.write_text("a: alpha\nb: beta\n")
        rec, exp = tmp_path / "rec", tmp_path / "exp"
        (rec / "timeml").mkdir(parents=True)
        exp.mkdir()
        # Files that are not a command's outputs are left alone.
        for path in (rec / "notes.csv", rec / "timeml" / "notes.txt", exp / "notes.txt"):
            path.write_text("mine\n")
        for _ in range(2):
            main(["reconcile", "--corpus", str(corpus_root), "--members", "alpha,beta",
                  "--out", str(rec)])
            main(["experiment", "--corpus", str(corpus_root), "--procedure", "1",
                  "--ensembles", str(ens), "--out", str(exp)])
        assert sorted(p.name for p in rec.iterdir()) == [
            "notes.csv", "scores.csv", "skipped.txt", "timeml"]
        assert sorted(p.name for p in exp.iterdir()) == [
            "a.csv", "b.csv", "notes.txt", "procedure1.txt"]
        assert (rec / "timeml" / "notes.txt").read_text() == "mine\n"


class TestDumpTable:
    def test_grid(self, runner):
        result = runner.invoke(cli, ["dump-composition-table"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 15
        assert lines[0].startswith(".\tBEFORE")


class TestMainExitCodes:
    def test_config_error_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--corpus", str(tmp_path),
                  "--members", "a", "--out", str(tmp_path / "o")])
        assert err.value.code == 1

    def test_data_error_exits_2(self, tmp_path, corpus_root):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as err:
            main(["score", "--system", str(empty),
                  "--reference", str(corpus_root / "reference")])
        assert err.value.code == 2

    def test_empty_reference_exits_2(self, corpus_root, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        for path in (corpus / "reference").glob("*.tml"):
            path.unlink()
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--corpus", str(corpus), "--members", "alpha",
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert f"no .tml files in {corpus / 'reference'}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_classifier_dir_exits_2(self, corpus_root, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        for path in (corpus / "runs" / "alpha").glob("*.tml"):
            path.unlink()
        ens = tmp_path / "ens.txt"
        ens.write_text("beta\n")
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--corpus", str(corpus), "--procedure", "1",
                  "--ensembles", str(ens)])
        assert err.value.code == 2
        assert (f"no .tml files in {corpus / 'runs' / 'alpha'}"
                in capsys.readouterr().err)

    def test_timex_id_shared_with_an_event_exits_2(self, tmp_path, capsys):
        # Linked, the two entities were one node: a self-loop traceback.
        for side in ("reference", "system"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "d1.tml").write_text(
                '<TimeML><TIMEX3 tid="x1"/><MAKEINSTANCE eiid="x1" eventID="e1"/>'
                '<TLINK lid="l1" relType="BEFORE" timeID="x1" '
                'relatedToEventInstance="x1"/></TimeML>')
        with pytest.raises(SystemExit) as err:
            main(["score", "--system", str(tmp_path / "system"),
                  "--reference", str(tmp_path / "reference")])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            "data error: d1: id 'x1' names both a TIMEX3 and a MAKEINSTANCE\n")

    @pytest.mark.parametrize("command", ["reconcile", "experiment", "export-lp"])
    def test_id_given_two_kinds_by_the_members_exits_2(self, tmp_path, capsys,
                                                       command):
        # Written by id alone, the two x1 would be one entity, and a TLINK
        # naming the other kind would not resolve when read back.
        timex = EntityRef(EntityKind.TIMEX, "x1", "d1")
        event = EntityRef(EntityKind.EVENT_INSTANCE, "x1", "d1")
        ei1 = EntityRef(EntityKind.EVENT_INSTANCE, "ei1", "d1")
        for sub, x1 in (("reference", event), ("runs/alpha", event),
                        ("runs/beta", timex)):
            (tmp_path / sub).mkdir(parents=True)
            write_timeml([ei1, x1], [TLink(ei1, x1, RelType.BEFORE)],
                         tmp_path / sub / "d1.tml")
        (tmp_path / "weights.txt").write_text("alpha 0.9\nbeta 0.8\n")
        (tmp_path / "ens.txt").write_text("alpha,beta\n")
        args = {"reconcile": ["--members", "alpha,beta", "--out", str(tmp_path / "o")],
                "experiment": ["--procedure", "1", "--ensembles", str(tmp_path / "ens.txt")],
                "export-lp": ["--members", "alpha,beta", "--doc", "d1",
                              "--out", str(tmp_path / "d1.lp")]}
        with pytest.raises(SystemExit) as err:
            main([command, "--corpus", str(tmp_path), *args[command]])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            "data error: d1: the members give id 'x1' two kinds, "
            "TIMEX and EVENT_INSTANCE\n")

    # XML declarations that leave a Latin-1 document unreadable, by test id
    # suffix, and the error each gives after the document's name.
    UNREADABLE = {
        "": ("", "line 1, column 16: not well-formed (invalid token)"),
        "-bogus": ('<?xml version="1.0" encoding="bogus"?>\n',
                   "declared encoding cannot be read: unknown encoding: bogus"),
        "-shift_jis": ('<?xml version="1.0" encoding="shift_jis"?>\n',
                       "declared encoding cannot be read: multi-byte encodings are not "
                       "supported"),
    }

    @pytest.mark.parametrize("command, case", [
        pytest.param(command, case, id=command + case) for case in UNREADABLE
        for command in ("score", "reconcile", "experiment")])
    def test_undeclared_latin1_document_exits_2(self, corpus_root, tmp_path, capsys,
                                                command, case):
        # Without an XML declaration a document is UTF-8, so its Latin-1
        # byte is malformed input, named once by line and column.  A
        # declared encoding that is unknown or multi-byte cannot be read at
        # all.  Each is a data error.
        declaration, error = self.UNREADABLE[case]
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        doc = corpus / "reference" / "synth_000.tml"
        body = doc.read_text(encoding="utf-8").split("\n", 1)[1]
        assert body.startswith("<TimeML>\n")
        doc.write_bytes((declaration + body.replace("<TimeML>", "<TimeML><!-- caf\xe9 -->", 1))
                        .encode("latin-1"))
        (tmp_path / "ens.txt").write_text("alpha\n")
        args = {"score": ["--system", str(corpus / "reference"),
                          "--reference", str(corpus / "reference")],
                "reconcile": ["--corpus", str(corpus), "--members", "alpha",
                              "--out", str(tmp_path / "o")],
                "experiment": ["--corpus", str(corpus), "--procedure", "1",
                               "--ensembles", str(tmp_path / "ens.txt")]}
        with pytest.raises(SystemExit) as err:
            main([command, *args[command]])
        assert err.value.code == 2
        assert capsys.readouterr().err == f"data error: synth_000: {error}\n"

    def test_declared_latin1_document_is_read(self, corpus_root, tmp_path, capsys):
        ref = tmp_path / "reference"
        shutil.copytree(corpus_root / "reference", ref)
        doc = ref / "synth_000.tml"
        body = doc.read_text(encoding="utf-8").split("\n", 1)[1]
        doc.write_bytes(('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
                         + body.replace("<TimeML>", "<TimeML><!-- caf\xe9 -->", 1))
                        .encode("latin-1"))
        main(["score", "--system", str(ref), "--reference", str(ref)])  # exit 0
        assert capsys.readouterr().out.splitlines()[-1] == "ALL,1.0000,1.0000,1.0000,,,,"

    @pytest.mark.parametrize("option", ["--weights", "--split", "--ensembles", "--config"])
    def test_line_file_not_utf8_exits_1(self, corpus_root, tmp_path, capsys, option):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("# caf\xe9\n".encode("latin-1"))
        (tmp_path / "ens.txt").write_text("alpha\n")
        files = {"--ensembles": tmp_path / "ens.txt", option: bad}
        group = ["--config", str(files.pop("--config"))] if option == "--config" else []
        with pytest.raises(SystemExit) as err:
            main([*group, "experiment", "--corpus", str(corpus_root), "--procedure", "1",
                  *(arg for opt, path in files.items() for arg in (opt, str(path)))])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: {bad}: not UTF-8 (byte 5: invalid continuation byte)\n")

    def test_missing_weights_file_exits_1(self, corpus_root, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_root, corpus)
        (corpus / "weights.txt").unlink()
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--corpus", str(corpus), "--members", "alpha",
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: weights file not found: {corpus / 'weights.txt'}\n")

    def test_malformed_weights_line_exits_1(self, corpus_root, tmp_path, capsys):
        weights = tmp_path / "w.txt"
        weights.write_text("alpha 0.9\nbeta\n")
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--corpus", str(corpus_root), "--members", "alpha",
                  "--weights", str(weights), "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: {weights}:2: expected '<name> <weight>'\n")

    def test_ensembles_file_without_an_ensemble_exits_1(self, corpus_root, tmp_path,
                                                        capsys):
        ens = tmp_path / "ens.txt"
        ens.write_text("# no ensemble yet\n\n")
        with pytest.raises(SystemExit) as err:
            main(["experiment", "--corpus", str(corpus_root), "--procedure", "1",
                  "--ensembles", str(ens)])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: no ensembles defined in {ens}\n")

    def test_bad_option_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--no-such-flag"])
        assert err.value.code == 1

    @pytest.mark.parametrize("command", ["reconcile", "experiment"])
    def test_time_limit_must_be_positive(self, corpus_root, tmp_path, capsys,
                                         monkeypatch, command):
        def no_load(*args, **kwargs):
            raise AssertionError("--time-limit must be checked before loading")

        monkeypatch.setattr(cli_module, "load_corpus", no_load)
        monkeypatch.setattr(cli_module, "run_procedure_one", no_load)
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha\n")
        extra = {"reconcile": ["--members", "alpha", "--out", str(tmp_path / "o")],
                 "experiment": ["--procedure", "1", "--ensembles", str(ens)]}
        with pytest.raises(SystemExit) as err:
            main([command, "--corpus", str(corpus_root), *extra[command],
                  "--time-limit", "0"])
        assert err.value.code == 1
        assert "--time-limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconcile", "experiment"])
    def test_nan_time_limit_exits_1(self, corpus_root, tmp_path, capsys, command):
        ens = tmp_path / "ens.txt"
        ens.write_text("alpha\n")
        extra = {"reconcile": ["--members", "alpha", "--out", str(tmp_path / "o")],
                 "experiment": ["--procedure", "1", "--ensembles", str(ens)]}
        with pytest.raises(SystemExit) as err:
            main([command, "--corpus", str(corpus_root), *extra[command],
                  "--time-limit", "nan"])
        assert err.value.code == 1
        assert "--time-limit" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["reconcile", "experiment"])
    def test_failed_solve_exits_3_with_one_line(self, corpus_root, tmp_path, capsys,
                                                command):
        # So short a limit passes before round 1's broken rows are re-solved.
        args = (["--members", "alpha,beta"] if command == "reconcile" else
                ["--procedure", "2", "--ensembles", str(tmp_path / "ensembles.txt")])
        (tmp_path / "ensembles.txt").write_text("alpha,beta\n")
        with pytest.raises(SystemExit) as err:
            main([command, "--corpus", str(corpus_root), *args, "--time-limit", "1e-9",
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"solve error: (alpha\+beta/)?synth_\d+: time limit reached "
                            r"before any incumbent was found; row t\d+_\d+_\d+ is still broken",
                            lines[0]), lines

    def test_failed_verification_exits_3(self, corpus_root, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("tlinkrec.pipeline.violations",
                            lambda program, solution: ["row t0_1_1 broken"])
        with pytest.raises(SystemExit) as err:
            main(["reconcile", "--corpus", str(corpus_root), "--members", "alpha,beta",
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 3
        assert capsys.readouterr().err == (
            "solve error: synth_000: solution fails verification: row t0_1_1 broken\n")

    def test_success_returns(self, corpus_root, capsys):
        main(["dump-composition-table"])
        assert capsys.readouterr().out.splitlines()[1].startswith("BEFORE")


class TestConfigFile:
    def test_defaults_from_config(self, runner, corpus_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"corpus = {corpus_root}\nmembers = alpha\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, [
            "--config", str(cfg), "reconcile", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "scores.csv").exists()

    def test_unknown_config_key_exits_1(self, corpus_root, tmp_path, capsys,
                                        monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("the config file must be checked before loading")

        monkeypatch.setattr(cli_module, "load_corpus", no_load)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# limits\nstrict = false\ntime_limt = 0.5\n")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "reconcile", "--corpus", str(corpus_root),
                  "--members", "alpha", "--out", str(tmp_path / "o")])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}:3: 'time_limt' names no option of any command\n")

    def test_out_fills_only_directory_options(self, runner, corpus_root, tmp_path,
                                              monkeypatch):
        # `out` names reconcile's output directory; score must keep writing
        # its CSV to stdout instead of to a file named by the config.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"corpus = {corpus_root}\nmembers = alpha\nout = o1\n")
        ref = str(corpus_root / "reference")
        result = runner.invoke(cli, ["--config", str(cfg), "score",
                                     "--system", ref, "--reference", ref])
        assert result.exit_code == 0, result.output
        assert "ALL,1.0000,1.0000,1.0000" in result.output
        assert not (tmp_path / "o1").exists()
        result = runner.invoke(cli, ["--config", str(cfg), "reconcile"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o1" / "scores.csv").exists()

    def test_bad_config_line(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("just-a-word\n")
        result = runner.invoke(cli, ["--config", str(cfg),
                                     "dump-composition-table"])
        assert result.exit_code != 0
