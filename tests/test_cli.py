"""End-to-end command-line tests, run in process through main(argv)."""

import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import labmlm
from labmlm import cli, finetune, parallel
from labmlm.cli import main
from labmlm.corpus import (
    LabEvent,
    generate_outcome_dataset,
    generate_synthetic_corpus,
    read_events_csv,
    split_patients,
    write_events_csv,
    write_outcome_csv,
)
from labmlm.ecdf import Vocab
from labmlm.errors import NumericError
from labmlm.model import load_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert run("synth", "--patients", 60, "--codes", 5, "--seed", 4,
               "--out", root / "raw") == 0
    assert run("preprocess", "--events", root / "raw" / "events.csv",
               "--min-count", 0, "--out", root / "pp") == 0
    return root


@pytest.fixture(scope="module")
def messy_csv(tmp_path_factory):
    """Shuffled rows: missing values, a rare code, a code only some patients
    have, bags shorter than 3 and patient ids whose str order is not their
    numeric order."""
    events, _ = generate_synthetic_corpus(80, 6, seed=17, missing_rate=0.1)
    events += [LabEvent("P00003", 99, "R", 1.5), LabEvent("P00004", 99, "R", 2.5),
               LabEvent("P00005", 99, "R", None)]
    events += [LabEvent("P00001", 7, "C000", 0.25), LabEvent("P00001", 7, "C001", None)]
    for pid in ("Q10", "Q7", "Q9"):
        events += [LabEvent(pid, 3600, f"C00{j}", float(j) - 2.5) for j in range(5)]
        events += [LabEvent(pid, 3600, "X", 0.5), LabEvent(pid, 3600, "C000", None)]
    rng = np.random.default_rng(17)
    events = [events[i] for i in rng.permutation(len(events))]
    path = tmp_path_factory.mktemp("messy") / "events.csv"
    write_events_csv(path, events)
    return path


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


PREPROCESS_FLAGS = {
    "continuous": ["--min-count", 3, "--shard-size", 7, "--seed", 5],
    "decile": ["--mode", "decile", "--binary-codes", "C005", "--min-count", 3,
               "--shard-size", 7, "--seed", 5],
}


@pytest.fixture(scope="module")
def run_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run("pretrain", "--data", corpus_dir / "pp", "--out", out,
               "--d-model", 16, "--num-layers", 1, "--num-heads", 2,
               "--ff-dim", 32, "--steps", 30, "--batch-size", 16,
               "--learning-rate", 1e-3, "--checkpoint-interval", 20,
               "--seed", 1)
    assert code == 0
    return out


class TestSynth:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--patients", 20, "--codes", 4, "--seed", 7,
                       "--out", out) == 0
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
        truth = json.loads((a / "truth.json").read_text())
        assert len(truth["codes"]) == 4

    def test_event_count_matches_generator(self, tmp_path):
        assert run("synth", "--patients", 20, "--codes", 4, "--seed", 7,
                   "--out", tmp_path) == 0
        events, _ = generate_synthetic_corpus(20, 4, seed=7)
        assert len(read_events_csv(tmp_path / "events.csv")) == len(events)

    def test_unwritable_path_fails(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run("synth", "--patients", 5, "--codes", 3, "--out", blocker) == 1
        assert "error:" in capsys.readouterr().err


class TestPreprocess:
    def test_nothing_dropped_and_layout(self, corpus_dir, capsys):
        events = corpus_dir / "raw" / "events.csv"
        out = corpus_dir / "pp2"
        assert run("preprocess", "--events", events, "--min-count", 0,
                   "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "codes kept: 5 of 5" in stdout
        for name in ("ecdfs.json", "vocab.json"):
            assert (out / name).is_file()
        for split in ("train", "val", "test"):
            assert list((out / split).glob("shard-*.bin"))

    def test_rerun_writes_identical_shards(self, corpus_dir, tmp_path):
        events = corpus_dir / "raw" / "events.csv"
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("preprocess", "--events", events, "--min-count", 0,
                       "--seed", 3, "--out", out) == 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    # Recorded before the columnar rewrite of preprocess: every output byte
    # and the printed summary must stay the same.
    GOLDEN = {"continuous": "7ee2a4cf94a4c12c17f4eec024ced7d5a29c0a85e30fbd935b33ada0c5e2d031",
              "decile": "a4b3b55b246f4bac9e12c89bff9bb62c92357d2e6dc30c440e0526c40efd53bc"}

    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_golden_digest(self, messy_csv, tmp_path, capsys, mode):
        out = tmp_path / mode
        capsys.readouterr()
        assert run("preprocess", "--events", messy_csv, *PREPROCESS_FLAGS[mode],
                   "--out", out) == 0
        stdout = capsys.readouterr().out
        digest = hashlib.sha256((_tree_digest(out) + stdout).encode()).hexdigest()
        assert digest == self.GOLDEN[mode], stdout

    @pytest.mark.parametrize("mode", ["continuous", "decile"])
    def test_output_independent_of_str_hash_seed(self, messy_csv, tmp_path, mode):
        src = str(Path(labmlm.__file__).resolve().parent.parent)
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "labmlm", "preprocess", "--events", str(messy_csv),
                 *map(str, PREPROCESS_FLAGS[mode]), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digest = hashlib.sha256((_tree_digest(out) + proc.stdout).encode()).hexdigest()
            assert digest == self.GOLDEN[mode], hash_seed

    def test_failed_json_write_keeps_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli._write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.json"]

    def test_decile_vocab_size_for_three_numeric_codes(self, tmp_path, capsys):
        assert run("synth", "--patients", 40, "--codes", 3, "--seed", 2,
                   "--out", tmp_path / "raw") == 0
        assert run("preprocess", "--events", tmp_path / "raw" / "events.csv",
                   "--min-count", 0, "--mode", "decile",
                   "--out", tmp_path / "pp") == 0
        assert "vocab size: 34" in capsys.readouterr().out
        assert Vocab.load(tmp_path / "pp" / "vocab.json").vocab_size == 34

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "events.csv"
        bad.write_text("patient_id,chart_time,code_id,value\nP0,3600,A,1.0\nP0,oops,A,2.0\n")
        out = tmp_path / "pp"
        assert run("preprocess", "--events", bad, "--out", out) == 1
        assert ":3:" in capsys.readouterr().err
        assert not out.exists()

    def test_failure_cleans_new_artifacts_only(self, tmp_path, capsys):
        # Code B never carries a value for training patients, so it gets no
        # eCDF; a valued B in the val split then fails bag building after the
        # train shards were already written.
        patients = [f"P{i:02d}" for i in range(10)]
        _, val_ids, _ = split_patients(patients, (0.7, 0.1, 0.2), seed=0)
        val_patient = sorted(val_ids)[0]
        events = []
        from labmlm.corpus import LabEvent
        for pid in patients:
            b_value = 5.0 if pid == val_patient else None
            events.extend([
                LabEvent(pid, 3600, "A", 1.0), LabEvent(pid, 3600, "B", b_value),
                LabEvent(pid, 3600, "C", 2.0), LabEvent(pid, 3600, "D", 3.0)])
        csv_path = tmp_path / "events.csv"
        write_events_csv(csv_path, events)

        out = tmp_path / "existing"
        out.mkdir()
        sentinel = out / "keep.txt"
        sentinel.write_text("mine")
        assert run("preprocess", "--events", csv_path, "--min-count", 0,
                   "--seed", 0, "--out", out) == 1
        assert "no eCDF" in capsys.readouterr().err
        assert sentinel.read_text() == "mine"
        assert not (out / "ecdfs.json").exists()
        assert not (out / "vocab.json").exists()
        assert not (out / "train").exists()


class TestPretrain:
    def test_run_directory_layout(self, run_dir):
        assert (run_dir / "config.json").is_file()
        assert (run_dir / "metrics.csv").is_file()
        assert (run_dir / "report.json").is_file()
        assert (run_dir / "checkpoints" / "final.ckpt").is_file()
        assert (run_dir / "checkpoints" / "step-00000020.ckpt").is_file()
        report = json.loads((run_dir / "report.json").read_text())
        assert report["final_checkpoint"] == "checkpoints/final.ckpt"
        assert report["final_val"]["step"] == 30
        with open(run_dir / "metrics.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["step", "split", "ce", "mse", "perplexity"]

    def test_flags_override_config_file(self, corpus_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 4, "learning_rate": 0.001,
                                   "d_model": 16, "num_layers": 1,
                                   "num_heads": 2, "ff_dim": 32}))
        out = tmp_path / "run"
        assert run("pretrain", "--data", corpus_dir / "pp", "--config", cfg,
                   "--steps", 6, "--out", out) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["train"]["steps"] == 6
        assert resolved["train"]["learning_rate"] == 0.001

    def test_unknown_config_key_rejected(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stepz": 4}))
        assert run("pretrain", "--data", corpus_dir / "pp", "--config", cfg,
                   "--out", tmp_path / "run") == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_val_batches_below_one_is_a_named_error(self, corpus_dir, tmp_path, capsys, how):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"val_batches": 0}))
        args = ["--val-batches", 0] if how == "flag" else ["--config", cfg]
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("pretrain", "--data", corpus_dir / "pp", *args, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "val_batches" in err[0], err
        assert not out.exists()

    def test_config_json_records_runtime(self, run_dir):
        resolved = json.loads((run_dir / "config.json").read_text())
        runtime = resolved["runtime"]
        assert runtime["dtype"] == "float32"
        assert runtime["numpy"] == np.__version__
        assert runtime["blas"] and set(runtime["threads"]) == set(cli.THREAD_VARS)
        assert runtime["cpus"] >= 1
        assert load_checkpoint(run_dir / "checkpoints" / "final.ckpt").dtype == np.float32


class TestImpute:
    def test_report_written(self, corpus_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "imp"
        assert run("impute", "--checkpoint", run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", "--split", "test",
                   "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ablation"] is False
        assert report["decode"] == "continuous"
        assert -1.0 <= report["r"] <= 1.0
        assert "imputation r" in capsys.readouterr().out

    def test_ablation_tagged(self, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "imp"
        assert run("impute", "--checkpoint", run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", "--ablation", "--out", out) == 0
        assert json.loads((out / "report.json").read_text())["ablation"] is True

    def test_checkpoint_vocab_mismatch_names_both(self, corpus_dir, run_dir,
                                                  tmp_path, capsys):
        assert run("preprocess", "--events", corpus_dir / "raw" / "events.csv",
                   "--min-count", 0, "--mode", "decile",
                   "--out", tmp_path / "ppd") == 0
        ckpt = run_dir / "checkpoints" / "final.ckpt"
        assert run("impute", "--checkpoint", ckpt, "--data", tmp_path / "ppd",
                   "--out", tmp_path / "imp") == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert "vocab.json" in err
        assert not (tmp_path / "imp").exists()

    @pytest.mark.parametrize("size", [0, -4])
    def test_batch_size_below_one_is_a_named_error(self, corpus_dir, run_dir, tmp_path,
                                                   capsys, size):
        assert run("impute", "--checkpoint", run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", "--batch-size", size,
                   "--out", tmp_path / "imp") == 1
        assert f"--batch-size must be >= 1, got {size}" in capsys.readouterr().err
        assert not (tmp_path / "imp").exists()


class TestFinetune:
    def test_one_cell_grid_emits_one_row(self, corpus_dir, run_dir, tmp_path, capsys):
        truth = json.loads((corpus_dir / "raw" / "truth.json").read_text())
        vals, labels, code_ids = generate_outcome_dataset(truth, 40, seed=5)
        write_outcome_csv(tmp_path / "task.csv", tmp_path / "task.json",
                          vals, labels, code_ids)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs_grid": [20], "batch_grid": [8],
                                    "lr_grid": [0.01], "dropout_grid": [0.0]}))
        out = tmp_path / "ft"
        assert run("finetune", "--checkpoint", run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", "--dataset", tmp_path / "task.csv",
                   "--task", "binary", "--grid", grid, "--replicates", 2,
                   "--out", out) == 0
        with open(out / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["epochs", "batch_size", "learning_rate", "dropout"]
        assert len(rows) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["metric"] == "ce"
        assert report["best"]["epochs"] == 20
        assert report["baseline"]["best_c"] in (0.0001, 0.001, 0.01, 0.1)
        assert report["runtime"]["dtype"] == "float32"
        assert report["runtime"]["numpy"] == np.__version__
        assert "best cell" in capsys.readouterr().out
        assert multiprocessing.active_children() == []

    def write_task(self, corpus_dir, tmp_path, extras=None, extra_names=()):
        truth = json.loads((corpus_dir / "raw" / "truth.json").read_text())
        vals, labels, code_ids = generate_outcome_dataset(truth, 40, seed=5)
        write_outcome_csv(tmp_path / "task.csv", tmp_path / "task.json",
                          vals, labels, code_ids, extras, extra_names)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epochs_grid": [2], "batch_grid": [8],
                                    "lr_grid": [0.01], "dropout_grid": [0.0]}))
        return tmp_path / "task.csv", grid

    def assert_named_failure(self, corpus_dir, run_dir, tmp_path, capsys, dataset, grid,
                             want):
        out = tmp_path / "ft"
        assert run("finetune", "--checkpoint", run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", "--dataset", dataset, "--grid", grid,
                   "--replicates", 1, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert want in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("text, want", [
        ('{"lab_codes": []}', '"label" names a column'),
        ("[1, 2]", '"label" names a column'),
        ("{oops", "not valid JSON"),
    ])
    def test_malformed_sidecar_is_a_named_error(self, corpus_dir, run_dir, tmp_path,
                                                capsys, text, want):
        dataset, grid = self.write_task(corpus_dir, tmp_path)
        (tmp_path / "task.json").write_text(text)
        self.assert_named_failure(corpus_dir, run_dir, tmp_path, capsys, dataset, grid,
                                  want)

    @pytest.mark.parametrize("text, want", [
        ("{oops", "not valid JSON"),
        ("[0.1]", "grid must be a JSON object"),
        ('{"lr_grid": 0.1}', "lr_grid must be a non-empty list of numbers"),
        ('{"lr_grid": []}', "lr_grid must be a non-empty list of numbers"),
        ('{"dropout_grid": ["0.1"]}', "dropout_grid must be a non-empty list of numbers"),
        ('{"epochs_grid": [1.5]}', "epochs_grid must hold integers >= 1"),
        ('{"lr_grid": [-0.001]}', "lr_grid must hold finite rates >= 0, got -0.001"),
        ('{"lr_grid": [NaN]}', "lr_grid must hold finite rates >= 0, got nan"),
        ('{"dropout_grid": [1.0]}', "dropout_grid must hold rates in [0, 1), got 1.0"),
    ])
    def test_malformed_grid_is_a_named_error(self, corpus_dir, run_dir, tmp_path, capsys,
                                             text, want):
        dataset, grid = self.write_task(corpus_dir, tmp_path)
        grid.write_text(text)
        self.assert_named_failure(corpus_dir, run_dir, tmp_path, capsys, dataset, grid,
                                  want)

    def test_failing_grid_unit_is_a_named_error(self, corpus_dir, run_dir, tmp_path,
                                                capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericError("head diverged")

        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.setattr(finetune, "train_head", fail)     # forked workers inherit it
        dataset, grid = self.write_task(corpus_dir, tmp_path)
        self.assert_named_failure(corpus_dir, run_dir, tmp_path, capsys, dataset, grid,
                                  "head diverged")
        assert multiprocessing.active_children() == []

    def test_infinite_lab_is_a_named_error(self, corpus_dir, run_dir, tmp_path, capsys):
        dataset, grid = self.write_task(corpus_dir, tmp_path)
        lines = dataset.read_text().splitlines()
        cells = lines[5].split(",")
        column = lines[0].split(",")[1]
        cells[1] = "inf"
        lines[5] = ",".join(cells)
        dataset.write_text("\n".join(lines) + "\n")
        self.assert_named_failure(corpus_dir, run_dir, tmp_path, capsys, dataset, grid,
                                  f"line 6: column '{column}' has non-finite value 'inf'")

    def test_infinite_extra_is_a_named_error(self, corpus_dir, run_dir, tmp_path, capsys):
        extras = np.linspace(0.0, 1.0, 40)[:, None]
        extras[3, 0] = np.inf
        dataset, grid = self.write_task(corpus_dir, tmp_path, extras, ["age"])
        self.assert_named_failure(corpus_dir, run_dir, tmp_path, capsys, dataset, grid,
                                  "line 5: column 'age' has non-finite value 'inf'")


class TestDumpEmbeddings:
    def test_rows_cover_every_position(self, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "emb"
        assert run("dump-embeddings", "--checkpoint",
                   run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", "--split", "test",
                   "--limit", 10, "--out", out) == 0
        with open(out / "embeddings.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["bag", "position", "code"]
        assert len(rows[0]) == 3 + 16
        from labmlm.corpus import read_shards
        bags = list(read_shards(corpus_dir / "pp" / "test"))[:10]
        assert len(rows) - 1 == sum(len(b) for b in bags)
        assert rows[1][2].startswith("C")

    @pytest.mark.parametrize("flags, want", [
        (["--batch-size", 0], "--batch-size must be >= 1, got 0"),
        (["--batch-size", -4], "--batch-size must be >= 1, got -4"),
        (["--limit", -1], "--limit must be >= 1, got -1"),
        (["--limit", 0], "--limit must be >= 1, got 0"),
    ])
    def test_bad_sizes_are_named_errors(self, corpus_dir, run_dir, tmp_path, capsys,
                                        flags, want):
        out = tmp_path / "emb"
        assert run("dump-embeddings", "--checkpoint", run_dir / "checkpoints" / "final.ckpt",
                   "--data", corpus_dir / "pp", *flags, "--out", out) == 1
        assert want in capsys.readouterr().err
        assert not out.exists()
