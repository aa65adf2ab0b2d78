"""Command line interface: synth -> train -> eval -> report pipeline."""

from __future__ import annotations

import errno
from pathlib import Path

import numpy as np
import pytest

from modalseg.cli import main
from modalseg.data import read_dataset
from modalseg.train import load_checkpoint, save_checkpoint

CONFIG_INI = """\
[model]
stage_channels = 4, 6, 8, 10
blocks_per_stage = 1
d_embed = 8

[train]
epochs = 1
batch_size = 2
base_lr = 0.001
seed = 1
"""


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth+train run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("synth", "--seed", 5, "--out", data, "--train", 4, "--eval", 2,
               "--size", 32, "--classes", 3) == 0
    (root / "train.ini").write_text(CONFIG_INI)
    assert run("train", "--config", root / "train.ini",
               "--data", data / "train.mmss", "--out", root / "run") == 0
    return root


def test_synth_writes_both_splits(workspace):
    train = read_dataset(workspace / "data" / "train.mmss")
    eval_ = read_dataset(workspace / "data" / "eval.mmss")
    assert len(train.scenes) == 4
    assert len(eval_.scenes) == 2
    assert train.num_classes == 3
    assert train.scenes[0].labels.shape == (32, 32)
    # the splits come from different seeds
    train_seeds = {s.seed for s in train.scenes}
    assert all(s.seed not in train_seeds for s in eval_.scenes)


def test_train_writes_run_artifacts(workspace):
    assert (workspace / "run" / "model.mmck").exists()
    log = (workspace / "run" / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,l_m,l_c,loss,lr"
    assert len(log) == 2  # one epoch


def test_eval_writes_report_sidecar_and_rankings(workspace, capsys):
    report = workspace / "report.md"
    rankings = workspace / "rankings.csv"
    assert run("eval", "--model", workspace / "run" / "model.mmck",
               "--data", workspace / "data" / "eval.mmss",
               "--report", report, "--dump-rankings", rankings) == 0
    out = capsys.readouterr().out
    assert "mean mIoU over 15 subsets" in out

    table = report.read_text().splitlines()
    assert len([c for c in table[0].split("|") if c.strip()]) == 16
    assert (workspace / "report.md.json").exists()
    lines = rankings.read_text().splitlines()
    assert lines[0] == "sample,scale,modality,cosine,robust,fragile"
    assert len(lines) == 1 + 2 * 4 * 4


@pytest.mark.parametrize("failing", [0, 1, 2], ids=["report", "sidecar", "rankings"])
def test_failed_eval_write_keeps_previous_files(workspace, tmp_path, capsys, monkeypatch,
                                                failing):
    """A write that fails halfway leaves every earlier output whole and no
    temp file behind, whichever of the three files it hits."""
    outputs = [tmp_path / "report.md", tmp_path / "report.md.json", tmp_path / "rankings.csv"]
    for path in outputs:
        path.write_text(f"previous {path.name}\n")
    writes = []
    real_write_text = Path.write_text

    def write_text(self, text, *args, **kwargs):
        writes.append(self)
        if len(writes) == failing + 1:
            real_write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "no space left on device")
        return real_write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    assert run("eval", "--model", workspace / "run" / "model.mmck",
               "--data", workspace / "data" / "eval.mmss",
               "--report", outputs[0], "--dump-rankings", outputs[2]) == 1
    assert "no space left" in capsys.readouterr().err
    assert len(writes) == failing + 1 and all(p not in outputs for p in writes)
    assert sorted(tmp_path.iterdir()) == sorted(outputs)
    assert all(p.read_text() == f"previous {p.name}\n" for p in outputs)


def test_failed_report_write_keeps_previous_file(workspace, tmp_path, capsys, monkeypatch):
    assert run("eval", "--model", workspace / "run" / "model.mmck",
               "--data", workspace / "data" / "eval.mmss",
               "--report", tmp_path / "eval" / "report.md") == 0
    out = tmp_path / "report.csv"
    out.write_text("previous\n")

    def write_text(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(Path, "write_text", write_text)
    assert run("report", "--report-json", tmp_path / "eval" / "report.md.json",
               "--format", "csv", "--out", out) == 1
    assert "no space left" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [tmp_path / "eval", out]
    assert out.read_text() == "previous\n"


def test_report_rerenders_sidecar_as_csv(workspace, capsys):
    out_csv = workspace / "report.csv"
    assert run("report", "--report-json", workspace / "report.md.json",
               "--format", "csv", "--out", out_csv) == 0
    capsys.readouterr()
    header, row = out_csv.read_text().strip().splitlines()
    assert header.split(",")[-1] == "Mean"
    values = [float(v) for v in row.split(",")]
    assert len(values) == 16
    assert all(0.0 <= v <= 100.0 for v in values)


def test_missing_data_file_is_clean_error(tmp_path, capsys):
    assert run("train", "--data", tmp_path / "nope.mmss",
               "--out", tmp_path / "run") == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_config_is_clean_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nlearning_rate = 1\n")
    assert run("train", "--config", cfg, "--data", tmp_path / "x.mmss",
               "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert "learning_rate" in err


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code != 0
    capsys.readouterr()


def test_synth_rejects_bad_size(tmp_path, capsys):
    assert run("synth", "--out", tmp_path, "--train", 1, "--eval", 1,
               "--size", 48) == 1
    assert "error:" in capsys.readouterr().err


def test_report_rejects_malformed_sidecar(tmp_path, capsys):
    sidecar = tmp_path / "report.md.json"
    sidecar.write_text('{"modality_names": ["camera", "depth"], '
                       '"subsets": [{"name": "C", "miou": 50.0}], "mean": 50.0}')
    assert run("report", "--report-json", sidecar) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected 3" in err


def test_synth_rejects_empty_split_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    for args, message in [(("--eval", 0, "--size", 32), "eval.mmss must be positive"),
                          (("--size", 0), "must be positive multiples of 32")]:
        assert run("synth", "--out", out, "--train", 2, *args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_train_rejects_one_class_dataset_before_writing(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--train", 2, "--eval", 1, "--size", 32,
               "--classes", 1) == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert run("train", "--data", data / "train.mmss", "--out", out) == 1
    assert "num_classes must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_rejects_other_config_before_writing(workspace, tmp_path, capsys):
    (tmp_path / "train.ini").write_text(CONFIG_INI.replace("epochs = 1", "epochs = 2"))
    out = tmp_path / "run"
    assert run("train", "--config", tmp_path / "train.ini",
               "--data", workspace / "data" / "train.mmss", "--out", out,
               "--resume", workspace / "run" / "model.mmck") == 1
    assert "different config" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_class_count_mismatch_before_writing(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--train", 1, "--eval", 1, "--size", 32,
               "--classes", 5) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("eval", "--model", workspace / "run" / "model.mmck",
               "--data", data / "eval.mmss", "--report", out / "report.md") == 1
    assert "dataset has 5 classes, model 3" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_ranking_dump_of_one_modality_before_writing(tmp_path, capsys):
    data = tmp_path / "data"
    assert run("synth", "--seed", 3, "--out", data, "--train", 2, "--eval", 1,
               "--size", 32, "--classes", 3, "--modalities", 1) == 0
    (tmp_path / "train.ini").write_text(CONFIG_INI)
    assert run("train", "--config", tmp_path / "train.ini",
               "--data", data / "train.mmss", "--out", tmp_path / "run") == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("eval", "--model", tmp_path / "run" / "model.mmck",
               "--data", data / "eval.mmss", "--report", out / "report.md",
               "--dump-rankings", out / "rankings.csv") == 1
    assert "at least 2 modalities" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, bad, message", [("history", [1], "history is not"),
                                                 ("rng_state", {}, "PCG64")],
                         ids=["history", "rng_state"])
def test_train_resume_rejects_malformed_header_before_writing(workspace, tmp_path, capsys,
                                                              field, bad, message):
    ckpt = load_checkpoint(workspace / "run" / "model.mmck")
    setattr(ckpt, field, bad)
    resume = tmp_path / "bad.mmck"
    save_checkpoint(resume, ckpt)
    out = tmp_path / "run"
    assert run("train", "--config", workspace / "train.ini",
               "--data", workspace / "data" / "train.mmss", "--out", out,
               "--resume", resume) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed checkpoint header") and message in err
    assert not out.exists()
