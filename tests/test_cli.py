"""CLI subcommands end to end on a small synthetic dataset."""

import json
import os
import re
import shutil

import pytest

from side import numerics as nm
from side.cli import main
from side.core import training_cutoff
from side.dsiq import impact_csv_header


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic inputs, a small config, and one quantify/train/evaluate run of it.

    ``run`` holds that run's impact CSV, checkpoint and predictions.  Tests
    copy what they need out of it (see ``_run_config``) and never write
    into it, so each test passes on its own and in any order.
    """
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    code = main(
        [
            "synth",
            "--out",
            str(data),
            "--seed",
            "5",
            "--weeks",
            "120",
            "--docs-per-week",
            "6",
            "--lead",
            "2",
        ]
    )
    assert code == 0
    cfg = {
        "seed": 5,
        "state": "synth",
        "backend": "lexicon",
        "paths": {
            "dsci": str(data / "dsci.csv"),
            "social": str(data / "posts.jsonl"),
            "news": str(data / "news.jsonl"),
            "entities": str(data / "entities.txt"),
            "lexicon": None,
            "out_dir": str(root / "run"),
        },
        "windows": {"lookback": 16, "horizon": 3},
        "dsiq": {"topic_count": 12},
        "model": {"width": 8, "hidden": 16},
        "train": {"max_epochs": 3, "patience": 3, "batch_size": 16, "learning_rate": 0.003},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    for command in ("quantify", "train", "evaluate"):
        assert main([command, "--config", str(cfg_path)]) == 0
    return {"data": data, "run": root / "run", "raw": cfg}


#: The workspace files that ``evaluate`` reads.
TRAINED = ("synth_impact.csv", "synth_checkpoint.json")


def _run_config(workspace, tmp_path, *files, **sections):
    """A config whose out_dir is a fresh ``tmp_path/run`` holding copies of ``files`` from the workspace run.

    ``sections`` replace top-level config sections (``train=...``, say).
    """
    run = tmp_path / "run"
    run.mkdir()
    for name in files:
        shutil.copy(workspace["run"] / name, run / name)
    raw = dict(workspace["raw"], paths=dict(workspace["raw"]["paths"], out_dir=str(run)), **sections)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    return cfg_path, run


def test_synth_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / sub), "--seed", "3", "--weeks", "20"]) == 0
    for name in ("dsci.csv", "posts.jsonl", "news.jsonl", "entities.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_quantify_writes_impact_and_topics(workspace, tmp_path):
    cfg_path, run = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    impact = run / "synth_impact.csv"
    lines = impact.read_text().splitlines()
    assert lines[0].split(",")[0] == "timestep"
    assert len(lines[0].split(",")) == 23
    assert len(lines) - 1 == 120  # one row per week
    topics = (run / "synth_topics.csv").read_text().splitlines()
    assert topics[0] == "source,cluster_id,determinant,doc_count,keywords"
    assert any(line.startswith("social,") for line in topics[1:])
    assert any(line.startswith("news,") for line in topics[1:])


def test_quantify_rerun_byte_identical(workspace, tmp_path):
    cfg_path, run = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    for name in ("synth_impact.csv", "synth_topics.csv"):
        assert (run / name).read_bytes() == (workspace["run"] / name).read_bytes(), name


def test_train_then_evaluate_and_determinism(workspace, tmp_path):
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv")
    cfg = str(cfg_path)
    assert main(["train", "--config", cfg]) == 0
    checkpoint = run / "synth_checkpoint.json"
    history = run / "synth_history.csv"
    assert checkpoint.exists() and history.exists()
    assert history.read_text().splitlines()[0] == "epoch,train_loss,val_loss,lr"

    assert main(["evaluate", "--config", cfg]) == 0
    metrics = run / "synth_metrics.csv"
    first = metrics.read_bytes()
    rows = metrics.read_text().splitlines()
    assert rows[0] == "variant,target,MAE,MSE,RMSE,MFA"
    variants = {line.split(",")[0] for line in rows[1:]}
    assert variants == {"full", "persistence", "linear_ar"}

    # same config and seed: retrain + re-evaluate must be byte-identical
    assert main(["train", "--config", cfg]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    assert metrics.read_bytes() == first


def test_predictions_and_export_plots_pass_through(workspace, tmp_path):
    _, run = _run_config(workspace, tmp_path, "synth_predictions.csv")
    predictions = run / "synth_predictions.csv"
    assert predictions.exists()
    assert main(["export-plots", "--run", str(run), "--state", "synth"]) == 0

    severity = (run / "synth_plot_severity.csv").read_text().splitlines()
    assert severity[0] == "start,step,timestep,actual,predicted"
    pred_rows = predictions.read_text().splitlines()[1:]
    assert len(severity) - 1 == len(pred_rows)  # every test window step
    # pass-through: first data row equals the predictions file columns
    first_pred = pred_rows[0].split(",")
    assert severity[1].split(",") == first_pred[:5]

    bars = (run / "synth_plot_determinants.csv").read_text().splitlines()
    assert bars[0] == "source,determinant,predicted,actual"
    assert len(bars) - 1 == 22


def test_evaluate_rejects_checkpoint_with_stale_model_block(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    checkpoint = run / "synth_checkpoint.json"
    payload = nm.load_checkpoint(checkpoint)
    payload["config"]["model"]["determinant_count"] = 11  # written before the key was removed
    nm.save_checkpoint(checkpoint, payload["params"], payload["config"], payload["extras"])
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    assert "retrain" in capsys.readouterr().err
    assert not (run / "synth_metrics.csv").exists()


def test_evaluate_rejects_checkpoint_trained_for_other_model(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED, model={"width": 16, "hidden": 16})
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    assert "trained for" in capsys.readouterr().err
    assert not (run / "synth_metrics.csv").exists()


@pytest.mark.parametrize(
    "defect", ["no_config_hash", "top_level_list", "no_standardizer", "bad_param_shape"]
)
def test_evaluate_rejects_malformed_checkpoint(workspace, tmp_path, capsys, defect):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    checkpoint = run / "synth_checkpoint.json"
    payload = json.loads(checkpoint.read_text(encoding="utf-8"))
    if defect == "no_config_hash":
        del payload["config_hash"]
    elif defect == "no_standardizer":
        del payload["extras"]["standardizer"]
    elif defect == "bad_param_shape":
        payload["params"][0]["shape"] = [7, 7, 7]
    else:
        payload = [payload]
    checkpoint.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 3
    assert "checkpoint" in capsys.readouterr().err
    assert not (run / "synth_metrics.csv").exists()


def test_quantify_refuses_to_fit_topics_on_held_out_text(workspace, tmp_path, capsys):
    raw = workspace["raw"]
    weeks = (workspace["data"] / "dsci.csv").read_text().splitlines()[1:]
    windows = raw["windows"]
    cutoff = training_cutoff(len(weeks), windows["lookback"], windows["horizon"], (7, 1, 2))
    first_held_out_week = weeks[cutoff].split(",")[0]
    news = tmp_path / "news.jsonl"
    with open(news, "w", encoding="utf-8") as fh:
        for line in (workspace["data"] / "news.jsonl").read_text().splitlines():
            if json.loads(line)["timestamp"][:10] >= first_held_out_week:
                fh.write(line + "\n")
    assert news.stat().st_size > 0
    paths = dict(raw["paths"], news=str(news), out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=paths)), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    assert "no news document falls in the training range" in capsys.readouterr().err
    assert not (tmp_path / "run" / "synth_impact.csv").exists()


def test_quantify_rejects_misspelled_lexicon(workspace, tmp_path, capsys):
    lexicon = tmp_path / "lex.json"
    lexicon.write_text(json.dumps({"Agricultre": ["crop", "farm"]}), encoding="utf-8")
    raw = workspace["raw"]
    paths = dict(raw["paths"], lexicon=str(lexicon), out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=paths)), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    assert "'Agricultre' is not a determinant name" in capsys.readouterr().err
    assert not (tmp_path / "run" / "synth_impact.csv").exists()


def test_ablate_writes_four_variants(workspace, tmp_path):
    train = dict(workspace["raw"]["train"], max_epochs=1, patience=1)
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv", train=train)
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    rows = (run / "synth_metrics.csv").read_text().splitlines()[1:]
    variants = {line.split(",")[0] for line in rows}
    assert variants == {"full", "no_social", "no_news", "no_attention"}
    targets = {line.split(",")[1] for line in rows if line.startswith("full,")}
    per_target = {}
    for line in rows:
        variant, target = line.split(",")[:2]
        per_target.setdefault(target, set()).add(variant)
    assert all(len(v) == 4 for v in per_target.values())
    assert "severity" in targets


def test_missing_input_exits_2(tmp_path):
    cfg = {
        "paths": {
            "dsci": str(tmp_path / "absent.csv"),
            "social": str(tmp_path / "absent.jsonl"),
            "news": str(tmp_path / "absent.jsonl"),
            "entities": str(tmp_path / "absent.txt"),
            "out_dir": str(tmp_path / "run"),
        }
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["quantify", "--config", str(path)]) == 2


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"unknown_key": 1}), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2


def test_missing_run_dir_export_exits_2(tmp_path):
    assert main(["export-plots", "--run", str(tmp_path), "--state", "synth"]) == 2


def test_seed_override_changes_outputs(workspace, tmp_path):
    cfg_path, run = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--seed", "11"]) == 0
    hist_11 = (run / "synth_history.csv").read_bytes()
    assert main(["train", "--config", str(cfg_path), "--seed", "12"]) == 0
    assert (run / "synth_history.csv").read_bytes() != hist_11


def test_divergence_exits_3_and_saves_last_good_checkpoint(workspace, tmp_path):
    import numpy as np

    train = dict(workspace["raw"]["train"], learning_rate=1e200)
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv", train=train)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg_path)]) == 3
    assert (run / "synth_checkpoint.json").exists()


def test_train_rejects_nan_in_impact_csv(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv")
    lines = (run / "synth_impact.csv").read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    (run / "synth_impact.csv").write_text("".join(lines), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "synth_impact.csv:6" in capsys.readouterr().err
    assert not (run / "synth_checkpoint.json").exists()


def test_lexicon_backend_makes_no_network_calls(workspace, tmp_path, monkeypatch):
    import requests

    def boom(*args, **kwargs):
        raise AssertionError("network call attempted with lexicon backend")

    monkeypatch.setattr(requests.Session, "post", boom)
    monkeypatch.setattr(requests.Session, "request", boom)
    cfg_path, _ = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path), "--backend", "lexicon"]) == 0


def test_import_cli_leaves_requests_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    import side

    env = dict(os.environ, PYTHONPATH=str(Path(side.__file__).parents[1]))
    code = "import sys, side.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_quantify_reports_ingest_counts(workspace, tmp_path, capsys):
    posts = tmp_path / "posts.jsonl"
    original = (workspace["data"] / "posts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    stamp = json.loads(original[0])["timestamp"]
    extra = ["{not json\n", json.dumps({"id": "blank", "timestamp": stamp, "text": "  "}) + "\n"]
    posts.write_text("".join(original[:3] + extra + original[3:]), encoding="utf-8")
    raw = workspace["raw"]
    paths = dict(raw["paths"], social=str(posts), out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=paths)), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    pattern = (
        r"{}: read (\d+), malformed (\d+), empty (\d+), out of range (\d+), "
        r"outside the state (\d+), kept (\d+)\n"
    )
    social = [int(n) for n in re.search(pattern.format("social"), out).groups()]
    news = [int(n) for n in re.search(pattern.format("news"), out).groups()]
    read, malformed, empty, out_of_range, outside, kept = social
    assert (read, malformed, empty) == (len(original) + 2, 1, 1)
    assert malformed + empty + out_of_range + outside + kept == read
    assert news[1:3] == [0, 0] and sum(news[1:]) == news[0]
    assert outside > 0 and kept > 0  # synth writes out-of-state documents too


@pytest.mark.parametrize("defect", ["missing_column", "short_row", "no_rows", "non_numeric"])
def test_export_plots_rejects_bad_predictions(tmp_path, capsys, defect):
    names = impact_csv_header()[1:]
    header = ["start", "step", "timestep", "severity_true", "severity_pred"]
    header += [f"true_{n}" for n in names] + [f"pred_{n}" for n in names]
    row = ["0", "0", "16"] + ["0.5"] * (len(header) - 3)
    lines = [",".join(header) + "\n"] + [",".join(row) + "\n"] * 2
    where = "synth_predictions.csv:3"
    if defect == "missing_column":
        lines = [line.split(",", 1)[1] for line in lines]  # drop "start" everywhere
        where = "synth_predictions.csv:1"
    elif defect == "short_row":
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
    elif defect == "no_rows":
        lines = lines[:1]
        where = "synth_predictions.csv"
    else:
        cells = lines[2].split(",")
        cells[4] = "high"
        lines[2] = ",".join(cells)
    (tmp_path / "synth_predictions.csv").write_text("".join(lines), encoding="utf-8")
    assert main(["export-plots", "--run", str(tmp_path), "--state", "synth"]) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "synth_plot_severity.csv").exists()
