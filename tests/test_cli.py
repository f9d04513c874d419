"""CLI subcommands end to end on a small synthetic dataset."""

import base64
import json
import math
import os
import re
import shutil
from importlib import resources

import numpy as np
import pytest

from side import numerics as nm
from side import synth
from side.cli import PREDICTIONS_HEADER, main
from side.core import DETERMINANT_NAMES, SOURCES, read_csv, training_cutoff, write_csv
from side.dsiq import impact_csv_header
from side.train_eval import impact_target_names


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic inputs, a small config, and one quantify/train/evaluate run of it.

    ``run`` holds that run's impact CSV, checkpoint and predictions.  Tests
    copy what they need out of it (see ``_run_config``) and never write
    into it, so each test passes on its own and in any order.
    """
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "SOCIAL_LEAD", 2)
        code = main(["synth", "--out", str(data), "--seed", "5", "--weeks", "120", "--docs-per-week", "6"])
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
    cluster_ids = {}
    for line in topics[1:]:
        source, cluster_id = line.split(",")[:2]
        cluster_ids.setdefault(source, []).append(int(cluster_id))
    assert list(cluster_ids) == list(SOURCES)
    for ids in cluster_ids.values():
        assert ids == list(range(len(ids)))  # a topic's id is its position within its source


def test_quantify_rerun_byte_identical(workspace, tmp_path):
    cfg_path, run = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    for name in ("synth_impact.csv", "synth_topics.csv"):
        assert (run / name).read_bytes() == (workspace["run"] / name).read_bytes(), name


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_quantify_into_a_closed_stdout_exits_0_with_its_files(workspace, tmp_path, unbuffered):
    # As `side quantify ... | head -0`: the reader is gone before anything is printed.
    import subprocess
    import sys
    from pathlib import Path

    import side

    cfg_path, run = _run_config(workspace, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(side.__file__).parents[1]), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "side.cli", "quantify", "--config", str(cfg_path)],
                             stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (0, b"")
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
    written = ("synth_metrics.csv", "synth_predictions.csv", "synth_plot_severity.csv", "synth_plot_determinants.csv")
    first = [(run / name).read_bytes() for name in written]
    rows = metrics.read_text().splitlines()
    assert rows[0] == "variant,target,MAE,MSE,RMSE,MFA"
    variants = {line.split(",")[0] for line in rows[1:]}
    assert variants == {"full", "persistence", "linear_ar"}

    # same config and seed: retrain + re-evaluate must be byte-identical
    assert main(["train", "--config", cfg]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    assert [(run / name).read_bytes() for name in written] == first


def test_predictions_and_export_plots_pass_through(workspace, tmp_path):
    # Oracle: both plot files as computed from *_predictions.csv read back,
    # which is how they were made before evaluate wrote them.
    run = workspace["run"]
    rows = read_csv(run / "synth_predictions.csv", PREDICTIONS_HEADER)
    table = np.array([[float(c) for c in cells] for _, cells in rows])
    assert np.isfinite(table).all()
    test_windows = len({cells[0] for _, cells in rows})
    assert len(rows) == test_windows * workspace["raw"]["windows"]["horizon"]  # every test window step

    severity = run / "synth_plot_severity.csv"
    assert severity.read_text().splitlines()[0] == "start,step,timestep,actual,predicted"
    expected = tmp_path / "severity.csv"
    write_csv(expected, ("start", "step", "timestep", "actual", "predicted"), [cells[:5] for _, cells in rows])
    assert severity.read_bytes() == expected.read_bytes()

    bars = run / "synth_plot_determinants.csv"
    assert bars.read_text().splitlines()[0] == "source,determinant,predicted,actual"
    means = [float(np.mean(table[:, j])) for j in range(5, table.shape[1])]
    labels = [(source, f'"{name}"') for source in SOURCES for name in DETERMINANT_NAMES]
    assert len(labels) == 22
    expected = tmp_path / "determinants.csv"
    write_csv(expected, ("source", "determinant", "predicted", "actual"),
              [(*label, means[len(labels) + k], means[k]) for k, label in enumerate(labels)])
    assert bars.read_bytes() == expected.read_bytes()


def test_impact_column_names_follow_sources_then_determinants(workspace):
    # The impact vector's column order is SOURCES x DETERMINANT_NAMES; every
    # file that names its columns must list them in that order.
    order = [(source, i, name) for source in SOURCES for i, name in enumerate(DETERMINANT_NAMES, start=1)]
    assert impact_csv_header()[1:] == [f"{source[0]}_{i}" for source, i, _ in order]
    assert impact_target_names() == [f"{source}:{name}" for source, _, name in order]
    assert PREDICTIONS_HEADER[5:] == tuple(
        f"{kind}_{source[0]}_{i}" for kind in ("true", "pred") for source, i, _ in order
    )
    bars = (workspace["run"] / "synth_plot_determinants.csv").read_text().splitlines()[1:]
    assert [tuple(line.split(",")[:2]) for line in bars] == [(source, f'"{name}"') for source, _, name in order]


def test_evaluate_prints_the_baselines_under_the_model(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    mae = {line.split(",")[0]: float(line.split(",")[2])
           for line in (run / "synth_metrics.csv").read_text().splitlines() if line.split(",")[1] == "severity"}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"severity MAE {mae['full']:.3f} ")
    assert lines[1:] == [f"persistence: severity MAE {mae['persistence']:.3f}",
                         f"linear_ar: severity MAE {mae['linear_ar']:.3f}"]


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
    "defect",
    [
        "no_config_hash",
        "top_level_list",
        "no_standardizer",
        "bad_param_shape",
        "bad_base64",
        "wrong_value_count",
        "no_layout",
        "no_values",
        "renamed_param",
        "extras_not_object",
        "standardizer_mean_null",
        "standardizer_mean_string",
        "standardizer_mean_nan",
        "standardizer_std_inf",
    ],
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
        payload["layout"][0][1] = [-7, 7]
    elif defect == "bad_base64":
        payload["values"] = payload["values"][:-4] + "*!*!"
    elif defect == "wrong_value_count":
        payload["values"] = base64.b64encode(b"\0" * 8).decode()  # one float64 for the whole layout
    elif defect in ("no_layout", "no_values"):
        del payload[defect[3:]]
    elif defect == "renamed_param":
        [entry] = [e for e in payload["layout"] if e[0] == "cross.wk_d"]
        entry[0] = "cross.wk_dx"
    elif defect == "extras_not_object":
        payload["extras"] = [payload["extras"]]
    elif defect.startswith("standardizer_"):
        field, bad = defect.split("_")[1:]
        payload["extras"]["standardizer"][field] = {"null": None, "string": "0", "nan": math.nan, "inf": math.inf}[bad]
    else:
        payload = [payload]
    checkpoint.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "checkpoint" in err
    assert defect != "renamed_param" or "'cross.wk_dx'" in err
    assert not (run / "synth_metrics.csv").exists()


def test_evaluate_rejects_v1_checkpoint(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    checkpoint = run / "synth_checkpoint.json"
    payload = json.loads(checkpoint.read_text(encoding="utf-8"))
    payload["format"] = "side-checkpoint-v1"
    checkpoint.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    assert "retrain" in capsys.readouterr().err
    assert not (run / "synth_metrics.csv").exists()


def test_evaluate_rejects_another_split(workspace, tmp_path, capsys):
    # a checkpoint trained on another split before the split became a constant
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    checkpoint = run / "synth_checkpoint.json"
    payload = nm.load_checkpoint(checkpoint)
    nm.save_checkpoint(checkpoint, payload["params"], payload["config"], dict(payload["extras"], split=[1, 1, 8]))
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "split" in err and "retrain" in err
    assert not (run / "synth_metrics.csv").exists()


def test_evaluate_rejects_requantified_impacts(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED, dsiq={"topic_count": 9})
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "impact_sha256" in err and "retrain" in err
    assert not (run / "synth_metrics.csv").exists()


def test_evaluate_rejects_edited_dsci(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    dsci = tmp_path / "dsci.csv"
    lines = (workspace["data"] / "dsci.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    week, value = lines[-1].rstrip("\n").split(",")
    lines[-1] = f"{week},{float(value) / 2}\n"  # a test-split week, still in range
    dsci.write_text("".join(lines), encoding="utf-8")
    raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    raw["paths"]["dsci"] = str(dsci)
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "dsci_sha256" in err and "retrain" in err
    assert not (run / "synth_metrics.csv").exists()


def test_quantify_refuses_to_fit_topics_on_held_out_text(workspace, tmp_path, capsys):
    raw = workspace["raw"]
    weeks = (workspace["data"] / "dsci.csv").read_text().splitlines()[1:]
    windows = raw["windows"]
    cutoff = training_cutoff(len(weeks), windows["lookback"], windows["horizon"])
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


def test_quantify_names_invalid_lexicon_before_ingest(workspace, tmp_path, capsys):
    lexicon = tmp_path / "lex.json"
    lexicon.write_text('{"Agriculture": ["crop",]}', encoding="utf-8")
    raw = workspace["raw"]
    paths = dict(raw["paths"], lexicon=str(lexicon), out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=paths)), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {lexicon}: invalid JSON" in captured.err
    assert "read" not in captured.out  # no JSONL source was ingested


@pytest.mark.parametrize("name", ["dsci", "entities", "lexicon", "config"])
def test_non_utf8_byte_names_the_file_and_line(workspace, tmp_path, capsys, name):
    raw = workspace["raw"]
    paths = dict(raw["paths"], out_dir=str(tmp_path / "run"))
    if name == "lexicon":
        paths[name] = str(resources.files("side").joinpath("data/lexicon.json"))
    cfg_path = tmp_path / "c.json"
    bad = cfg_path
    if name != "config":
        bad = tmp_path / os.path.basename(paths[name])
        bad.write_bytes(open(paths[name], "rb").read() + b"\xff\n")
        paths[name] = str(bad)
    cfg_path.write_bytes(json.dumps(dict(raw, paths=paths)).encode() + (b"\xff" if name == "config" else b""))
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    line = bad.read_bytes().split(b"\xff")[0].count(b"\n") + 1
    assert f"error: {bad}:{line}: not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "run" / "synth_impact.csv").exists()


#: JSON nested deeper than the json module recurses.
DEEP_JSON = "[" * 100_000


def test_deeply_nested_posts_line_is_malformed(workspace, tmp_path, capsys):
    posts = tmp_path / "posts.jsonl"
    posts.write_text((workspace["data"] / "posts.jsonl").read_text(encoding="utf-8") + DEEP_JSON + "\n",
                     encoding="utf-8")
    raw = workspace["raw"]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=dict(raw["paths"], social=str(posts),
                                                        out_dir=str(tmp_path / "run")))), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    assert re.search(r"social: read \d+, malformed 1,", capsys.readouterr().out)
    assert (tmp_path / "run" / "synth_impact.csv").read_bytes() == (workspace["run"] / "synth_impact.csv").read_bytes()


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    assert f"error: {cfg_path}: invalid JSON" in capsys.readouterr().err


def test_deeply_nested_lexicon_exits_2_naming_it(workspace, tmp_path, capsys):
    lexicon = tmp_path / "lex.json"
    lexicon.write_text(DEEP_JSON, encoding="utf-8")
    raw = workspace["raw"]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=dict(raw["paths"], lexicon=str(lexicon),
                                                        out_dir=str(tmp_path / "run")))), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    assert f"error: {lexicon}: invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "run" / "synth_impact.csv").exists()


def test_deeply_nested_checkpoint_is_malformed(workspace, tmp_path, capsys):
    cfg_path, run = _run_config(workspace, tmp_path, *TRAINED)
    (run / "synth_checkpoint.json").write_text(DEEP_JSON, encoding="utf-8")
    assert main(["evaluate", "--config", str(cfg_path)]) == 3
    assert "numerical failure: malformed checkpoint" in capsys.readouterr().err
    assert not (run / "synth_metrics.csv").exists()


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64",
     "Unable to allocate 74.5 GiB"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_2(workspace, tmp_path, capsys, monkeypatch, message, shown):
    # What {"model": {"width": 100000}} does, without allocating: the parameters do not fit.
    from side import model

    def init_params(*args):
        raise MemoryError(message)

    monkeypatch.setattr(model, "init_params", init_params)
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv")
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {shown}") and "Traceback" not in err
    assert not (run / "synth_checkpoint.json").exists()


def test_out_dir_that_is_a_file_exits_2_before_ingest(workspace, tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.write_text("", encoding="utf-8")
    raw = workspace["raw"]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=dict(raw["paths"], out_dir=str(out_dir)))), encoding="utf-8")
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert str(out_dir) in captured.err
    assert "read" not in captured.out  # no JSONL source was ingested


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


@pytest.mark.parametrize("name", ["dsci", "config"])
def test_directory_for_a_file_exits_2_naming_it(workspace, tmp_path, capsys, name):
    directory = tmp_path / name
    directory.mkdir()
    raw = workspace["raw"]
    paths = dict(raw["paths"], out_dir=str(tmp_path / "run"))
    if name == "dsci":
        paths["dsci"] = str(directory)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=paths)), encoding="utf-8")
    config = directory if name == "config" else cfg_path
    assert main(["quantify", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(directory) in err


def test_seed_override_changes_outputs(workspace, tmp_path):
    cfg_path, run = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--seed", "11"]) == 0
    hist_11 = (run / "synth_history.csv").read_bytes()
    assert main(["train", "--config", str(cfg_path), "--seed", "12"]) == 0
    assert (run / "synth_history.csv").read_bytes() != hist_11


def test_divergence_exits_3_and_saves_last_good_checkpoint(workspace, tmp_path, capsys):
    import numpy as np

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    train = dict(workspace["raw"]["train"], learning_rate=1e200)
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv", train=train)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg_path)]) == 3
    assert (run / "synth_history.csv").exists()
    text = (run / "synth_checkpoint.json").read_text(encoding="utf-8")
    extras = json.loads(text, parse_constant=no_constants)["extras"]
    assert extras["best_epoch"] == 0 and extras["best_val_loss"] is None
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 3
    assert "retrain" in capsys.readouterr().err
    assert not (run / "synth_metrics.csv").exists()


def test_ablate_divergence_names_the_variant(workspace, tmp_path, capsys):
    import numpy as np

    train = dict(workspace["raw"]["train"], learning_rate=1e200)
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv", train=train)
    with np.errstate(all="ignore"):
        assert main(["ablate", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: full: non-finite")
    assert not (run / "synth_metrics.csv").exists()


def test_ablate_divergence_keeps_the_variants_that_finished(workspace, tmp_path, capsys, monkeypatch):
    from side import train_eval
    from side.errors import DivergenceError

    real_train = train_eval.train

    def train(train_windows, val_windows, model_cfg, train_cfg):
        if model_cfg.ablation == "no_social":
            raise DivergenceError("non-finite training loss at epoch 1")
        return real_train(train_windows, val_windows, model_cfg, train_cfg)

    monkeypatch.setattr(train_eval, "train", train)
    train_section = dict(workspace["raw"]["train"], max_epochs=1, patience=1)
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv", train=train_section)
    assert main(["ablate", "--config", str(cfg_path)]) == 3
    out, err = capsys.readouterr()
    assert err == "numerical failure: no_social: non-finite training loss at epoch 1\n"
    assert re.fullmatch(r"full: severity MAE \d+\.\d{3}\n", out)
    rows = (run / "synth_metrics.csv").read_text().splitlines()[1:]
    assert rows and {line.split(",")[0] for line in rows} == {"full"}


def test_negative_loss_weight_exits_2_before_any_input_is_read(workspace, tmp_path, capsys):
    train = dict(workspace["raw"]["train"], lambda_severity=-1)
    cfg_path, run = _run_config(workspace, tmp_path, train=train)
    assert main(["quantify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "lambda_severity" in captured.err
    assert "read" not in captured.out  # no JSONL source was ingested
    assert not (run / "synth_impact.csv").exists()


@pytest.mark.parametrize("command", ["quantify", "train", "evaluate", "ablate"])
def test_negative_seed_flag_exits_2_before_any_input_is_read(workspace, tmp_path, capsys, command):
    cfg_path, run = _run_config(workspace, tmp_path)
    assert main([command, "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not any(run.iterdir())


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


def test_train_runs_where_c_library_has_no_mallopt(workspace, tmp_path, monkeypatch):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    cfg_path, run = _run_config(workspace, tmp_path, "synth_impact.csv")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (run / "synth_checkpoint.json").exists()


@pytest.mark.parametrize(
    "command, sets", [("quantify", False), ("evaluate", False), ("train", True), ("ablate", True)]
)
def test_only_training_commands_set_the_allocator(workspace, tmp_path, monkeypatch, command, sets):
    import ctypes
    from types import SimpleNamespace

    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: libc)
    cfg_path, _ = _run_config(workspace, tmp_path, *TRAINED)
    assert main([command, "--config", str(cfg_path)]) == 0
    assert calls == ([(-1, 64 << 20), (-3, 1 << 20)] if sets else [])


def test_lexicon_backend_makes_no_network_calls(workspace, tmp_path, monkeypatch):
    import urllib.request

    calls = []

    def boom(*args, **kwargs):
        calls.append(args)
        raise AssertionError("network call attempted with lexicon backend")

    monkeypatch.setattr(urllib.request, "urlopen", boom)
    cfg_path, _ = _run_config(workspace, tmp_path)
    assert main(["quantify", "--config", str(cfg_path), "--backend", "lexicon"]) == 0
    assert calls == []


def _fresh_python(code: str) -> str:
    """Stripped stdout of ``code`` run by a new interpreter that imports this ``side`` package."""
    import subprocess
    import sys
    from pathlib import Path

    import side

    env = dict(os.environ, PYTHONPATH=str(Path(side.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_cli_leaves_requests_unloaded():
    assert _fresh_python("import sys, side.cli; print('requests' in sys.modules)") == "False"


def test_import_core_leaves_network_stack_unloaded():
    stack = "{'side.dsiq', 'side.model', 'side.numerics', 'side.train_eval'}"
    assert _fresh_python(f"import sys, side.core; print(sorted({stack} & set(sys.modules)))") == "[]"


def test_import_cli_leaves_training_code_and_synth_unloaded():
    # quantify loads none of them; synth, train, evaluate and ablate import what they use when they run.
    unused = "{'side.model', 'side.numerics', 'side.train_eval', 'side.synth'}"
    assert _fresh_python(f"import sys, side.cli; print(sorted({unused} & set(sys.modules)))") == "[]"


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


@pytest.mark.parametrize("level, shown", [("INFO", True), (None, False)])
def test_log_level_shows_ingest_info_on_stderr(workspace, tmp_path, capsys, level, shown):
    posts = tmp_path / "posts.jsonl"
    original = (workspace["data"] / "posts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    posts.write_text("".join(original[:3] + ["{not json\n"] + original[3:]), encoding="utf-8")
    raw = workspace["raw"]
    paths = dict(raw["paths"], social=str(posts), out_dir=str(tmp_path / "run"))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(raw, paths=paths)), encoding="utf-8")
    argv = ["quantify", "--config", str(cfg_path)] + (["--log-level", level] if level else [])
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert (f"INFO side.ingest: {posts}: skipped 1 malformed lines" in err) is shown


@pytest.mark.parametrize(
    "flag, value, field",
    [("--docs-per-week", "nan", "docs_per_week"), ("--docs-per-week", "1e19", "docs_per_week"),
     ("--weeks", "416533", "weeks"), ("--seed", "-1", "--seed")],
)
def test_synth_rejects_bad_spec_naming_the_field(tmp_path, capsys, flag, value, field):
    assert main(["synth", "--out", str(tmp_path / "d"), "--weeks", "5", flag, value]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
