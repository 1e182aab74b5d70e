"""End-to-end behavior of the durflow command line."""

import csv
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from durflow import cli
from durflow import numerics as nm
from durflow.cli import main
from durflow.data import BLANK_ID, CorpusSpec, _default_laws, generate, save
from durflow.duration import DurationModel, save_model
from durflow.evaluation import corpus_frames
from durflow.nn import load_params, save_params
from durflow.training import train_model
from test_duration import BAD_PARAMETER_ARRAYS, rewrite_param


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_corpus_file(tmp_path):
    spec = CorpusSpec(style="read", seed=11, num_sentences=60, max_phones=6)
    path = tmp_path / "small.durcorpus"
    save(generate(spec, "train"), path)
    return str(path)


def tiny_kwargs():
    return dict(encoder_dim=16, hidden=24, noise_dim=8, time_dim=8)


@pytest.fixture()
def tiny_checkpoints(tmp_path):
    """Small trained checkpoints plus a matching corpus file."""
    spec = CorpusSpec(style="spont", seed=4, num_sentences=40, max_phones=6,
                      vocab_size=24)
    corpus = generate(spec, "train")
    corpus_path = tmp_path / "eval.durcorpus"
    save(corpus, corpus_path)
    paths = {}
    for kind in ("det", "fm"):
        model = DurationModel(kind, spec.vocab_size, seed=0, **tiny_kwargs())
        train_model(model, corpus, 15, batch_size=8)
        paths[kind] = str(tmp_path / f"{kind}.npz")
        save_model(model, paths[kind])
    return paths, str(corpus_path)


# ---------------------------------------------------------------- gen


def test_gen_is_byte_identical_and_reports_counts(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    code, out, _ = run(["gen", "--style", "spont", "--seed", "7",
                        "--out", str(a)], capsys)
    assert code == 0
    code, _, _ = run(["gen", "--style", "spont", "--seed", "7",
                      "--out", str(b)], capsys)
    assert code == 0
    for name in ("train.durcorpus", "val.durcorpus"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # spontaneous style must actually contain pauses and fillers
    for line in out.strip().splitlines():
        parts = line.split()
        assert int(parts[parts.index("pauses,") - 1]) > 0
        assert int(parts[parts.index("fillers") - 1]) > 0
    assert (a / "config.txt").exists()


def test_gen_different_seed_differs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["gen", "--seed", "1", "--out", str(a)], capsys)[0] == 0
    assert run(["gen", "--seed", "2", "--out", str(b)], capsys)[0] == 0
    assert (a / "train.durcorpus").read_bytes() != (b / "train.durcorpus").read_bytes()


def test_invalid_style_is_usage_error(tmp_path, capsys):
    code, _, err = run(["gen", "--style", "operatic", "--out", str(tmp_path)],
                       capsys)
    assert code == 1
    assert "usage" in err or "error" in err


def test_unknown_command_is_usage_error(capsys):
    assert run(["polish"], capsys)[0] == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["train"], capsys)[0] == 1


# ---------------------------------------------------------------- train


def read_losses(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss"]
    return np.array([float(r[1]) for r in rows[1:]])


def test_train_writes_checkpoint_and_decreasing_loss(tmp_path, capsys,
                                                     small_corpus_file):
    out = tmp_path / "run"
    code, _, _ = run(["train", "--corpus", small_corpus_file, "--kind", "det",
                      "--steps", "120", "--batch", "8", "--out", str(out)],
                     capsys)
    assert code == 0
    assert (out / "model-det.npz").exists()
    losses = read_losses(out / "loss-det.csv")
    assert len(losses) == 120
    assert losses[-20:].mean() < losses[:20].mean()


def test_train_same_seed_reproduces_loss_file(tmp_path, capsys,
                                              small_corpus_file):
    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"]
    for out, seed in zip(outs, ("5", "5", "6")):
        code, _, _ = run(["train", "--corpus", small_corpus_file,
                          "--kind", "fm", "--steps", "25", "--batch", "8",
                          "--seed", seed, "--out", str(out)], capsys)
        assert code == 0
    a, b, c = (out.joinpath("loss-fm.csv").read_bytes() for out in outs)
    assert a == b
    assert a != c


@pytest.mark.parametrize("command", ["train", "sample"])
def test_corpus_too_large_for_memory_is_runtime_error(tmp_path, capsys,
                                                      small_corpus_file, command):
    # a header vocabulary of 10^16 makes the reader's per-class table
    # fail to allocate
    with open(small_corpus_file, encoding="utf-8") as fh:
        text = fh.read()
    huge = tmp_path / "huge.durcorpus"
    huge.write_text(text.replace(" vocab=24 ", " vocab=10000000000000000 ", 1))
    checkpoint = str(tmp_path / "fm.npz")
    save_model(DurationModel("fm", 24, **tiny_kwargs()), checkpoint)
    args = {"train": [], "sample": ["--checkpoint", checkpoint]}[command]
    code, _, err = run([command, *args, "--corpus", str(huge),
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_train_missing_corpus_is_runtime_error(tmp_path, capsys):
    code, _, err = run(["train", "--corpus", str(tmp_path / "nope.durcorpus"),
                        "--out", str(tmp_path / "run")], capsys)
    assert code == 2
    assert "error:" in err and "nope.durcorpus" in err


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_bad_reps_is_usage_error_before_any_file_is_read(tmp_path, capsys, reps):
    # neither input exists: the bad setting is reported, not the missing file
    out = tmp_path / "run"
    code, _, err = run(["sample", "--checkpoint", str(tmp_path / "nope.npz"),
                        "--corpus", str(tmp_path / "nope.durcorpus"), "--reps", reps,
                        "--out", str(out)], capsys)
    assert code == 1
    assert err.splitlines() == ["error: reps must be >= 1"]
    assert not out.exists()


@pytest.fixture()
def empty_corpus_file(tmp_path):
    """A corpus file with its header and no sentences."""
    path = tmp_path / "empty.durcorpus"
    save(generate(CorpusSpec(style="spont", seed=3, num_sentences=0), "train"), path)
    return str(path)


def test_train_empty_corpus_is_runtime_error(tmp_path, capsys, empty_corpus_file):
    code, _, err = run(["train", "--corpus", empty_corpus_file, "--steps", "5",
                        "--out", str(tmp_path / "run")], capsys)
    assert code == 2
    assert err == "error: the spont train corpus of seed 3 has no sentences to train on\n"
    assert not (tmp_path / "run" / "model-fm.npz").exists()


# ---------------------------------------------------------------- config file


def test_config_file_overrides_defaults_and_flags_win(tmp_path, capsys,
                                                      small_corpus_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=18\nbatch=4  # small batches\n")
    out1 = tmp_path / "from-file"
    code, _, _ = run(["train", "--corpus", small_corpus_file, "--config",
                      str(cfg), "--out", str(out1)], capsys)
    assert code == 0
    assert len(read_losses(out1 / "loss-det.csv")) == 18

    out2 = tmp_path / "flag-wins"
    code, _, _ = run(["train", "--corpus", small_corpus_file, "--config",
                      str(cfg), "--steps", "9", "--out", str(out2)], capsys)
    assert code == 0
    assert len(read_losses(out2 / "loss-det.csv")) == 9
    echoed = (out2 / "config.txt").read_text()
    assert "steps=9" in echoed and "batch=4" in echoed


def test_config_file_hash_inside_a_value_is_kept(tmp_path, capsys):
    # a # starts a comment only at the start of a line or after
    # whitespace, so a path that holds one is read whole
    out = tmp_path / "h#x"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"# corpus for seed 1\nseed=1\nout={out}  # note\n")
    code, _, _ = run(["gen", "--config", str(cfg)], capsys)
    assert code == 0
    assert (out / "train.durcorpus").is_file()
    assert not (tmp_path / "h").exists()


def test_config_echo_records_thread_settings(tmp_path, capsys, monkeypatch):
    # the variables as set, and the count OpenBLAS really runs on, which
    # can differ once numpy is loaded; DURFLOW_THREADS changes nothing
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("DURFLOW_THREADS", "2")
    for threads, echoed in ((3, "3"), (None, "unknown")):
        monkeypatch.setattr(nm, "blas_threads", lambda: threads)
        out = tmp_path / echoed
        code, _, _ = run(["gen", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert lines[-3:] == ["OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=unset",
                              f"blas_threads={echoed}"]
        assert not any(line.startswith("DURFLOW_THREADS") for line in lines)


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys,
                                                small_corpus_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stepz=18\n")
    code, _, err = run(["train", "--corpus", small_corpus_file, "--config",
                        str(cfg), "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert "stepz" in err


def test_config_file_bad_value_is_usage_error(tmp_path, capsys,
                                              small_corpus_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps=plenty\n")
    code, _, err = run(["train", "--corpus", small_corpus_file, "--config",
                        str(cfg), "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert "line 1" in err


def setting(tmp_path, key, value, source):
    """The arguments that set key to value by a flag or by a config file."""
    if source == "flag":
        return [f"--{key.replace('_', '-')}", value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    return ["--config", str(cfg)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lr_is_usage_error(tmp_path, capsys, small_corpus_file, value, source):
    out = tmp_path / "run"
    code, _, err = run(["train", "--corpus", small_corpus_file, "--out", str(out)]
                       + setting(tmp_path, "lr", value, source), capsys)
    assert code == 1
    assert err.splitlines() == [f"error: lr must be finite and > 0, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value, message", [
    ("steps", "0", "steps must be an integer >= 1, got 0"),
    ("batch", "-1", "batch_size must be an integer >= 1, got -1"),
    ("lr", "0", "lr must be finite and > 0, got 0.0"),
])
def test_bad_training_setting_is_usage_error(tmp_path, capsys, small_corpus_file,
                                             key, value, message, source):
    # the CLI runs train_model's own option check before anything is written
    out = tmp_path / "run"
    code, _, err = run(["train", "--corpus", small_corpus_file, "--out", str(out)]
                       + setting(tmp_path, key, value, source), capsys)
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind", ["det", "fm"])
def test_non_finite_temperature_is_usage_error(tmp_path, capsys, tiny_checkpoints,
                                               kind, value, source):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "s"
    code, _, err = run(["sample", "--checkpoint", paths[kind], "--corpus", corpus_path,
                        "--out", str(out)] + setting(tmp_path, "temperature", value, source),
                       capsys)
    assert code == 1
    assert err.splitlines() == [f"error: temperature must be finite and >= 0, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["train", "sample"])
def test_negative_seed_is_usage_error(tmp_path, capsys, tiny_checkpoints, command, source):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "run"
    inputs = {"train": ["--corpus", corpus_path],
              "sample": ["--checkpoint", paths["fm"], "--corpus", corpus_path]}[command]
    code, _, err = run([command, "--out", str(out)] + inputs
                       + setting(tmp_path, "seed", "-1", source), capsys)
    assert code == 1
    assert err.splitlines() == ["error: seed must be an integer >= 0, got -1"]
    assert not out.exists()


def inputs(command, paths, corpus_path):
    """The input flags of one command, on the tiny checkpoints' corpus."""
    return {"gen": [],
            "train": ["--corpus", corpus_path],
            "sample": ["--checkpoint", paths["fm"], "--corpus", corpus_path],
            "eval": ["--det", paths["det"], "--fm", paths["fm"],
                     "--corpus", corpus_path]}[command]


@pytest.mark.parametrize("command", ["gen", "train", "sample", "eval"])
def test_config_echo_holds_only_the_command_settings(tmp_path, capsys, monkeypatch,
                                                     tiny_checkpoints, command):
    paths, corpus_path = tiny_checkpoints
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(nm, "blas_threads", lambda: 1)
    out = str(tmp_path / "run")
    flags = {"gen": ["--style", "spont"],
             "train": ["--kind", "fm", "--steps", "2", "--batch", "4", "--lr", "0.01"],
             "sample": ["--nfe", "2", "--temperature", "0.5", "--min-duration", "1",
                        "--reps", "1"],
             "eval": ["--nfe", "2", "--temperature", "0.5", "--min-duration", "1"]}
    code, _, err = run([command, "--seed", "4", "--out", out] + flags[command]
                       + inputs(command, paths, corpus_path), capsys)
    assert code == 0, err
    expected = {
        "gen": ["style=spont", "seed=4", f"out={out}"],
        "train": ["kind=fm", "steps=2", "batch=4", "lr=0.01", "seed=4", f"out={out}",
                  f"corpus={corpus_path}"],
        "sample": ["kind=fm", "nfe=2", "temperature=0.5", "min_duration=1", "seed=4",
                   f"out={out}", f"checkpoint={paths['fm']}", f"corpus={corpus_path}",
                   "reps=1"],
        "eval": ["nfe=2", "temperature=0.5", "min_duration=1", "seed=4", f"out={out}",
                 f"corpus={corpus_path}", f"det={paths['det']}", f"fm={paths['fm']}"],
    }[command]
    lines = (tmp_path / "run" / "config.txt").read_text().splitlines()
    assert lines == ([f"command={command}"] + expected
                     + ["OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=unset", "blas_threads=1"])


def test_config_echo_records_settings_as_used(tmp_path, capsys, tiny_checkpoints):
    # sample records the kind of the checkpoint it loaded, and train on a
    # spont corpus records no style it never read
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "s"
    code, _, _ = run(["sample", "--checkpoint", paths["fm"], "--corpus", corpus_path,
                      "--nfe", "2", "--reps", "1", "--out", str(out)], capsys)
    assert code == 0
    assert "kind=fm" in (out / "config.txt").read_text().splitlines()
    out = tmp_path / "t"
    code, _, _ = run(["train", "--corpus", corpus_path, "--steps", "2",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "config.txt").read_text().splitlines()
    assert not any(line.startswith("style=") for line in lines)


@pytest.mark.parametrize("command, key, value", [
    ("sample", "steps", "7"), ("train", "nfe", "3"), ("gen", "lr", "0.01"),
    ("eval", "kind", "det"),
])
def test_config_key_of_another_command_is_usage_error(tmp_path, capsys,
                                                      tiny_checkpoints, command, key,
                                                      value):
    paths, corpus_path = tiny_checkpoints
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{key}={value}\n")
    out = tmp_path / "run"
    code, _, err = run([command, "--config", str(cfg), "--out", str(out)]
                       + inputs(command, paths, corpus_path), capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cfg) in lines[0] and "line 2" in lines[0]
    assert repr(key) in lines[0] and command in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value, message", [
    pytest.param("gen", "style", "operatic",
                 "style must be one of read/spont, got 'operatic'", id="gen-style"),
    pytest.param("train", "kind", "gbm", "kind must be one of det/fm, got 'gbm'",
                 id="train-kind"),
    pytest.param("sample", "kind", "gbm", "kind must be one of det/fm, got 'gbm'",
                 id="sample-kind"),
    pytest.param("sample", "min_duration", "2", "min_duration must be 0 or 1, got 2",
                 id="sample-min_duration"),
    pytest.param("eval", "min_duration", "2", "min_duration must be 0 or 1, got 2",
                 id="eval-min_duration"),
])
def test_bad_choice_is_one_usage_error_from_either_source(tmp_path, capsys,
                                                          tiny_checkpoints, command,
                                                          key, value, message, source):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "run"
    code, _, err = run([command, "--out", str(out)] + inputs(command, paths, corpus_path)
                       + setting(tmp_path, key, value, source), capsys)
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_config_file_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=\xff\xfe1\n")
    out = tmp_path / "run"
    code, _, err = run(["gen", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(cfg) in lines[0]
    assert not out.exists()


# ---------------------------------------------------------------- sample


def test_sample_det_realisations_identical(tmp_path, capsys, tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "s"
    code, _, _ = run(["sample", "--checkpoint", paths["det"], "--corpus",
                      corpus_path, "--reps", "3", "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "durations.txt").read_text().splitlines()
    assert lines[0].startswith("#durations model=det ")
    by_sentence = {}
    for line in lines[1:]:
        sent_id, rep, *durs = line.split()
        by_sentence.setdefault(sent_id, []).append(durs)
    for reps in by_sentence.values():
        assert len(reps) == 3
        assert reps[0] == reps[1] == reps[2]


def test_sample_fm_temperature_zero_realisations_identical(tmp_path, capsys,
                                                           tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "s"
    code, _, _ = run(["sample", "--checkpoint", paths["fm"], "--corpus",
                      corpus_path, "--temperature", "0", "--nfe", "4",
                      "--reps", "3", "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "durations.txt").read_text().splitlines()[1:]
    by_sentence = {}
    for line in lines:
        sent_id, rep, *durs = line.split()
        by_sentence.setdefault(sent_id, []).append(durs)
    for reps in by_sentence.values():
        assert reps[0] == reps[1] == reps[2]


def test_sample_fm_seeded_run_reproduces(tmp_path, capsys, tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code, _, _ = run(["sample", "--checkpoint", paths["fm"], "--corpus",
                          corpus_path, "--nfe", "4", "--seed", "9",
                          "--out", str(out)], capsys)
        assert code == 0
        outs.append((out / "durations.txt").read_bytes())
    assert outs[0] == outs[1]


def test_sample_bits_do_not_depend_on_blas_threads(tmp_path):
    # sampling pins OpenBLAS to one thread and spreads its calls over one
    # worker per thread the process was given, so durations.txt is the
    # same at either count. Default widths, so that OpenBLAS would split
    # these products over its threads, and a field scaled up four times,
    # so that log-durations reach about 20 and a last-bit difference
    # between thread counts moves integer frames: sampled on the threads
    # OpenBLAS was given, 1,087 of these 2,604 frames differed
    spec = CorpusSpec(style="spont", seed=4, num_sentences=40)
    corpus = generate(spec, "train")
    corpus_path = tmp_path / "c.durcorpus"
    save(corpus, corpus_path)
    model = DurationModel("fm", spec.vocab_size, seed=0)
    train_model(model, corpus, 2, batch_size=16)
    model.predictor.proj.weight.data *= 4.0
    model.predictor.proj.bias.data *= 4.0
    save_model(model, tmp_path / "fm.npz")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "durflow.cli", "sample", "--checkpoint",
                        str(tmp_path / "fm.npz"), "--corpus", str(corpus_path),
                        "--nfe", "4", "--reps", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        # OpenBLAS caps the variable at the cores it finds
        echoed = (out / "config.txt").read_text().splitlines()[-1].split("=")[1]
        assert echoed == "unknown" or 1 <= int(echoed) <= int(threads)
        outs.append((out / "durations.txt").read_bytes())
    assert outs[0] == outs[1]


def test_sample_fm_default_five_realisations(tmp_path, capsys, tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "s"
    code, _, _ = run(["sample", "--checkpoint", paths["fm"], "--corpus",
                      corpus_path, "--nfe", "2", "--out", str(out)], capsys)
    assert code == 0
    lines = (out / "durations.txt").read_text().splitlines()
    assert "reps=5" in lines[0]
    first_id = lines[1].split()[0]
    assert sum(1 for ln in lines[1:] if ln.split()[0] == first_id) == 5


def test_sample_kind_mismatch_is_runtime_error(tmp_path, capsys,
                                               tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    code, _, err = run(["sample", "--checkpoint", paths["fm"], "--corpus",
                        corpus_path, "--kind", "det",
                        "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert "'fm'" in err


def test_sample_truncated_checkpoint_is_runtime_error(tmp_path, capsys,
                                                      tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    broken = tmp_path / "model-fm.npz"
    data = open(paths["fm"], "rb").read()
    broken.write_bytes(data[:len(data) // 2])
    code, _, err = run(["sample", "--checkpoint", str(broken), "--corpus",
                        corpus_path, "--kind", "fm",
                        "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "model-fm.npz" in err


def test_sample_checkpoint_without_kind_is_runtime_error(tmp_path, capsys,
                                                         tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    arrays, meta = load_params(paths["fm"])
    del meta["kind"]
    broken = tmp_path / "no-kind.npz"
    save_params(broken, arrays, meta)
    code, _, err = run(["sample", "--checkpoint", str(broken), "--corpus",
                        corpus_path, "--kind", "fm",
                        "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no-kind.npz" in err and "'kind'" in err


def test_sample_plain_npy_checkpoint_is_runtime_error(tmp_path, capsys,
                                                     tiny_checkpoints):
    _, corpus_path = tiny_checkpoints
    broken = tmp_path / "model-fm.npz"
    with open(broken, "wb") as fh:
        np.save(fh, np.zeros((3, 4)))
    code, _, err = run(["sample", "--checkpoint", str(broken), "--corpus",
                        corpus_path, "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "model-fm.npz" in err


@pytest.mark.parametrize("key, value", [
    ("vocab_size", "24"),
    ("dims", {**tiny_kwargs(), "depth": 2}),
])
def test_sample_checkpoint_with_mistyped_metadata_is_runtime_error(
        tmp_path, capsys, tiny_checkpoints, key, value):
    paths, corpus_path = tiny_checkpoints
    arrays, meta = load_params(paths["fm"])
    meta[key] = value
    broken = tmp_path / "typed.npz"
    save_params(broken, arrays, meta)
    code, _, err = run(["sample", "--checkpoint", str(broken), "--corpus",
                        corpus_path, "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "typed.npz" in err and f"'{key}'" in err


@pytest.mark.parametrize("bad", ["nan", "complex", "string"])
def test_sample_bad_parameter_array_is_runtime_error(tmp_path, capsys,
                                                     tiny_checkpoints, bad):
    paths, corpus_path = tiny_checkpoints
    name = "predictor.conv1.weight"
    array = load_params(paths["fm"])[0][name]
    broken = rewrite_param(paths["fm"], tmp_path / "arrays.npz", name,
                           BAD_PARAMETER_ARRAYS[bad](array))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["sample", "--checkpoint", str(broken), "--corpus",
                            corpus_path, "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "arrays.npz" in err and f"'{name}'" in err
    assert not (tmp_path / "s" / "durations.txt").exists()


def test_sample_sentence_without_tokens_is_runtime_error(tmp_path, capsys,
                                                        tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    with open(corpus_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    broken = tmp_path / "empty-line.durcorpus"
    broken.write_text("\n".join(lines[:3] + ["999\t\t"] + lines[3:]) + "\n",
                      encoding="utf-8")
    code, _, err = run(["sample", "--checkpoint", paths["fm"], "--corpus",
                        str(broken), "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "empty-line.durcorpus: line 4: sentence has no tokens" in err


def test_sample_failing_midway_keeps_old_durations(tmp_path, capsys,
                                                   tiny_checkpoints, monkeypatch):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "s"
    argv = ["sample", "--checkpoint", paths["fm"], "--corpus", corpus_path,
            "--reps", "2", "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    old = (out / "durations.txt").read_bytes()

    def broken_frames(*args):
        # the last sentence's frames cannot be written, so the writer
        # fails after the header and every other row
        frames = corpus_frames(*args)
        last = list(frames)[-1]
        frames[last] = [np.full(f.shape, np.nan) for f in frames[last]]
        return frames

    monkeypatch.setattr(cli, "corpus_frames", broken_frames)
    code, _, err = run(argv + ["--seed", "1"], capsys)
    assert code == 2 and err.startswith("error:")
    assert (out / "durations.txt").read_bytes() == old
    assert sorted(os.listdir(out)) == ["config.txt", "durations.txt"]


@pytest.fixture()
def vocab32_corpus_file(tmp_path):
    """A corpus of vocabulary 32 whose every phone is token id 30."""
    laws = {BLANK_ID: _default_laws("read")[BLANK_ID],
            30: {"kind": "lognormal", "mu": 1.5, "sigma": 0.1}}
    spec = CorpusSpec(style="read", seed=2, num_sentences=3, min_phones=2, max_phones=4,
                      vocab_size=32, laws=laws)
    path = tmp_path / "vocab32.durcorpus"
    save(generate(spec, "val"), path)
    return str(path)


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_sample_vocabulary_mismatch_names_both_files(tmp_path, capsys, tiny_checkpoints,
                                                     vocab32_corpus_file, kind):
    paths, _ = tiny_checkpoints
    out = tmp_path / "s"
    code, _, err = run(["sample", "--checkpoint", paths[kind], "--corpus",
                        vocab32_corpus_file, "--out", str(out)], capsys)
    assert code == 2
    assert err.splitlines() == [
        f"error: {vocab32_corpus_file}: token id 30 outside the vocabulary of size 24 "
        f"of checkpoint {paths[kind]}"]
    assert not out.exists()


def test_eval_vocabulary_mismatch_names_both_files(tmp_path, capsys, tiny_checkpoints,
                                                   vocab32_corpus_file):
    paths, corpus_path = tiny_checkpoints
    out = tmp_path / "e"
    code, _, err = run(["eval", "--det", paths["det"], "--fm", paths["fm"],
                        "--corpus", corpus_path, "--corpus", vocab32_corpus_file,
                        "--out", str(out)], capsys)
    assert code == 2
    assert err.splitlines() == [
        f"error: {vocab32_corpus_file}: token id 30 outside the vocabulary of size 24 "
        f"of checkpoint {paths['det']}"]
    assert not out.exists()


# ---------------------------------------------------------------- config.txt last


@pytest.mark.parametrize("command", ["gen", "train", "sample", "eval"])
def test_failed_run_leaves_no_config_txt(tmp_path, capsys, tiny_checkpoints,
                                         empty_corpus_file, vocab32_corpus_file, command):
    # config.txt describes a run that produced its outputs, so a command
    # writes it last: gen cannot replace a directory standing where its
    # train corpus goes, train and eval have no sentences, sample's
    # corpus holds a token id the checkpoint does not know
    paths, _ = tiny_checkpoints
    out = tmp_path / "run"
    (out / "train.durcorpus").mkdir(parents=True)
    argv = {"gen": [],
            "train": ["--corpus", empty_corpus_file, "--steps", "2"],
            "sample": ["--checkpoint", paths["fm"], "--corpus", vocab32_corpus_file],
            "eval": ["--det", paths["det"], "--fm", paths["fm"],
                     "--corpus", empty_corpus_file]}[command]
    code, _, err = run([command, "--out", str(out)] + argv, capsys)
    assert code == 2 and len(err.splitlines()) == 1
    assert not (out / "config.txt").exists()


# ---------------------------------------------------------------- eval


def test_eval_writes_reports_and_reruns_identically(tmp_path, capsys,
                                                    tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        code, _, _ = run(["eval", "--det", paths["det"], "--fm", paths["fm"],
                          "--corpus", corpus_path, "--out", str(out)], capsys)
        assert code == 0
        for csv_name in ("residual.csv", "dist.csv", "bench.csv"):
            assert (out / csv_name).exists()
        outs.append(out)
    for csv_name in ("residual.csv", "dist.csv"):
        assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes()

    with open(outs[0] / "residual.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    det_values = {r[3] for r in rows if r[0] == "det" and r[1] != "all"}
    assert len(det_values) == 1  # constant across nfe
    fm_rows = [r for r in rows if r[0] == "fm" and r[1] == "spont"]
    assert len(fm_rows) == 7

    with open(outs[0] / "dist.csv", newline="") as fh:
        dist_rows = list(csv.reader(fh))[1:]
    assert all(r[0] in ("det", "fm") for r in dist_rows)

    with open(outs[0] / "bench.csv", newline="") as fh:
        bench_rows = list(csv.reader(fh))[1:]
    assert [r[:2] for r in bench_rows] == [
        ["det", "10"], ["det", "20"], ["fm", "10"], ["fm", "20"]]
    for r in bench_rows:
        assert float(r[2]) > 0
        # both columns are rounded to three decimals in the file
        assert math.isclose(float(r[3]), float(r[2]) / int(r[1]), abs_tol=2e-3)


def test_eval_two_corpora_of_one_style_rejected(tmp_path, capsys, tiny_checkpoints):
    # results are keyed by style: a second spont corpus would silently
    # replace the first one's rows
    paths, corpus_path = tiny_checkpoints
    other = str(tmp_path / "other.durcorpus")
    save(generate(CorpusSpec(style="spont", seed=5, num_sentences=40, max_phones=6,
                             vocab_size=24), "val"), other)
    out = tmp_path / "e"
    code, _, err = run(["eval", "--det", paths["det"], "--fm", paths["fm"],
                        "--corpus", corpus_path, "--corpus", other, "--out", str(out)],
                       capsys)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "'spont'" in lines[0] and corpus_path in lines[0] and other in lines[0]
    assert not out.exists()


def test_eval_missing_checkpoint_named(tmp_path, capsys, tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    missing = str(tmp_path / "ghost.npz")
    code, _, err = run(["eval", "--det", missing, "--fm", paths["fm"],
                        "--corpus", corpus_path, "--out", str(tmp_path / "e")],
                       capsys)
    assert code == 2
    assert "ghost.npz" in err


def test_eval_empty_corpus_is_runtime_error(tmp_path, capsys, tiny_checkpoints,
                                            empty_corpus_file):
    paths, _ = tiny_checkpoints
    code, _, err = run(["eval", "--det", paths["det"], "--fm", paths["fm"],
                        "--corpus", empty_corpus_file, "--out", str(tmp_path / "e")],
                       capsys)
    assert code == 2
    assert err == "error: the spont train corpus of seed 3 has no sentences to evaluate\n"


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_sample_empty_corpus_writes_header_only(tmp_path, capsys, tiny_checkpoints,
                                                empty_corpus_file, kind):
    paths, _ = tiny_checkpoints
    code, _, err = run(["sample", "--checkpoint", paths[kind], "--corpus", empty_corpus_file,
                        "--out", str(tmp_path / "s")], capsys)
    assert code == 0 and err == ""
    lines = (tmp_path / "s" / "durations.txt").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"#durations model={kind} ")
    assert lines[0].endswith(" sentences=0")


def test_eval_swapped_checkpoints_rejected(tmp_path, capsys, tiny_checkpoints):
    paths, corpus_path = tiny_checkpoints
    code, _, err = run(["eval", "--det", paths["fm"], "--fm", paths["det"],
                        "--corpus", corpus_path, "--out", str(tmp_path / "e")],
                       capsys)
    assert code == 2
    assert "error:" in err
