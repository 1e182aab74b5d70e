"""Training-loop behavior: convergence, logging, determinism, failure modes."""

import re
import tracemalloc

import numpy as np
import pytest

from durflow import nn
from durflow import numerics as nm
from durflow.data import CorpusSpec, generate, zero_allowed
from durflow.duration import DurationModel, load_model, log_targets, loss, save_model
from durflow.training import (BATCH_STREAM, NOISE_STREAM, TRAINING_DTYPE, _batch_plan,
                               _prepare, train_model)


def small_corpus(style="read", seed=3, n=40):
    spec = CorpusSpec(style=style, seed=seed, num_sentences=n, max_phones=6)
    return generate(spec, "train")


def small_model(kind):
    return DurationModel(kind, 24, seed=0, encoder_dim=16, hidden=24,
                         noise_dim=8, time_dim=8)


def test_batch_plan_covers_each_sentence_once_and_is_rectangular():
    corpus = small_corpus()
    buckets = _prepare(corpus)
    rng = np.random.default_rng(0)
    batches = _batch_plan(buckets, 4, rng)
    total = 0
    for ids, targets in batches:
        assert ids.shape == targets.shape
        assert ids.ndim == 2 and ids.shape[0] <= 4
        total += ids.shape[0]
    assert total == len(corpus)


def test_targets_use_log_domain_rules():
    corpus = small_corpus(style="spont")
    buckets = _prepare(corpus)
    s = corpus.sentences[0]
    ids, targets = next(
        (i, t) for group in buckets for i, t in group
        if np.array_equal(i, s.seq.ids)
    )
    for tok, dur, tgt in zip(ids, s.durations, targets):
        if tok in (0, 1):
            assert tgt == pytest.approx(np.log(dur + 0.01))
        else:
            assert tgt == pytest.approx(np.log(max(dur, 1)))


@pytest.mark.parametrize("fixture", ["read_train", "spont_train"])
def test_prepare_matches_per_sentence_targets(request, fixture):
    corpus = request.getfixturevalue(fixture)
    groups = corpus.length_groups()
    prepared = _prepare(corpus)
    assert [len(pairs) for pairs in prepared] == [len(group) for group in groups]
    for group, pairs in zip(groups, prepared):
        for s, (ids, targets) in zip(group, pairs):
            want = log_targets(s.durations, zero_allowed(s.seq.ids))
            assert np.array_equal(ids, s.seq.ids)
            assert targets.dtype == want.dtype and targets.tobytes() == want.tobytes()


def test_zero_duration_on_a_phone_rejected_before_any_step():
    corpus = small_corpus()
    corpus.sentences[-1].durations[0] = 0  # position 0 holds a phone
    model = small_model("det")
    before = {name: p.data.copy() for name, p in model.params().items()}
    with pytest.raises(ValueError, match="^zero duration at a position that does not allow zero$"):
        train_model(model, corpus, 3)
    for name, p in model.params().items():
        assert np.array_equal(p.data, before[name])
    assert model.trained_steps == 0


def test_empty_corpus_rejected_before_any_step(tmp_path):
    # with no sentences the batch plan is empty, so no step could ever run
    empty = generate(CorpusSpec(num_sentences=0), "train")
    model = small_model("det")
    before = {name: p.data.copy() for name, p in model.params().items()}
    loss_path = tmp_path / "loss.csv"
    with pytest.raises(ValueError, match="read train corpus of seed 0 has no sentences"):
        train_model(model, empty, steps=5, loss_path=loss_path)
    assert model.trained_steps == 0 and not loss_path.exists()
    for name, p in model.params().items():
        assert np.array_equal(p.data, before[name]), name


def test_det_loss_decreases():
    model = small_model("det")
    losses = train_model(model, small_corpus(), steps=80, batch_size=8, seed=0)
    assert losses.shape == (80,)
    assert np.all(np.isfinite(losses))
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_fm_loss_decreases():
    model = small_model("fm")
    losses = train_model(model, small_corpus(), steps=200, batch_size=8, seed=0)
    assert np.mean(losses[-30:]) < np.mean(losses[:30])


def test_loss_csv_round_trips(tmp_path):
    path = tmp_path / "loss.csv"
    model = small_model("det")
    losses = train_model(model, small_corpus(), steps=12, batch_size=8,
                         seed=0, loss_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 13
    for step, line in enumerate(lines[1:]):
        col0, col1 = line.split(",")
        assert int(col0) == step
        assert float(col1) == losses[step]
    text = "step,loss\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(losses))
    assert path.read_bytes() == text.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv"]


@pytest.mark.parametrize("previous", [None, b"step,loss\n0,1.5\n"],
                         ids=["no-previous-log", "previous-log"])
def test_aborted_run_leaves_no_partial_loss_log(tmp_path, previous):
    path = tmp_path / "loss-det.csv"
    if previous is not None:
        path.write_bytes(previous)
    model = small_model("det")
    model.params()["encoder.embed.table"].data[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        train_model(model, small_corpus(), steps=5, batch_size=8, seed=0,
                    loss_path=path)
    if previous is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert [p.name for p in tmp_path.iterdir()] == ["loss-det.csv"]
        assert path.read_bytes() == previous


def test_same_seed_identical_trajectory():
    a = train_model(small_model("fm"), small_corpus(), 40, batch_size=8, seed=1)
    b = train_model(small_model("fm"), small_corpus(), 40, batch_size=8, seed=1)
    assert np.array_equal(a, b)


def test_different_seed_differs():
    a = train_model(small_model("fm"), small_corpus(), 40, batch_size=8, seed=1)
    b = train_model(small_model("fm"), small_corpus(), 40, batch_size=8, seed=2)
    assert not np.array_equal(a, b)


def test_det_training_is_noise_stream_free():
    # det and fm share the loop; det must not consume the noise stream,
    # so its trajectory is a pure function of (init, corpus, seed)
    a = train_model(small_model("det"), small_corpus(), 30, batch_size=8, seed=1)
    b = train_model(small_model("det"), small_corpus(), 30, batch_size=8, seed=1)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("options, message", [
    # with no batches in a plan, the step loop never ended
    pytest.param({"batch_size": -1}, "batch_size must be an integer >= 1, got -1",
                 id="batch_size=-1"),
    pytest.param({"batch_size": 0}, "batch_size must be an integer >= 1, got 0",
                 id="batch_size=0"),
    pytest.param({"batch_size": 2.5}, "batch_size must be an integer >= 1, got 2.5",
                 id="batch_size=2.5"),
    pytest.param({"steps": -1}, "steps must be an integer >= 1, got -1", id="steps=-1"),
    pytest.param({"steps": 0}, "steps must be an integer >= 1, got 0", id="steps=0"),
    pytest.param({"steps": True}, "steps must be an integer >= 1, got True",
                 id="steps=True"),
    # one NaN update used to run before the loss check stopped training
    pytest.param({"lr": float("nan")}, "lr must be finite and > 0, got nan", id="lr=nan"),
    pytest.param({"lr": float("inf")}, "lr must be finite and > 0, got inf", id="lr=inf"),
    pytest.param({"lr": 0.0}, "lr must be finite and > 0, got 0.0", id="lr=0"),
    pytest.param({"lr": "0.1"}, "lr must be finite and > 0, got '0.1'", id="lr=str"),
])
def test_bad_option_rejected_before_any_step(tmp_path, options, message):
    model = small_model("fm")
    before = {name: p.data.copy() for name, p in model.params().items()}
    loss_path = tmp_path / "loss.csv"
    kwargs = dict({"steps": 5, "batch_size": 8}, **options)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train_model(model, small_corpus(), loss_path=loss_path, **kwargs)
    assert model.trained_steps == 0 and not loss_path.exists()
    for name, p in model.params().items():
        assert np.array_equal(p.data, before[name]), name


def test_non_finite_loss_aborts_with_diagnostic():
    # layer norm keeps activations bounded, so a huge learning rate alone
    # cannot overflow; poison a parameter instead and expect the guard
    model = small_model("det")
    model.params()["encoder.embed.table"].data[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        train_model(model, small_corpus(), steps=5, batch_size=8, seed=0)


def test_non_finite_loss_stops_before_its_update():
    # the loop checks the loss before the backward pass, so its own
    # diagnostic fires, not Adam's gradient check, and no parameter moves
    model = small_model("det")
    model.params()["encoder.embed.table"].data[0, 0] = np.nan
    before = {name: p.data.copy() for name, p in model.params().items()}
    with pytest.raises(FloatingPointError, match="loss became non-finite at step 0"):
        train_model(model, small_corpus(), steps=5, batch_size=8, seed=0)
    for name, p in model.params().items():
        assert np.array_equal(p.data, before[name], equal_nan=True), name
    assert model.trained_steps == 0


def test_non_finite_gradient_stops_before_its_update(monkeypatch):
    # a NaN put into one working-copy gradient after the backward pass of
    # the third step leaves the loss finite: the optimizer's check names
    # the parameter before the step changes any master
    model = small_model("det")
    copies, before = [], {}
    cast_copy, backward = nn.cast_copy, nm.Tape.backward

    def keep_copy(layer, dtype):
        copies.append(cast_copy(layer, dtype))
        return copies[-1]

    def poisoned_backward(tape, value):
        backward(tape, value)
        poisoned_backward.calls += 1
        if poisoned_backward.calls == 3:
            before.update((name, p.data.copy()) for name, p in model.params().items())
            # cast_copy recurses, so the whole model's copy is the last made
            copies[-1].params()["predictor.norm1.gain"].grad[5] = np.nan

    poisoned_backward.calls = 0
    monkeypatch.setattr(nn, "cast_copy", keep_copy)
    monkeypatch.setattr(nm.Tape, "backward", poisoned_backward)
    with pytest.raises(FloatingPointError,
                       match="non-finite gradient for parameter 'predictor.norm1.gain'"):
        train_model(model, small_corpus(), steps=5, batch_size=8, seed=0)
    assert poisoned_backward.calls == 3
    for name, p in model.params().items():
        assert np.array_equal(p.data, before[name]), name


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_loaded_model_trains_like_the_model_it_was_saved_from(kind, tmp_path):
    # and after training neither model's masters hold a gradient buffer
    corpus = small_corpus(style="spont")
    model = small_model(kind)
    train_model(model, corpus, steps=3, batch_size=8, seed=0)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    expected = train_model(model, corpus, steps=4, batch_size=8, seed=1)
    assert np.array_equal(train_model(loaded, corpus, steps=4, batch_size=8, seed=1),
                          expected)
    for name, p in loaded.params().items():
        assert np.array_equal(p.data, model.params()[name].data), name
        assert p.grad is None and model.params()[name].grad is None, name


def test_training_leaves_no_gradient(monkeypatch):
    # Adam drops each step's gradients from the working copy, and the
    # float64 masters never receive any
    copies = []
    cast_copy = nn.cast_copy

    def keep_copy(layer, dtype):
        copies.append(cast_copy(layer, dtype))
        return copies[-1]

    monkeypatch.setattr(nn, "cast_copy", keep_copy)
    model = small_model("fm")
    train_model(model, small_corpus(), steps=3, batch_size=8, seed=0)
    for params in (model.params(), copies[-1].params()):
        for name, p in params.items():
            assert p.grad is None, name


def test_trained_steps_accumulates():
    model = small_model("det")
    corpus = small_corpus()
    assert model.trained_steps == 0
    train_model(model, corpus, 7, batch_size=8)
    train_model(model, corpus, 5, batch_size=8)
    assert model.trained_steps == 12


def test_numpy_step_count_saves_and_loads(tmp_path):
    # check_options accepts a numpy integer, which trained_steps then holds
    model = DurationModel("det", np.int64(24), seed=np.int64(0), encoder_dim=np.int64(16),
                          hidden=24, noise_dim=8, time_dim=8)
    train_model(model, small_corpus(), np.int64(2), batch_size=8)
    path = tmp_path / "m.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.trained_steps == 2 and type(loaded.trained_steps) is int
    assert loaded.dims == model.dims


def float32_working_copy(model):
    """The copy train_model runs each step on: float32 parameters whose
    data is one flat buffer."""
    work = nn.cast_copy(model, np.float32)
    nm.flatten(work.params().values(), np.float32)
    return work


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_float32_gradient_matches_float64(kind):
    # float32 rounds each op to about 6e-8 relative, so a gradient
    # through some fifty ops and sums of a few hundred terms stays within
    # 1e-4 (some 800 float32 roundings) of each parameter's largest entry
    model = DurationModel(kind, 24, seed=0)
    work = float32_working_copy(model)
    ids = np.array([[3, 0, 4, 0, 5, 0, 1, 0], [5, 0, 3, 0, 4, 0, 6, 0]])
    targets = np.log(np.array([[3.0, 0.01, 5.0, 1.01, 7.0, 0.01, 12.0, 2.01],
                               [4.0, 1.01, 2.0, 0.01, 9.0, 0.01, 6.0, 0.01]]))
    values = {}
    for name, m in (("float64", model), ("float32", work)):
        with nm.record() as tape:
            values[name] = loss(m, ids, targets, np.random.default_rng(99))
        tape.backward(values[name])
    assert values["float64"].data.dtype == np.float64
    assert values["float32"].data.dtype == np.float32
    assert values["float32"].item() == pytest.approx(values["float64"].item(), rel=1e-5)
    exact = model.params()
    for name, p in work.params().items():
        assert p.grad.dtype == np.float32 and exact[name].grad.dtype == np.float64, name
        scale = np.max(np.abs(exact[name].grad))
        assert np.max(np.abs(p.grad - exact[name].grad)) <= 1e-4 * scale, name


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_training_step_runs_in_float32_on_float64_masters(kind, tmp_path, monkeypatch):
    # a float64 promotion anywhere in the step would silently cost the
    # float32 speed; every tape op must make a float32 output
    dtypes = []
    push = nm.Tape._push

    def spy(tape, out, backward_fn):
        dtypes.append(out.data.dtype)
        push(tape, out, backward_fn)

    monkeypatch.setattr(nm.Tape, "_push", spy)
    model = small_model(kind)
    train_model(model, small_corpus(), steps=1, batch_size=8, seed=0)
    assert TRAINING_DTYPE == np.float32
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    for name, p in model.params().items():
        assert p.data.dtype == np.float64, name
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path) as archive:
        assert sorted(archive.files) == sorted(["__meta__", *model.params()])
        for name in model.params():
            assert archive[name].dtype == np.float64, name
    loaded = load_model(path).params()
    for name, p in model.params().items():
        assert np.array_equal(loaded[name].data, p.data), name


def test_each_step_runs_on_a_float32_copy_of_the_current_masters():
    # reference loop: a fresh float32 copy of the float64 masters at
    # every step, its gradients handed to a float64 Adam
    def stream(name):
        return np.random.default_rng(np.random.SeedSequence([0, name]))

    corpus = small_corpus(style="spont")
    model, ref = small_model("fm"), small_model("fm")
    plan = _batch_plan(_prepare(corpus), 8, stream(BATCH_STREAM))
    losses = train_model(model, corpus, steps=len(plan), batch_size=8, seed=0)
    opt, noise_rng, expected = nm.Adam(ref.params()), stream(NOISE_STREAM), []
    for ids, targets in plan:
        work = float32_working_copy(ref)
        with nm.record() as tape:
            value = loss(work, ids, targets, noise_rng)
        tape.backward(value)
        for name, p in work.params().items():
            ref.params()[name].grad = p.grad.astype(np.float64)
        opt.step()
        expected.append(value.item())
    assert np.array_equal(losses, expected)
    for name, p in model.params().items():
        assert np.array_equal(p.data, ref.params()[name].data), name


def test_parameter_edit_shows_in_next_call():
    # the working copy is made per call, from the masters as they are then
    corpus = small_corpus()
    edited, kept = small_model("det"), small_model("det")
    for model in (edited, kept):
        train_model(model, corpus, steps=3, batch_size=8, seed=0)
    edited.params()["predictor.proj.bias"].data[...] += 10.0
    first = train_model(edited, corpus, steps=1, batch_size=8, seed=1)[0]
    baseline = train_model(kept, corpus, steps=1, batch_size=8, seed=1)[0]
    # a bias 10 off puts every prediction about 10 off its target
    assert first > 50.0 and baseline < 50.0


# one float32 fm loss forward and backward at batch 16 peaks at about
# 6.3 KB per column of its batch (B*T), measured as below: the arrays
# the adjoints read, then backward's gradients. A tape that held the
# ops' outputs, the conv and norm outputs no adjoint reads included,
# would peak at about 12.8 KB; the bound lies between the two
STEP_BYTES_PER_COLUMN = 9_500


def test_fm_step_memory_per_column_stays_bounded():
    # array sizes fix the slope, so the guard is deterministic: the peak
    # of one loss forward and backward, at two batch widths
    model = DurationModel("fm", 24, seed=0)
    work = float32_working_copy(model)
    rng = np.random.default_rng(0)
    peaks = []
    for t_len in (18, 30):
        ids = rng.integers(0, 24, size=(16, t_len))
        targets = rng.normal(size=(16, t_len))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with nm.record() as tape:
                value = loss(work, ids, targets, rng)
            tape.backward(value)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    per_column = (peaks[1] - peaks[0]) / (16 * (30 - 18))
    assert per_column < STEP_BYTES_PER_COLUMN, f"{per_column:.0f} bytes per column"
