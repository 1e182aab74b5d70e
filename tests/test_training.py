"""Training-loop behavior: convergence, logging, determinism, failure modes."""

import numpy as np
import pytest

from durflow.data import CorpusSpec, generate
from durflow.duration import DurationModel
from durflow.training import _batch_plan, _prepare, train_model


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


def test_trained_steps_accumulates():
    model = small_model("det")
    corpus = small_corpus()
    assert model.trained_steps == 0
    train_model(model, corpus, 7, batch_size=8)
    train_model(model, corpus, 5, batch_size=8)
    assert model.trained_steps == 12
