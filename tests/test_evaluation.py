"""Evaluation harness: residual curves, distribution stats, reports."""

import contextlib
import csv
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import rounded_lognormal_moments
from durflow import evaluation
from durflow import numerics as nm
from durflow.data import BIMODAL_ID, CorpusSpec, generate
from durflow.duration import (
    DurationModel,
    LogDurations,
    SampleOptions,
    fm_sample_batch,
    quantisation_residual,
    to_frames,
)
from durflow.encoder import PAUSE_ID
from durflow.evaluation import (
    DEFAULT_NFE_LIST,
    ResidualCurve,
    bench_sampling,
    corpus_frames,
    corpus_log_values,
    declared_modes,
    dist_stats,
    frames_by_class,
    reference_by_class,
    residual_vs_nfe,
    write_report,
)
from durflow.training import train_model
from test_numerics import FakeOpenBLAS


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate(CorpusSpec(style="read", seed=3, num_sentences=30,
                               max_phones=6), "train")


@pytest.fixture(scope="module")
def tiny_det(tiny_corpus):
    model = DurationModel("det", 24, seed=0, encoder_dim=16, hidden=24,
                          noise_dim=8, time_dim=8)
    train_model(model, tiny_corpus, 20, batch_size=8)
    return model


@pytest.fixture(scope="module")
def tiny_fm(tiny_corpus):
    model = DurationModel("fm", 24, seed=0, encoder_dim=16, hidden=24,
                          noise_dim=8, time_dim=8)
    train_model(model, tiny_corpus, 20, batch_size=8)
    return model


# ---------------------------------------------------------------- curves


def test_det_curve_is_exactly_flat(tiny_det, tiny_corpus):
    curve = residual_vs_nfe(tiny_det, tiny_corpus)
    values = curve.residuals[("det", "read")]
    assert len(values) == len(DEFAULT_NFE_LIST)
    assert len(set(values)) == 1


def test_untrained_model_is_flagged(tiny_corpus):
    model = DurationModel("det", 24, seed=0, encoder_dim=16, hidden=24,
                          noise_dim=8, time_dim=8)
    with pytest.raises(ValueError, match="trained"):
        residual_vs_nfe(model, tiny_corpus)


def test_single_point_curve(tiny_fm, tiny_corpus):
    curve = residual_vs_nfe(tiny_fm, tiny_corpus, nfe_list=(1,))
    (values,) = [curve.residuals[("fm", "read")]]
    assert len(values) == 1
    assert np.isfinite(values[0]) and values[0] >= 0


# the NFE lists as given, and the entry SampleOptions rejects in each
NON_INTEGER_NFE = [((1, 2.5), 2.5), ((1.9,), 1.9), ((True, 2), True), ((1, "2"), "2")]


@pytest.mark.parametrize("kind", ["det", "fm"])
@pytest.mark.parametrize("nfe_list, bad", NON_INTEGER_NFE)
def test_curve_rejects_a_non_integer_nfe(tiny_det, tiny_fm, tiny_corpus, monkeypatch,
                                         kind, nfe_list, bad):
    # a det curve samples once for every NFE, so the check must not
    # depend on building options per NFE for sampling
    passes = []
    monkeypatch.setattr(evaluation, "corpus_log_values", lambda *args: passes.append(args))
    model = {"det": tiny_det, "fm": tiny_fm}[kind]
    with pytest.raises(ValueError, match=re.escape(f"nfe must be an integer >= 1, got {bad!r}")):
        residual_vs_nfe(model, tiny_corpus, nfe_list=nfe_list)
    assert passes == []


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_corpus_without_sentences_rejected(tiny_det, tiny_fm, kind):
    model = {"det": tiny_det, "fm": tiny_fm}[kind]
    empty = generate(CorpusSpec(style="spont", seed=3, num_sentences=0), "train")
    with pytest.raises(ValueError,
                       match="the spont train corpus of seed 3 has no sentences to evaluate"):
        residual_vs_nfe(model, empty)


def test_unsorted_nfe_list_rejected(tiny_fm, tiny_corpus):
    with pytest.raises(ValueError, match="ascending"):
        residual_vs_nfe(tiny_fm, tiny_corpus, nfe_list=(10, 1))


def test_fm_curve_is_deterministic(tiny_fm, tiny_corpus):
    a = residual_vs_nfe(tiny_fm, tiny_corpus, nfe_list=(1, 4))
    b = residual_vs_nfe(tiny_fm, tiny_corpus, nfe_list=(1, 4))
    assert a.residuals == b.residuals


def test_aggregate_is_mean_over_corpora():
    curve = ResidualCurve((1, 2))
    curve.add("fm", "read", (0.2, 0.1))
    curve.add("fm", "spont", (0.4, 0.3))
    assert curve.aggregate("fm") == (pytest.approx(0.3), pytest.approx(0.2))
    with pytest.raises(ValueError):
        curve.aggregate("det")


def test_merge_combines_entries():
    a = ResidualCurve((1, 2))
    a.add("fm", "read", (0.2, 0.1))
    b = ResidualCurve((1, 2))
    b.add("det", "read", (0.3, 0.3))
    merged = a.merge(b)
    assert set(merged.residuals) == {("fm", "read"), ("det", "read")}
    with pytest.raises(ValueError):
        a.merge(ResidualCurve((1, 4)))


@contextlib.contextmanager
def blas_threads_found(count):
    """Stands in for numerics.one_blas_thread, as if OpenBLAS had count threads."""
    yield count


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_log_values_do_not_depend_on_worker_count(tiny_det, tiny_fm, tiny_corpus,
                                                  monkeypatch, kind):
    # the call layout depends on the corpus, the reps and the column
    # budget only, and every product runs on one BLAS thread, so how
    # many workers share the calls changes no bit
    model = {"det": tiny_det, "fm": tiny_fm}[kind]
    opts = SampleOptions(nfe=3, seed=4)
    monkeypatch.setattr(evaluation, "MAX_BATCH_COLUMNS", 60)
    threads = set()
    packed_log_values = evaluation._packed_log_values

    def spy(*args):
        threads.add(threading.current_thread())
        return packed_log_values(*args)

    monkeypatch.setattr(evaluation, "_packed_log_values", spy)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers interleave as finely as they can
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(nm, "one_blas_thread", lambda: blas_threads_found(workers))
            results[workers] = evaluation._corpus_log_values(model, tiny_corpus, opts,
                                                             range(3))
            # one worker runs the calls on the caller's thread, more on pool threads
            assert (threading.main_thread() in threads) == (workers == 1)
            threads.clear()
    finally:
        sys.setswitchinterval(interval)
    for workers in (2, 3):
        for single, fanned in zip(results[1], results[workers]):
            assert single.keys() == fanned.keys()
            for k in single:
                assert np.array_equal(single[k], fanned[k])


@pytest.mark.parametrize("library", ["found", "fake-3"])
def test_blas_threads_restored_after_a_worker_raises(tiny_fm, tiny_corpus, monkeypatch,
                                                     library):
    if library == "fake-3":
        fake = FakeOpenBLAS(3)
        monkeypatch.setattr(nm, "_openblas", fake.functions)
    before = nm.blas_threads()
    monkeypatch.setattr(evaluation, "MAX_BATCH_COLUMNS", 60)
    raised_on = []

    def failing(*args):
        raised_on.append(threading.current_thread())
        raise RuntimeError("Euler call failed")

    monkeypatch.setattr(evaluation, "fm_sample_batch", failing)
    with pytest.raises(RuntimeError, match="Euler call failed"):
        corpus_frames(tiny_fm, tiny_corpus, SampleOptions(nfe=3), reps=3)
    assert nm.blas_threads() == before
    if library == "fake-3":
        assert fake.sets == [1, 3]
        assert threading.main_thread() not in raised_on


def test_reps_equal_separate_rep_passes(tiny_fm, tiny_corpus):
    # each call encodes its sentences once for all of its reps; every rep
    # must still equal a pass of its own
    opts = SampleOptions(nfe=3, seed=4)
    frames = corpus_frames(tiny_fm, tiny_corpus, opts, reps=3)
    assert list(frames) == [s.sent_id for s in tiny_corpus.sentences]
    for rep in range(3):
        values = evaluation._corpus_log_values(tiny_fm, tiny_corpus, opts, (rep,))[0]
        for s in tiny_corpus.sentences:
            assert np.array_equal(frames[s.sent_id][rep],
                                  to_frames(LogDurations(values[s.sent_id])))


@pytest.mark.parametrize("reps", [0, -2])
def test_corpus_frames_rejects_reps_below_one(tiny_fm, tiny_corpus, reps):
    with pytest.raises(ValueError, match=f"reps must be an integer >= 1, got {reps}"):
        corpus_frames(tiny_fm, tiny_corpus, SampleOptions(nfe=1), reps=reps)


@pytest.mark.parametrize("reps", [2.5, True])
def test_corpus_frames_rejects_non_integer_reps(tiny_fm, tiny_corpus, reps):
    with pytest.raises(ValueError, match=f"reps must be an integer >= 1, got {reps!r}"):
        corpus_frames(tiny_fm, tiny_corpus, SampleOptions(nfe=1), reps=reps)


def test_training_after_a_sampling_pass_is_unchanged():
    # the pass pins OpenBLAS to one thread and must hand back the count
    # training had: at a different count the products split differently
    # and the trajectory changes in its last bits. Default widths, so
    # that OpenBLAS splits these products over its threads at all
    corpus = generate(CorpusSpec(style="spont", seed=2, num_sentences=40), "train")

    def train():
        model = DurationModel("fm", corpus.spec.vocab_size, seed=1)
        losses = train_model(model, corpus, 4, batch_size=16)
        return model, losses

    model, losses = train()
    corpus_log_values(model, corpus, SampleOptions(nfe=2))
    again, again_losses = train()
    assert np.array_equal(again_losses, losses)
    for name, param in model.params().items():
        assert np.array_equal(again.params()[name].data, param.data), name


def pair_streams(corpus, opts, reps) -> list:
    """The noise of every (sentence, rep) pair, drawn from its own stream."""
    return sorted(
        (opts.temperature * np.random.default_rng(
            np.random.SeedSequence([opts.seed, s.sent_id, rep])
        ).standard_normal(len(s.seq))).tobytes()
        for s in corpus.sentences for rep in range(reps))


def split_frames(model, corpus, opts, reps, budget):
    """corpus_frames with MAX_BATCH_COLUMNS at ``budget``, checking that
    no fm_sample_batch call is wider than the budget unless one
    (sentence, rep) pair alone is. Returns the frames, the noise of
    every sampled pair and the calls' packed lengths."""
    calls = []

    def spy(model, cond, noise, nfe, lengths):
        calls.append((noise, lengths))
        return fm_sample_batch(model, cond, noise, nfe, lengths)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "fm_sample_batch", spy)
        patch.setattr(evaluation, "MAX_BATCH_COLUMNS", budget)
        frames = corpus_frames(model, corpus, opts, reps=reps)
    noise_seen = []
    for noise, lengths in calls:
        rows, _, width = noise.shape
        assert width == sum(lengths)
        assert rows * width <= budget or (rows, len(lengths)) == (1, 1)
        ends = np.cumsum(lengths)
        noise_seen += [row[0, end - t_len:end].tobytes() for row in noise
                       for t_len, end in zip(lengths, ends)]
    return frames, sorted(noise_seen), [lengths for _, lengths in calls]


def assert_same_frames(got, want, reps):
    assert list(got) == list(want)
    for sent_id, frames in got.items():
        assert len(frames) == reps
        for rep in range(reps):
            assert np.array_equal(frames[rep], want[sent_id][rep])


def test_reps_split_under_the_column_budget(tiny_det, tiny_fm, tiny_corpus):
    # sentences of every length run packed in one fm_sample_batch call, all
    # reps stacked, as far as the column budget allows: 200 columns pack a
    # few sentences per call, 40 split each sentence's reps, and a budget
    # below the longest sentence leaves pairs that are alone wider. det
    # packs one realisation per call, which every rep shares; its float32
    # products may reassociate with the call width, its frames may not move
    opts = SampleOptions(nfe=3, seed=4)
    reps = 7

    def det_pass():
        per_rep = evaluation._corpus_log_values(tiny_det, tiny_corpus, opts, range(reps))
        for values in per_rep[1:]:
            assert all(np.array_equal(values[k], per_rep[0][k]) for k in per_rep[0])
        return per_rep[0]

    unsplit, _, packed = split_frames(tiny_fm, tiny_corpus, opts, reps, 10**9)
    assert len(packed) == 1
    det_unsplit = det_pass()
    longest = max(len(s.seq) for s in tiny_corpus.sentences)
    for budget in (200, 40, longest - 1):
        split, noise_seen, packed = split_frames(tiny_fm, tiny_corpus, opts, reps, budget)
        assert_same_frames(split, unsplit, reps)
        assert len(packed) > 1
        assert (max(len(lengths) for lengths in packed) > 1) == (budget == 200)
        # every (sentence, rep) pair sampled once, from its own stream
        assert noise_seen == pair_streams(tiny_corpus, opts, reps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "MAX_BATCH_COLUMNS", budget)
            det_split = det_pass()
        assert det_split.keys() == det_unsplit.keys()
        for sent_id, values in det_split.items():
            assert np.max(np.abs(values - det_unsplit[sent_id])) <= 1e-5
            assert np.array_equal(to_frames(LogDurations(values)),
                                  to_frames(LogDurations(det_unsplit[sent_id])))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(budget=st.integers(1, 150), reps=st.integers(1, 5))
def test_sample_calls_under_any_column_budget(tiny_fm, tiny_corpus, budget, reps):
    # every (sentence, rep) pair is sampled once from its own stream, no
    # call is wider than the budget unless one pair alone is, and the
    # frames are those of one unsplit call
    opts = SampleOptions(nfe=2, seed=6)
    split, noise_seen, _ = split_frames(tiny_fm, tiny_corpus, opts, reps, budget)
    assert noise_seen == pair_streams(tiny_corpus, opts, reps)
    unsplit, _, packed = split_frames(tiny_fm, tiny_corpus, opts, reps, 10**9)
    assert len(packed) == 1
    assert_same_frames(split, unsplit, reps)


def test_sampling_noise_is_per_sentence(tiny_fm, tiny_corpus):
    # rep index changes the draw; the seed pins it
    a = corpus_frames(tiny_fm, tiny_corpus, SampleOptions(seed=9), reps=2)
    b = corpus_frames(tiny_fm, tiny_corpus, SampleOptions(seed=9), reps=2)
    some_id = tiny_corpus.sentences[0].sent_id
    assert np.array_equal(a[some_id][0], b[some_id][0])
    assert any(
        not np.array_equal(a[sid][0], a[sid][1]) for sid in a
    )


def test_temperature_zero_ignores_seed(tiny_fm, tiny_corpus):
    a = corpus_log_values(tiny_fm, tiny_corpus, SampleOptions(temperature=0.0, seed=1))
    b = corpus_log_values(tiny_fm, tiny_corpus, SampleOptions(temperature=0.0, seed=2))
    assert all(np.array_equal(a[sid], b[sid]) for sid in a)


def test_different_seeds_differ(tiny_fm, tiny_corpus):
    a = corpus_log_values(tiny_fm, tiny_corpus, SampleOptions(seed=1))
    b = corpus_log_values(tiny_fm, tiny_corpus, SampleOptions(seed=2))
    assert all(not np.array_equal(a[sid], b[sid]) for sid in a)


# ---------------------------------------------------------------- precision


@pytest.fixture(scope="module")
def spont_fm():
    """A briefly trained full-size fm model and its spont val corpus."""
    spec = CorpusSpec(style="spont", seed=2)
    model = DurationModel("fm", spec.vocab_size, seed=2)
    train_model(model, generate(spec, "train"), 100, batch_size=16, seed=2)
    return model, generate(spec, "val")


@pytest.mark.parametrize("nfe", [1, 10])
def test_float32_pass_matches_float64_pass(spont_fm, monkeypatch, nfe):
    model, val = spont_fm
    opts = SampleOptions(nfe=nfe, seed=3)
    single = corpus_log_values(model, val, opts)
    monkeypatch.setattr(evaluation, "SAMPLING_DTYPE", np.float64)
    double = corpus_log_values(model, val, opts)
    a = np.concatenate([single[s.sent_id] for s in val.sentences])
    b = np.concatenate([double[s.sent_id] for s in val.sentences])
    assert a.dtype == b.dtype == np.float64
    same = np.mean(to_frames(LogDurations(a)) == to_frames(LogDurations(b)))
    assert same >= 0.999
    assert abs(quantisation_residual(LogDurations(a))
               - quantisation_residual(LogDurations(b))) <= 1e-3


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_corpus_pass_runs_in_float32(tiny_det, tiny_fm, tiny_corpus, monkeypatch, kind):
    model = {"det": tiny_det, "fm": tiny_fm}[kind]
    dtypes = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            dtypes.append(out.data.dtype)
            return out
        return wrapped

    for name in ("conv1d", "layer_norm"):
        monkeypatch.setattr(nm, name, spy(getattr(nm, name)))
    values = corpus_log_values(model, tiny_corpus, SampleOptions(nfe=3))
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    assert {v.dtype for v in values.values()} == {np.dtype(np.float64)}
    assert all(p.data.dtype == np.float64 for p in model.params().values())


def test_parameter_edit_shows_in_next_pass(tiny_corpus):
    def fresh():
        return DurationModel("fm", 24, seed=5, encoder_dim=16, hidden=24,
                             noise_dim=8, time_dim=8)

    def edit(model):
        for name in ("encoder.conv.weight", "predictor.conv2.weight",
                     "predictor.proj.bias"):
            model.params()[name].data[...] += 0.25

    model, reference = fresh(), fresh()
    opts = SampleOptions(nfe=2, seed=1)
    before = corpus_log_values(model, tiny_corpus, opts)
    edit(model)
    edit(reference)
    after = corpus_log_values(model, tiny_corpus, opts)
    want = corpus_log_values(reference, tiny_corpus, opts)
    for s in tiny_corpus.sentences:
        assert not np.array_equal(after[s.sent_id], before[s.sent_id])
        assert np.array_equal(after[s.sent_id], want[s.sent_id])


# ---------------------------------------------------------------- stats


def test_constant_durations_have_zero_std():
    st = dist_stats({5: np.full(1200, 7)})
    assert st.stds[5] == 0.0
    assert st.means[5] == 7.0


def test_empty_class_rejected():
    with pytest.raises(ValueError, match="no samples"):
        dist_stats({5: np.array([])}, min_tokens=1)


def test_min_token_floor_enforced():
    with pytest.raises(ValueError, match="need at least"):
        dist_stats({5: np.arange(999)})


def test_stats_match_generating_law_within_three_se():
    rng = np.random.default_rng(0)
    mu, sigma = np.log(5.0), 0.1
    draws = np.maximum(np.floor(rng.lognormal(mu, sigma, 4000) + 0.5), 1)
    st = dist_stats({7: draws.astype(int)})
    mean, std = rounded_lognormal_moments(mu, sigma, min_duration=1)
    se_mean = std / np.sqrt(4000)
    assert abs(st.means[7] - mean) < 3 * se_mean
    assert abs(st.stds[7] - std) < 3 * std / np.sqrt(2 * 4000)


def test_balanced_bimodal_mode_frequencies():
    rng = np.random.default_rng(1)
    comp = rng.integers(0, 2, 5000)
    draws = np.where(comp == 0,
                     np.maximum(np.floor(rng.lognormal(np.log(2), 0.03, 5000) + 0.5), 1),
                     np.maximum(np.floor(rng.lognormal(np.log(12), 0.03, 5000) + 0.5), 1))
    st = dist_stats({BIMODAL_ID: draws.astype(int)}, {BIMODAL_ID: [2.0, 12.0]})
    freqs = st.mode_freqs[BIMODAL_ID]
    assert set(freqs) == {2.0, 12.0}
    assert freqs[2.0] == pytest.approx(0.5, abs=0.05)
    assert freqs[12.0] == pytest.approx(0.5, abs=0.05)
    assert sum(freqs.values()) == pytest.approx(1.0)


def test_declared_modes_reads_mixture_components():
    modes = declared_modes(CorpusSpec(style="spont"))
    assert modes == {BIMODAL_ID: [pytest.approx(2.0), pytest.approx(12.0)]}


def test_reference_pool_matches_sentences(tiny_corpus):
    pools = reference_by_class(tiny_corpus)
    total = sum(v.size for v in pools.values())
    assert total == sum(len(s.seq) for s in tiny_corpus.sentences)
    s = tiny_corpus.sentences[0]
    tok = int(s.seq.ids[0])
    assert s.durations[0] in pools[tok]


def test_frames_pool_counts_reps(tiny_det, tiny_corpus):
    frames = corpus_frames(tiny_det, tiny_corpus, SampleOptions(), reps=2)
    pools = frames_by_class(tiny_corpus, frames)
    total = sum(v.size for v in pools.values())
    assert total == 2 * sum(len(s.seq) for s in tiny_corpus.sentences)


# ---------------------------------------------------------------- bench


def test_bench_rows_are_well_formed(tiny_fm, tiny_corpus):
    rows = bench_sampling(tiny_fm, tiny_corpus, nfe_list=(1, 2), repetitions=3)
    assert [r["nfe"] for r in rows] == [1, 2]
    for r in rows:
        assert r["model"] == "fm"
        assert r["median_ms"] > 0 and np.isfinite(r["median_ms"])
        assert r["ms_per_nfe"] == pytest.approx(r["median_ms"] / r["nfe"])


@pytest.mark.parametrize("repetitions", [0, -1])
def test_bench_rejects_repetitions_below_one(tiny_fm, tiny_corpus, monkeypatch, repetitions):
    passes = []
    monkeypatch.setattr(evaluation, "corpus_log_values", lambda *args: passes.append(args))
    with pytest.raises(ValueError, match=f"repetitions must be >= 1, got {repetitions}"):
        bench_sampling(tiny_fm, tiny_corpus, nfe_list=(1, 2), repetitions=repetitions)
    assert passes == []


@pytest.mark.parametrize("nfe_list, bad", NON_INTEGER_NFE)
def test_bench_rejects_a_non_integer_nfe(tiny_fm, tiny_corpus, monkeypatch, nfe_list, bad):
    passes = []
    monkeypatch.setattr(evaluation, "corpus_log_values", lambda *args: passes.append(args))
    with pytest.raises(ValueError, match=re.escape(f"nfe must be an integer >= 1, got {bad!r}")):
        bench_sampling(tiny_fm, tiny_corpus, nfe_list=nfe_list, repetitions=1)
    assert passes == []


def test_bench_interleaves_nfe_passes(tiny_fm, tiny_corpus, monkeypatch):
    # one untimed warm-up pass per NFE, then one pass per NFE each
    # repetition, the order rotated by one every repetition
    order = []

    def spy(model, corpus, opts):
        order.append(opts.nfe)
        return {}

    monkeypatch.setattr(evaluation, "corpus_log_values", spy)
    rows = bench_sampling(tiny_fm, tiny_corpus, nfe_list=(1, 2, 4), repetitions=4)
    assert order == [1, 2, 4] + [1, 2, 4, 2, 4, 1, 4, 1, 2, 1, 2, 4]
    assert [r["nfe"] for r in rows] == [1, 2, 4]


def test_bench_runs_for_det(tiny_det, tiny_corpus):
    rows = bench_sampling(tiny_det, tiny_corpus, nfe_list=(1, 8), repetitions=2)
    assert len(rows) == 2 and all(r["median_ms"] > 0 for r in rows)


# ---------------------------------------------------------------- report


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_write_report_round_trips(tmp_path):
    curve = ResidualCurve((1, 10))
    curve.add("fm", "read", (0.25, 0.0625))
    curve.add("fm", "spont", (0.5, 0.125))
    curve.add("det", "read", (0.1, 0.1))
    stats = {
        ("fm", "spont"): dist_stats(
            {BIMODAL_ID: np.repeat([2, 12], 600), PAUSE_ID: np.full(1000, 3)},
            {BIMODAL_ID: [2.0, 12.0]},
        )
    }
    bench = [{"model": "fm", "nfe": 10, "median_ms": 12.5, "ms_per_nfe": 1.25}]
    write_report(curve, stats, bench, tmp_path)

    rows = _read_csv(tmp_path / "residual.csv")
    assert rows[0] == ["model", "corpus", "nfe", "mean_residual"]
    body = rows[1:]
    # one row per (model, corpus, nfe) including the cross-corpus aggregate
    keys = [(r[0], r[1], r[2]) for r in body]
    assert len(keys) == len(set(keys)) == 10  # 2 nfe x (3 entries + 2 aggregates)
    fm_all = {r[2]: float(r[3]) for r in body if r[:2] == ["fm", "all"]}
    assert fm_all == {"1": 0.375, "10": 0.09375}
    det_read = {r[2]: float(r[3]) for r in body if r[:2] == ["det", "read"]}
    assert det_read == {"1": 0.1, "10": 0.1}

    rows = _read_csv(tmp_path / "dist.csv")
    assert rows[0] == ["model", "corpus", "class", "mean", "std", "mode_freqs"]
    by_class = {r[2]: r for r in rows[1:]}
    assert float(by_class[str(PAUSE_ID)][3]) == 3.0
    assert by_class[str(PAUSE_ID)][5] == ""
    assert "2:" in by_class[str(BIMODAL_ID)][5] and "12:" in by_class[str(BIMODAL_ID)][5]

    rows = _read_csv(tmp_path / "bench.csv")
    assert rows[0] == ["model", "nfe", "median_ms", "ms_per_nfe"]
    assert rows[1][:2] == ["fm", "10"]


def test_report_reruns_identically(tmp_path):
    curve = ResidualCurve((1, 4))
    curve.add("fm", "read", (1 / 3, 1 / 7))
    stats = {("fm", "read"): dist_stats({5: np.full(1000, 4)})}
    bench = []
    write_report(curve, stats, bench, tmp_path / "a")
    write_report(curve, stats, bench, tmp_path / "b")
    for name in ("residual.csv", "dist.csv", "bench.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    # full precision survives the text round trip
    rows = _read_csv(tmp_path / "a" / "residual.csv")
    assert float(rows[1][3]) == 1 / 3


def test_empty_curve_gives_header_only(tmp_path):
    write_report(ResidualCurve((1, 10)), {}, [], tmp_path)
    rows = _read_csv(tmp_path / "residual.csv")
    assert rows == [["model", "corpus", "nfe", "mean_residual"]]
