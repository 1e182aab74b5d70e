"""Diagnostics over trained duration models.

Three experiment families:

* residual_vs_nfe: how integer-like the sampled durations are as a
  function of the number of Euler steps,
* dist_stats: per-class mean/std and mode frequencies of sampled
  durations against the generating law,
* bench_sampling: wall-clock cost of sampling as a function of steps.

Corpus-level sampling derives one random stream per (sentence, rep)
from the option seed, so the noise a sample starts from depends neither
on batching nor on how work is spread over threads. A pass is a list
of calls over sentences of every length packed back to back along one
time axis, with no padding, at most MAX_BATCH_COLUMNS columns each.
Each call encodes its sentences; a det model then predicts them once
for every rep, and the flow model samples every realisation stacked on
that layout. The call width changes how BLAS blocks its products, so a
value can differ from a one-sentence, one-realisation pass in its last
float32 bits (see the README for the measured parity).

A sampling pass trades BLAS threads for Python threads one for one:
it pins OpenBLAS to a single thread for the whole pass and shares the
calls over as many workers as OpenBLAS had threads, restoring the
count when the pass ends. About a third of an Euler step is
single-threaded numpy (layer-norm centring, ReLUs, tap copies), which
a second BLAS thread cannot help but a second worker can. How the
calls are laid out depends only on the corpus, the reps and
MAX_BATCH_COLUMNS, and every product runs on one thread, so samples do
not depend on the thread count.

Corpus-level sampling runs the network in float32 (SAMPLING_DTYPE), on
a copy of the model made at the start of each pass, while the Euler
state and the log-durations returned stay float64. On spont validation
sets it flipped no integer frame against float64 sampling (see the
README); training never sees the copy.
"""

from __future__ import annotations

import csv
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from durflow import nn
from durflow import numerics as nm
from durflow.data import DurationCorpus, _is_int
from durflow.duration import (
    DurationModel,
    LogDurations,
    SampleOptions,
    fm_sample_batch,
    to_frames,
    quantisation_residual,
)
from durflow.files import atomic_write

DEFAULT_NFE_LIST = (1, 2, 4, 8, 10, 16, 32)
# the dtype corpus-level sampling runs the network in
SAMPLING_DTYPE = np.float32
# columns (packed sentence positions x stacked reps) per fm_sample_batch
# call at most, unless one (sentence, rep) pair alone is wider. On one
# BLAS thread a float32 Euler step costs about the same per column from
# 256 to 2048 columns (10.4, 9.3, 9.5 and 10.7 us per column-step at
# 256, 512, 1024 and 2048, NFE 10, on a 2-vCPU x86 guest), so the cap
# mainly sets how many calls the workers can share: a one-realisation
# pass over spont val (about 2,050 columns) makes two full calls and a
# sliver, where 2048 made one full call and left the second worker
# idle. A fixed cap keeps many-rep passes from multiplying peak memory.
MAX_BATCH_COLUMNS = 1024
# samples every class needs before dist_stats reports it
MIN_STAT_TOKENS = 1000


def worker_count() -> int:
    """DURFLOW_THREADS as a count of at least 1.

    Sampling no longer reads it: its worker count is the OpenBLAS
    thread count (``numerics.one_blas_thread``). It is kept only for
    the benchmark's oversubscription check, which imports it.
    """
    try:
        return max(1, int(os.environ.get("DURFLOW_THREADS", "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# corpus-level sampling


def _sample_calls(sentences, reps: int) -> list:
    """Split the (sentence, rep) pairs into the calls of a pass.

    Each call is a pair (sentences, rep positions). Sentences are packed
    in the order given, as many per call as keep columns x reps within
    MAX_BATCH_COLUMNS, at least one, with every rep in the same call. A
    sentence whose columns x reps alone exceed the budget runs alone,
    its reps split into as few calls as the budget allows, their sizes
    differing by one at most. So no call is wider than the budget
    unless one (sentence, rep) pair alone is.
    """
    calls, packed, width = [], [], 0
    for s in sentences:
        t_len = len(s.seq)
        if t_len * reps > MAX_BATCH_COLUMNS:
            parts = -(-reps // max(1, MAX_BATCH_COLUMNS // t_len))
            calls += [([s], range(k * reps // parts, (k + 1) * reps // parts))
                      for k in range(parts)]
            continue
        if (width + t_len) * reps > MAX_BATCH_COLUMNS:
            calls.append((packed, range(reps)))
            packed, width = [], 0
        packed.append(s)
        width += t_len
    if packed:
        calls.append((packed, range(reps)))
    return calls


def _packed_log_values(model: DurationModel, sentences, positions,
                       opts: SampleOptions, reps) -> list:
    """Encode the sentences packed back to back in one row, then predict
    (det) or sample (fm) them.

    ``positions`` index ``reps``. Returns (position, sent_id, values)
    triples. A det prediction is the values of every rep. FM noise
    comes from a per-(sentence, rep) stream, so neither the packing nor
    the other reps ever influence a sample's noise.
    """
    lengths = [len(s.seq) for s in sentences]
    cond = model.encoder([s.seq.ids for s in sentences])  # (1, D, N)
    if model.kind == "det":
        positions = range(len(reps))
        values = [model.predictor(cond, lengths).data[0, 0].astype(np.float64)] * len(reps)
    else:
        noise = opts.temperature * np.stack([
            np.concatenate([np.random.default_rng(
                np.random.SeedSequence([opts.seed, s.sent_id, reps[k]])
            ).standard_normal(t_len) for s, t_len in zip(sentences, lengths)])
            for k in positions
        ])[:, None]  # (R, 1, N)
        values = fm_sample_batch(model, cond, noise, opts.nfe, lengths)[:, 0, :]
    ends = np.cumsum(lengths)
    return [(k, s.sent_id, row[end - t_len:end])
            for k, row in zip(positions, values)
            for s, t_len, end in zip(sentences, lengths, ends)]


def _map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` threads."""
    if workers == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _corpus_log_values(model: DurationModel, corpus: DurationCorpus,
                       opts: SampleOptions, reps) -> list:
    """One sent_id -> log-duration dict per rep in reps, over every sentence.

    The sentences, shortest first and in corpus order within a length,
    are split into calls by ``_sample_calls``: an fm model's with every
    rep, a det model's with one realisation that every rep shares. Each
    call encodes its own sentences and predicts or samples them
    (``_packed_log_values``). The calls run on a SAMPLING_DTYPE copy of
    the model, made here and dropped on return, so a change to the
    model's parameters shows in the next call.

    The whole pass runs with OpenBLAS on one thread, and the calls are
    shared out over as many worker threads as OpenBLAS had; the count
    is restored on return.
    """
    nm.keep_freed_memory()
    with nm.one_blas_thread() as workers:
        model = nn.cast_copy(model, SAMPLING_DTYPE)
        sentences = sorted(corpus.sentences, key=lambda s: len(s.seq))
        calls = _sample_calls(sentences, len(reps) if model.kind == "fm" else 1)
        out = [{} for _ in reps]
        for triples in _map(lambda call: _packed_log_values(model, *call, opts, reps),
                            calls, workers):
            for k, sent_id, values in triples:
                out[k][sent_id] = values
        return out


def corpus_log_values(model: DurationModel, corpus: DurationCorpus,
                      opts: SampleOptions) -> dict:
    """Map sent_id -> log-duration array for every corpus sentence."""
    return _corpus_log_values(model, corpus, opts, (0,))[0]


def corpus_frames(model: DurationModel, corpus: DurationCorpus,
                  opts: SampleOptions, reps: int = 1) -> dict:
    """Map sent_id -> list of integer duration arrays, one per realisation.

    Realisation r of a sentence starts from the noise stream of its
    (sentence, r) pair, so realisation 0 is ``corpus_log_values``'s
    sample; the realisations run stacked on the packed sentences.
    """
    if not _is_int(reps) or reps < 1:
        raise ValueError(f"reps must be an integer >= 1, got {reps!r}")
    per_rep = _corpus_log_values(model, corpus, opts, range(reps))
    return {
        s.sent_id: [to_frames(LogDurations(values[s.sent_id]), opts.min_duration)
                    for values in per_rep]
        for s in corpus.sentences
    }


# ---------------------------------------------------------------------------
# residual curves


@dataclass
class ResidualCurve:
    """Mean quantisation residuals per (model, corpus) across NFE values."""

    nfe_values: tuple
    residuals: dict = field(default_factory=dict)  # (model_id, corpus_id) -> tuple

    def add(self, model_id: str, corpus_id: str, values):
        values = tuple(float(v) for v in values)
        if len(values) != len(self.nfe_values):
            raise ValueError("one residual per NFE value required")
        self.residuals[(model_id, corpus_id)] = values

    def merge(self, other: "ResidualCurve") -> "ResidualCurve":
        if other.nfe_values != self.nfe_values:
            raise ValueError("cannot merge curves over different NFE grids")
        merged = ResidualCurve(self.nfe_values, dict(self.residuals))
        merged.residuals.update(other.residuals)
        return merged

    def aggregate(self, model_id: str) -> tuple:
        """Arithmetic mean across corpora at each NFE value."""
        rows = [v for (m, _), v in sorted(self.residuals.items()) if m == model_id]
        if not rows:
            raise ValueError(f"no entries for model {model_id!r}")
        return tuple(float(np.mean(col)) for col in zip(*rows))


def residual_vs_nfe(model: DurationModel, corpus_val: DurationCorpus,
                    nfe_list=DEFAULT_NFE_LIST, opts: SampleOptions = None) -> ResidualCurve:
    """Mean residual over the whole validation set at each NFE count,
    keyed by (model kind, corpus style).

    The deterministic model is evaluated once and replicated, since its
    output does not depend on the step count. For the flow model, each
    sentence keeps the same initial noise across NFE values (one stream
    per sentence), which makes the curve a paired comparison. Every NFE
    count must be an integer >= 1, for either kind.
    """
    opts = opts or SampleOptions()
    # SampleOptions rejects an NFE count that is not an integer >= 1
    nfe_opts = [replace(opts, nfe=nfe) for nfe in nfe_list]
    nfe_list = tuple(o.nfe for o in nfe_opts)
    if list(nfe_list) != sorted(set(nfe_list)):
        raise ValueError("nfe_list must be strictly ascending")
    if model.trained_steps == 0:
        raise ValueError("model has not been trained")
    if not corpus_val.sentences:
        raise ValueError(f"the {corpus_val.spec.style} {corpus_val.split} corpus of seed "
                         f"{corpus_val.spec.seed} has no sentences to evaluate")
    model_id, corpus_id = model.kind, corpus_val.spec.style

    def pooled_residual(values_by_id):
        vals = np.concatenate([values_by_id[s.sent_id] for s in corpus_val.sentences])
        return quantisation_residual(LogDurations(vals))

    curve = ResidualCurve(nfe_list)
    if model.kind == "det":
        r = pooled_residual(corpus_log_values(model, corpus_val, opts))
        curve.add(model_id, corpus_id, [r] * len(nfe_list))
    else:
        curve.add(model_id, corpus_id, [
            pooled_residual(corpus_log_values(model, corpus_val, step_opts))
            for step_opts in nfe_opts])
    return curve


# ---------------------------------------------------------------------------
# distribution statistics


@dataclass
class DistStats:
    """Per-class duration statistics from at least min_tokens samples."""

    means: dict
    stds: dict
    mode_freqs: dict  # class -> {mode_value: frequency}


def dist_stats(durations_by_class: dict, modes_by_class: dict = None,
               min_tokens: int = MIN_STAT_TOKENS) -> DistStats:
    """Sample mean/std per class, plus nearest-mode frequencies.

    durations_by_class maps class id -> integer array. modes_by_class
    maps class id -> list of linear-domain mode locations for classes
    declared multimodal; each sample is assigned to its nearest mode.
    Classes below min_tokens samples (or empty) are rejected.
    """
    modes_by_class = modes_by_class or {}
    means, stds, freqs = {}, {}, {}
    for cid, durs in durations_by_class.items():
        durs = np.asarray(durs, dtype=np.float64)
        if durs.size == 0:
            raise ValueError(f"class {cid}: no samples")
        if durs.size < min_tokens:
            raise ValueError(
                f"class {cid}: {durs.size} samples, need at least {min_tokens}"
            )
        means[cid] = float(durs.mean())
        stds[cid] = float(durs.std())
        if cid in modes_by_class:
            modes = np.asarray(modes_by_class[cid], dtype=np.float64)
            nearest = np.argmin(np.abs(durs[:, None] - modes[None, :]), axis=1)
            freqs[cid] = {
                float(m): float(np.mean(nearest == j)) for j, m in enumerate(modes)
            }
    return DistStats(means, stds, freqs)


def frames_by_class(corpus: DurationCorpus, frames: dict) -> dict:
    """Pool sampled durations per token class across sentences and reps."""
    buckets = {}
    for s in corpus.sentences:
        for rep_frames in frames[s.sent_id]:
            for tok, d in zip(s.seq.ids, rep_frames):
                buckets.setdefault(int(tok), []).append(int(d))
    return {cid: np.array(v, dtype=np.int64) for cid, v in buckets.items()}


def reference_by_class(corpus: DurationCorpus) -> dict:
    """Pool the corpus's own reference durations per class, as one realisation."""
    return frames_by_class(corpus, {s.sent_id: [s.durations] for s in corpus.sentences})


def declared_modes(spec) -> dict:
    """Linear-domain mode locations of every mixture class in a corpus spec."""
    out = {}
    for cid in spec.mixture_class_ids():
        comps = spec.laws[cid]["components"]
        out[cid] = [float(np.exp(c[1])) for c in comps]
    return out


# ---------------------------------------------------------------------------
# benchmarking


def bench_sampling(model: DurationModel, corpus_val: DurationCorpus,
                   nfe_list=(10, 20), repetitions: int = 5,
                   opts: SampleOptions = None) -> list:
    """Median wall time of a full-corpus sampling pass at each NFE count.

    One untimed warm-up pass per NFE count runs before any timing. Each
    repetition times one pass per NFE count, in an order rotated by one
    every repetition. Rows are dicts with keys model, nfe, median_ms,
    ms_per_nfe (median_ms divided by nfe). ``repetitions`` must be >= 1
    and every NFE count an integer >= 1.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    opts = opts or SampleOptions()
    # SampleOptions rejects an NFE count that is not an integer >= 1
    nfe_opts = [replace(opts, nfe=nfe) for nfe in nfe_list]
    for step_opts in nfe_opts:
        corpus_log_values(model, corpus_val, step_opts)
    times = [[] for _ in nfe_opts]
    for repetition in range(repetitions):
        # the order rotates each repetition, so drift hits every NFE alike
        for k in range(len(nfe_opts)):
            index = (repetition + k) % len(nfe_opts)
            t0 = time.perf_counter()
            corpus_log_values(model, corpus_val, nfe_opts[index])
            times[index].append((time.perf_counter() - t0) * 1000.0)
    rows = []
    for step_opts, nfe_times in zip(nfe_opts, times):
        median_ms = statistics.median(nfe_times)
        rows.append({
            "model": model.kind,
            "nfe": step_opts.nfe,
            "median_ms": median_ms,
            "ms_per_nfe": median_ms / step_opts.nfe,
        })
    return rows


# ---------------------------------------------------------------------------
# report files


def _write_csv(path, header, rows):
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report(curve: ResidualCurve, stats: dict, bench_rows: list, out_dir):
    """Write residual.csv, dist.csv and bench.csv under out_dir.

    stats maps (model_id, corpus_id) -> DistStats. Numbers are written
    with repr-level precision so reruns produce identical bytes (bench
    timings excepted, being wall-clock measurements).
    """
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    for (model_id, corpus_id), values in sorted(curve.residuals.items()):
        for nfe, value in zip(curve.nfe_values, values):
            rows.append([model_id, corpus_id, nfe, repr(value)])
    # aggregate across corpora, one synthetic corpus id per model
    for model_id in sorted({m for m, _ in curve.residuals}):
        for nfe, value in zip(curve.nfe_values, curve.aggregate(model_id)):
            rows.append([model_id, "all", nfe, repr(value)])
    _write_csv(os.path.join(out_dir, "residual.csv"),
               ["model", "corpus", "nfe", "mean_residual"], rows)

    rows = []
    for (model_id, corpus_id), st in sorted(stats.items()):
        for cid in sorted(st.means):
            freqs = st.mode_freqs.get(cid, {})
            freq_text = ";".join(
                f"{mode:g}:{freq!r}" for mode, freq in sorted(freqs.items())
            )
            rows.append([model_id, corpus_id, cid,
                         repr(st.means[cid]), repr(st.stds[cid]), freq_text])
    _write_csv(os.path.join(out_dir, "dist.csv"),
               ["model", "corpus", "class", "mean", "std", "mode_freqs"], rows)

    rows = [
        [r["model"], r["nfe"], f"{r['median_ms']:.3f}", f"{r['ms_per_nfe']:.3f}"]
        for r in bench_rows
    ]
    _write_csv(os.path.join(out_dir, "bench.csv"),
               ["model", "nfe", "median_ms", "ms_per_nfe"], rows)
