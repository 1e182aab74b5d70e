"""Set-up and the three timed workloads.

Every workload runs in one process as a closed loop with one client:
each operation starts when the previous one has returned. Inputs come
only from the seed: the spont corpus spec, the model seeds and the
sampling seed are all the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from durflow import cli, data, duration, evaluation, training

from spans import Tracer

NFE_LIST = (1, 10, 32)
CLI_NFE = 10
BATCH = 16
LR = 1e-3


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    train_sentences: int
    dims: dict            # DurationModel dimensions; empty means the defaults
    setups: int           # set-ups per run; setup_s is their median
    setup_steps: int      # train_model steps that build the sampling checkpoint
    chunk_steps: int      # steps per timed train_model call
    min_chunks: int       # timed calls always made, whatever --seconds says
    loss_tail: tuple      # timed steps [lo, hi) averaged into train_loss_tail
    min_rounds: int       # sampling rounds (or CLI calls) always made
    cli_reps: int


FULL = Scale(train_sentences=1000, dims={}, setups=3, setup_steps=20,
             chunk_steps=50, min_chunks=4, loss_tail=(100, 200),
             min_rounds=3, cli_reps=5)
# a few seconds per workload; used by the benchmark's own tests
SMOKE = Scale(train_sentences=48,
              dims={"encoder_dim": 8, "hidden": 8, "noise_dim": 4, "time_dim": 8},
              setups=2, setup_steps=3, chunk_steps=4, min_chunks=2,
              loss_tail=(4, 8), min_rounds=1, cli_reps=2)


class SetupError(RuntimeError):
    """Set-up produced something other than what it wrote."""


@dataclass
class Setup:
    train: data.DurationCorpus
    val: data.DurationCorpus
    val_path: str
    checkpoint: str
    model: duration.DurationModel


@dataclass
class Outcome:
    """What a workload measured: named end-to-end metrics and the tally."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit, samples)
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    traced_ops: int = 0
    timings: dict = field(default_factory=dict)   # untraced per-operation ms, in order
    trace_overhead: float = 1.0

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)


def _quiet_cli(argv) -> tuple:
    """durflow.cli.main with its stdout and stderr kept off ours."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def set_up(scale: Scale, seed: int, workdir: str) -> Setup:
    """Corpus files, a short fm training run and its checkpoint, then an
    NFE-1 residual and a one-pass NFE-1 ``durflow sample`` to show that
    the reloaded checkpoint samples."""
    os.makedirs(workdir, exist_ok=True)
    spec = data.CorpusSpec(style="spont", seed=seed,
                           num_sentences=scale.train_sentences)
    corpora = {split: data.generate(spec, split) for split in ("train", "val")}
    for split, corpus in corpora.items():
        path = os.path.join(workdir, f"{split}.durcorpus")
        data.save(corpus, path)
        if data.load(path) != corpus:
            raise SetupError(f"{path} does not load back to the corpus written")
    model = duration.DurationModel("fm", spec.vocab_size, seed=seed, **scale.dims)
    training.train_model(model, corpora["train"], scale.setup_steps,
                         batch_size=BATCH, lr=LR, seed=seed)
    checkpoint = os.path.join(workdir, "model-fm.npz")
    duration.save_model(model, checkpoint)
    loaded = duration.load_model(checkpoint)
    for name, p in model.params().items():
        if not np.array_equal(p.data, loaded.params()[name].data):
            raise SetupError(f"checkpoint parameter {name} changed on reload")
    curve = evaluation.residual_vs_nfe(loaded, corpora["val"], nfe_list=(1,),
                                       opts=duration.SampleOptions(seed=seed))
    if not all(np.isfinite(v) for v in curve.residuals[("fm", "spont")]):
        raise SetupError(f"checkpoint gives a non-finite NFE-1 residual {curve.residuals}")
    val_path = os.path.join(workdir, "val.durcorpus")
    code, err = _quiet_cli(["sample", "--checkpoint", checkpoint, "--corpus", val_path,
                            "--nfe", "1", "--reps", "1", "--seed", str(seed),
                            "--out", os.path.join(workdir, "smoke")])
    if code != 0:
        raise SetupError(f"durflow sample on the new checkpoint exited {code}: {err}")
    return Setup(corpora["train"], corpora["val"], val_path, checkpoint, loaded)


def _percentile(values, q):
    """Nearest-rank percentile, reported only with 10 samples beyond it."""
    ordered = sorted(values)
    if len(ordered) * (1.0 - q) < 10:
        return None
    return ordered[min(len(ordered) - 1, int(np.ceil(q * len(ordered))) - 1)]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _frames_or_error(values: dict, corpus, min_duration: int):
    """Integer frames in corpus order, or the reason the pass is wrong."""
    if set(values) != {s.sent_id for s in corpus.sentences}:
        return None, "sentence ids of the pass differ from the corpus"
    frames = []
    for s in corpus.sentences:
        try:
            f = duration.to_frames(duration.LogDurations(values[s.sent_id]), min_duration)
        except ValueError as exc:
            return None, f"sentence {s.sent_id}: {exc}"
        if f.shape != (len(s.seq),) or f.dtype.kind != "i" or f.min() < min_duration:
            return None, f"sentence {s.sent_id}: malformed frames {f!r}"
        frames.append(f)
    return frames, None


def _median(values):
    return statistics.median(values) if values else None


def _alternate(tracer: Tracer, index: int) -> bool:
    """In a traced run every other operation is traced; returns whether this one is."""
    if tracer is None:
        return False
    tracer.on = index % 2 == 1
    return tracer.on


def _overhead(traced, untraced) -> float:
    if traced and untraced:
        return statistics.median(traced) / statistics.median(untraced)
    return 1.0


# ---------------------------------------------------------------------------
# train-fm-spont


def train_fm_spont(setup: Setup, scale: Scale, seed: int, seconds: float,
                   clock, tracer: Tracer = None) -> Outcome:
    """Chunks of ``train_model`` on a fresh fm model over spont train.

    A step is timed from the previous ``Adam.step`` return (or from the
    start of the call) to its own, so batch planning is part of the
    step that follows it.
    """
    out = Outcome()
    model = duration.DurationModel("fm", setup.train.spec.vocab_size, seed=seed + 1,
                                   **scale.dims)
    losses, step_ms, traced_step_ms = [], [], []
    rows, wall = 0, 0.0
    deadline = time.perf_counter() + seconds
    chunk = 0
    while chunk < scale.min_chunks or time.perf_counter() < deadline:
        traced = _alternate(tracer, chunk)
        clock.marks.clear()
        rows_before = clock.rows
        start = time.perf_counter()
        try:
            with (tracer.span("bench.op") if traced else contextlib.nullcontext()):
                chunk_losses = training.train_model(
                    model, setup.train, scale.chunk_steps, batch_size=BATCH,
                    lr=LR, seed=seed * 1000 + chunk)
        except Exception as exc:  # counted in fail_ratio; the model is unusable after it
            out.attempted += len(clock.marks) + 1
            out.fail(f"train chunk {chunk}: {type(exc).__name__}: {exc}")
            break
        end = time.perf_counter()
        marks = [start] + clock.marks
        times = [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]
        out.attempted += len(chunk_losses)
        for i, loss in enumerate(chunk_losses):
            if not np.isfinite(loss):
                out.fail(f"train chunk {chunk} step {i}: loss {loss!r}")
        if len(times) != scale.chunk_steps:
            out.fail(f"train chunk {chunk}: {len(times)} optimizer steps, "
                     f"expected {scale.chunk_steps}")
        losses.extend(chunk_losses)
        if traced:
            traced_step_ms.extend(times)
            out.traced_ops += len(times)
        else:
            step_ms.extend(times)
            rows += clock.rows - rows_before
            wall += end - start
        chunk += 1

    lo, hi = scale.loss_tail
    p95 = _percentile(step_ms, 0.95)
    out.timings["train_step_ms"] = step_ms
    out.metrics["train_step_ms.p50"] = (_median(step_ms), "ms", len(step_ms))
    out.metrics["train_step_ms.p95"] = (p95, "ms", len(step_ms))
    out.metrics["train_sent_per_s"] = (rows / wall if wall else None, "1/s", len(step_ms))
    out.metrics["train_loss_tail"] = (float(np.mean(losses[lo:hi])), "loss", hi - lo)
    out.digests[f"loss_steps_1_{hi}"] = _sha(np.asarray(losses[:hi]))
    out.trace_overhead = _overhead(traced_step_ms, step_ms)
    return out


# ---------------------------------------------------------------------------
# sample-nfe-spont


def sample_nfe_spont(setup: Setup, scale: Scale, seed: int, seconds: float,
                     clock, tracer: Tracer = None) -> Outcome:
    """Rounds of one ``corpus_log_values`` pass per NFE in NFE_LIST, the
    order rotated each round so drift hits every NFE alike."""
    out = Outcome()
    times = {nfe: [] for nfe in NFE_LIST}
    traced_nfe10 = []
    reference = {}
    residual = None
    passes, pass_seconds = 0, 0.0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < scale.min_rounds or time.perf_counter() < deadline:
        traced = _alternate(tracer, rounds)
        for k in range(len(NFE_LIST)):
            nfe = NFE_LIST[(rounds + k) % len(NFE_LIST)]
            opts = duration.SampleOptions(nfe=nfe, seed=seed)
            out.attempted += 1
            start = time.perf_counter()
            try:
                with (tracer.span("bench.op") if traced else contextlib.nullcontext()):
                    values = evaluation.corpus_log_values(setup.model, setup.val, opts)
            except Exception as exc:  # counted in fail_ratio
                out.fail(f"nfe {nfe}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            frames, error = _frames_or_error(values, setup.val, opts.min_duration)
            if error:
                out.fail(f"nfe {nfe}: {error}")
                continue
            log_values = np.concatenate([values[s.sent_id] for s in setup.val.sentences])
            fingerprint = _sha(log_values, np.concatenate(frames))
            if nfe == CLI_NFE:
                residual = duration.quantisation_residual(duration.LogDurations(log_values))
            if nfe not in reference:
                reference[nfe] = fingerprint
                out.digests[f"frames_nfe{nfe}"] = fingerprint
            elif fingerprint != reference[nfe]:
                out.fail(f"nfe {nfe}: pass differs from the first pass at the same seed")
                continue
            if traced:
                out.traced_ops += 1
                if nfe == CLI_NFE:
                    traced_nfe10.append(elapsed * 1000.0)
            else:
                times[nfe].append(elapsed * 1000.0)
                passes += 1
                pass_seconds += elapsed
        rounds += 1

    for nfe in NFE_LIST:
        out.timings[f"sample_nfe{nfe}_ms"] = times[nfe]
        out.metrics[f"sample_nfe{nfe}_ms.p50"] = (
            _median(times[nfe]), "ms", len(times[nfe]))
    out.metrics["sample_sent_per_s"] = (
        passes * len(setup.val) / pass_seconds if passes else None, "1/s", passes)
    out.metrics["residual_nfe10"] = (residual, "frames", len(setup.val))
    out.trace_overhead = _overhead(traced_nfe10, times[CLI_NFE])
    return out


# ---------------------------------------------------------------------------
# sample-cli-reps


def _check_durations(path, corpus, reps, seed):
    """The text of a durations.txt, and the reason it is malformed if it is."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    header = (f"#durations model=fm nfe={CLI_NFE} temperature=0.667 seed={seed} "
              f"min_duration=0 reps={reps} sentences={len(corpus)}")
    if not lines or lines[0] != header:
        return text, f"header {lines[:1]!r} is not {header!r}"
    rows = lines[1:]
    if len(rows) != len(corpus) * reps:
        return text, f"{len(rows)} rows, expected {len(corpus) * reps}"
    expected = ((s, rep) for s in corpus.sentences for rep in range(reps))
    for lineno, (row, (s, rep)) in enumerate(zip(rows, expected), start=2):
        fields = row.split(" ")
        try:
            numbers = [int(x) for x in fields]
        except ValueError:
            return text, f"line {lineno}: non-integer field"
        if numbers[:2] != [s.sent_id, rep] or len(numbers) != 2 + len(s.seq):
            return text, f"line {lineno}: expected sentence {s.sent_id} rep {rep}"
        if min(numbers[2:]) < 0:
            return text, f"line {lineno}: negative duration"
    return text, None


def sample_cli_reps(setup: Setup, scale: Scale, seed: int, seconds: float,
                    clock, tracer: Tracer = None) -> Outcome:
    """In-process ``durflow sample --nfe 10 --reps <cli_reps>`` calls on the
    set-up's checkpoint and validation corpus file."""
    out = Outcome()
    out_dir = os.path.join(os.path.dirname(setup.checkpoint), "cli")
    argv = ["sample", "--checkpoint", setup.checkpoint, "--corpus", setup.val_path,
            "--nfe", str(CLI_NFE), "--reps", str(scale.cli_reps),
            "--seed", str(seed), "--out", out_dir]
    path = os.path.join(out_dir, "durations.txt")
    call_ms, traced_ms = [], []
    reference = None
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < scale.min_rounds or time.perf_counter() < deadline:
        traced = _alternate(tracer, calls)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        calls += 1
        out.attempted += 1
        start = time.perf_counter()
        try:
            with (tracer.span("bench.op") if traced else contextlib.nullcontext()):
                code, err = _quiet_cli(argv)
        except Exception as exc:  # counted in fail_ratio
            out.fail(f"durflow sample raised {type(exc).__name__}: {exc}")
            continue
        elapsed = (time.perf_counter() - start) * 1000.0
        if code != 0:
            out.fail(f"durflow sample exited {code}: {err}")
            continue
        text, problem = _check_durations(path, setup.val, scale.cli_reps, seed)
        if problem:
            out.fail(f"durations.txt: {problem}")
            continue
        if reference is None:
            reference = text
            out.digests["durations_txt"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        elif text != reference:
            out.fail("durations.txt differs from the first call at the same seed")
            continue
        (traced_ms if traced else call_ms).append(elapsed)
        out.traced_ops += traced

    realisations = len(setup.val) * scale.cli_reps
    out.timings["cli_sample_ms"] = call_ms
    out.metrics["cli_sample_ms.p50"] = (_median(call_ms), "ms", len(call_ms))
    out.metrics["cli_real_per_s"] = (
        realisations * len(call_ms) / (sum(call_ms) / 1000.0) if call_ms else None,
        "1/s", len(call_ms))
    out.trace_overhead = _overhead(traced_ms, call_ms)
    return out


WORKLOADS = {
    "train-fm-spont": train_fm_spont,
    "sample-nfe-spont": sample_nfe_spont,
    "sample-cli-reps": sample_cli_reps,
}

# the end-to-end metric each workload reports under a name shared by all
# workloads, so every BENCHMARK.json metric exists on every workload
SHARED_NAMES = {
    "train-fm-spont": {"op_ms.p50": "train_step_ms.p50",
                       "items_per_s": "train_sent_per_s"},
    "sample-nfe-spont": {"op_ms.p50": "sample_nfe10_ms.p50",
                         "items_per_s": "sample_sent_per_s"},
    "sample-cli-reps": {"op_ms.p50": "cli_sample_ms.p50",
                        "items_per_s": "cli_real_per_s"},
}
