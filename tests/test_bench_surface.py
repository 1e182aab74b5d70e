"""The library names the benchmark imports and patches still exist, and
the library calls its workloads make still pass their checks.

``bench/spans.py`` wraps durflow functions, methods and layer calls by
name, ``bench/run.py`` reads the machine context through durflow, and
``bench/workloads.py`` calls the library and checks what it returns. A
rename, deletion or changed result of any of them would otherwise show
only when the benchmark runs. These checks run the benchmark's own code
in process, in about a second.
"""

import importlib
import os
import sys

import numpy as np
import pytest

from durflow import evaluation
from durflow import numerics as nm
from durflow.data import CorpusSpec, generate
from durflow.duration import DurationModel, SampleOptions, loss
from test_evaluation import blas_threads_found

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, BENCH)
    try:
        yield (importlib.import_module("spans"), importlib.import_module("run"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(BENCH)


def test_instrumentation_installs_runs_and_uninstalls(bench_modules):
    spans, _, _ = bench_modules
    originals = {name: getattr(nm, name) for name in spans.NAMED_OPS + spans.ELEMENTWISE_OPS}
    clock, tracer = spans.StepClock(), spans.Tracer()
    with spans.instrument(clock, tracer):
        model = DurationModel("fm", vocab_size=6, seed=0,
                              encoder_dim=8, hidden=10, noise_dim=4, time_dim=8)
        opt = nm.Adam(model.params())
        ids = np.array([[3, 0, 4, 0], [5, 0, 1, 0]])
        with nm.record() as tape:
            value = loss(model, ids, np.zeros((2, 4)), np.random.default_rng(0))
        tape.backward(value)
        opt.step()
    names = {s[0] for s in tracer.spans}
    assert {"encoder", "predictor", "numerics.conv1d.fwd", "numerics.conv1d.bwd",
            "layer.predictor.conv1.fwd", "numerics.backward", "numerics.adam"} <= names
    assert clock.rows == 2 and len(clock.marks) == 1
    for name, fn in originals.items():
        assert getattr(nm, name) is fn, name


@pytest.mark.parametrize("kind", ["det", "fm"])
def test_sampling_pass_runs_traced(bench_modules, monkeypatch, kind):
    # every benchmark run wraps TextEncoder.__call__ as (self, ids), and a
    # traced run every layer's __call__ as (self, x): a sampling pass of
    # either kind must run under both
    spans, _, _ = bench_modules
    # one worker, so every span opens and closes on the caller's thread
    monkeypatch.setattr(nm, "one_blas_thread", lambda: blas_threads_found(1))
    spec = CorpusSpec(style="spont", seed=1, num_sentences=6, min_phones=2, max_phones=4)
    corpus = generate(spec, "train")
    clock, tracer = spans.StepClock(), spans.Tracer()
    with spans.instrument(clock, tracer):
        model = DurationModel(kind, spec.vocab_size, seed=0,
                              encoder_dim=8, hidden=10, noise_dim=4, time_dim=8)
        frames = evaluation.corpus_frames(model, corpus, SampleOptions(nfe=2), reps=2)
    assert frames.keys() == {s.sent_id for s in corpus.sentences}
    for s in corpus.sentences:
        assert [f.shape for f in frames[s.sent_id]] == [(len(s.seq),)] * 2
    names = {s[0] for s in tracer.spans}
    assert {"evaluation.corpus_frames", "encoder", "numerics.conv1d.fwd",
            "numerics.layer_norm.fwd"} <= names
    # the sampler's span reads its rows and positions from the noise it
    # is passed third: 2 reps of the 6 sentences packed into one call
    samples = [s[4] for s in tracer.spans if s[0] == "duration.fm_sample_batch"]
    assert samples == ([[2, 50]] if kind == "fm" else [])


def test_machine_context(bench_modules):
    _, run, _ = bench_modules
    ctx = run.machine_context()
    assert ctx["nproc"] >= 1 and ctx["blas_threads"] >= 1


def test_every_workload_runs_its_checked_calls(bench_modules, tmp_path):
    # set-up and one pass of each workload at the smoke scale: every
    # output check a workload makes (frames, residuals, digests,
    # durations.txt) must pass
    spans, _, workloads = bench_modules
    seed = 1
    clock = spans.StepClock()
    with spans.instrument(clock):
        setup = workloads.set_up(workloads.SMOKE, seed, str(tmp_path))
        outcomes = {name: workload(setup, workloads.SMOKE, seed, 0, clock)
                    for name, workload in workloads.WORKLOADS.items()}
    for name, outcome in outcomes.items():
        assert outcome.attempted >= 1, name
        assert outcome.failed == 0, (name, outcome.failures)
