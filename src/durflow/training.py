"""Training loops for both duration model kinds.

Sentences are grouped by exact length so every batch is rectangular
and needs no padding; batch order is reshuffled each epoch from a
dedicated generator, so a (corpus, seed, steps) triple always produces
the same loss trajectory bit for bit.
"""

from __future__ import annotations

import contextlib

import numpy as np

from durflow import numerics as nm
from durflow.duration import DurationModel, log_targets, loss
from durflow.data import DurationCorpus, zero_allowed
from durflow.files import atomic_write
from durflow.numerics import Adam, record

# defaults of both train_model and `durflow train`
BATCH_SIZE = 16
LEARNING_RATE = 1e-3
BATCH_STREAM = 11
NOISE_STREAM = 12


def _prepare(corpus: DurationCorpus) -> list:
    """The corpus's length groups as lists of (ids, log-target) pairs."""
    return [[(s.seq.ids, log_targets(s.durations, zero_allowed(s.seq.ids))) for s in group]
            for group in corpus.length_groups()]


def _batch_plan(groups, batch_size, rng):
    """One epoch of batches: shuffle within groups, then shuffle batches."""
    batches = []
    for group in groups:
        order = rng.permutation(len(group))
        for lo in range(0, len(group), batch_size):
            chunk = [group[i] for i in order[lo:lo + batch_size]]
            ids = np.stack([c[0] for c in chunk])
            targets = np.stack([c[1] for c in chunk])
            batches.append((ids, targets))
    rng.shuffle(batches)
    return batches


def train_model(model: DurationModel, corpus: DurationCorpus, steps: int,
                batch_size: int = BATCH_SIZE, lr: float = LEARNING_RATE, seed: int = 0,
                loss_path=None) -> np.ndarray:
    """Run Adam for `steps` updates; returns the per-step loss trajectory.

    Optionally streams a `step,loss` CSV into a temporary file beside
    loss_path that replaces loss_path once every step has run, so an
    aborted run leaves the previous file, or none. A non-finite loss
    aborts with a diagnostic before its step changes any parameter; a
    corpus with no sentences raises ValueError before any step.
    """
    if not corpus.sentences:
        raise ValueError(f"the {corpus.spec.style} {corpus.split} corpus of seed "
                         f"{corpus.spec.seed} has no sentences to train on")
    nm.keep_freed_memory()
    groups = _prepare(corpus)
    batch_rng = np.random.default_rng(np.random.SeedSequence([seed, BATCH_STREAM]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, NOISE_STREAM]))
    opt = Adam(model.params(), lr=lr)
    losses = np.empty(steps)

    with (atomic_write(loss_path) if loss_path else contextlib.nullcontext()) as writer:
        if writer:
            writer.write("step,loss\n")
        step = 0
        while step < steps:
            for ids, targets in _batch_plan(groups, batch_size, batch_rng):
                if step >= steps:
                    break
                with record() as tape:
                    batch_loss = loss(model, ids, targets, noise_rng)
                loss_value = batch_loss.item()
                if not np.isfinite(loss_value):
                    raise FloatingPointError(f"loss became non-finite at step {step}")
                tape.backward(batch_loss)
                opt.step()
                losses[step] = loss_value
                if writer:
                    writer.write(f"{step},{loss_value!r}\n")
                step += 1
    model.trained_steps += steps
    return losses
