"""Training loops for both duration model kinds.

Sentences are grouped by exact length so every batch is rectangular
and needs no padding; batch order is reshuffled each epoch from a
dedicated generator, so a (corpus, seed, steps) triple always produces
the same loss trajectory bit for bit.

Training is mixed precision (Micikevicius et al., arXiv 1710.03740).
The model's own parameters are the float64 master weights: Adam's
moments and update and the checkpoints stay float64. Each step's loss
runs forward and backward in TRAINING_DTYPE on a working copy of the
model, made once per ``train_model`` call, and the gradients stay in
that dtype, on the copy. ``Adam.step`` reads them block by block from
there, updates the masters, writes them back into the copy's data and
then drops the gradients (``numerics.Adam``'s ``working``); the
masters never hold one. The copy lives for one call, so a parameter
changed between two calls shows in the second.
"""

from __future__ import annotations

import contextlib

import numpy as np

from durflow import nn
from durflow import numerics as nm
from durflow.duration import DurationModel, log_targets, loss
from durflow.data import DurationCorpus, _is_int, _is_real, zero_allowed
from durflow.files import atomic_write
from durflow.numerics import Adam, record

# defaults of both train_model and `durflow train`
BATCH_SIZE = 16
LEARNING_RATE = 1e-3
BATCH_STREAM = 11
NOISE_STREAM = 12
# the dtype each step's forward and backward pass run in
TRAINING_DTYPE = np.float32


def _prepare(corpus: DurationCorpus) -> list:
    """The corpus's length groups as lists of (ids, log-target) pairs.

    One log_targets pass runs over the groups laid end to end; a group
    of n sentences of length T is then one (n, T) block of it, and its
    pairs are the block's rows.
    """
    groups = corpus.length_groups()
    ids = np.concatenate([s.seq.ids for group in groups for s in group])
    durations = np.concatenate([s.durations for group in groups for s in group])
    targets = log_targets(durations, zero_allowed(ids))
    prepared, lo = [], 0
    for group in groups:
        hi = lo + len(group) * len(group[0].seq)
        shape = (len(group), -1)
        prepared.append(list(zip(ids[lo:hi].reshape(shape), targets[lo:hi].reshape(shape))))
        lo = hi
    return prepared


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


def check_options(steps, batch_size, lr):
    """Raise ValueError naming the first bad one of train_model's steps
    and batch_size (integers >= 1) and lr (a finite real > 0)."""
    for name, value in (("steps", steps), ("batch_size", batch_size)):
        if not _is_int(value) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not (_is_real(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")


def train_model(model: DurationModel, corpus: DurationCorpus, steps: int,
                batch_size: int = BATCH_SIZE, lr: float = LEARNING_RATE, seed: int = 0,
                loss_path=None) -> np.ndarray:
    """Run Adam for `steps` updates; returns the per-step loss trajectory.

    Each loss, and so each returned value, is computed in
    TRAINING_DTYPE on the call's working copy; the updates land in the
    model's float64 parameters, which hold no gradients after the call.

    Optionally streams a `step,loss` CSV into a temporary file beside
    loss_path that replaces loss_path once every step has run, so an
    aborted run leaves the previous file, or none. A non-finite loss
    aborts with a diagnostic before its step changes any parameter; bad
    options (``check_options``) and a corpus with no sentences raise
    ValueError before any step.
    """
    check_options(steps, batch_size, lr)
    if not corpus.sentences:
        raise ValueError(f"the {corpus.spec.style} {corpus.split} corpus of seed "
                         f"{corpus.spec.seed} has no sentences to train on")
    nm.keep_freed_memory()
    groups = _prepare(corpus)
    batch_rng = np.random.default_rng(np.random.SeedSequence([seed, BATCH_STREAM]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, NOISE_STREAM]))
    work = nn.cast_copy(model, TRAINING_DTYPE)
    opt = Adam(model.params(), lr=lr, working=work.params())
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
                    batch_loss = loss(work, ids, targets, noise_rng)
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
