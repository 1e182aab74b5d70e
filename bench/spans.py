"""In-memory spans around the calls into each durflow module, and the
per-layer metrics derived from them.

Instrumentation is installed from outside the library by replacing
module attributes and class methods, each under the name its caller
looks it up by (``durflow.cli.load_model`` as well as
``durflow.duration.load_model``), and is undone on exit. Nothing inside
``src/`` knows it is being traced.

A span is ``[name, start, end, parent, info]``: times in seconds from
``time.perf_counter``, ``parent`` the index of the enclosing span (or
-1), ``info`` an optional count such as the rows of a batch.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import weakref

from durflow import cli, data, duration, encoder, evaluation, nn, numerics, training

# tape ops that get their own per-op metric; every other op is "elementwise"
NAMED_OPS = ("conv1d", "layer_norm", "matmul", "take_rows", "concat")
ELEMENTWISE_OPS = ("add", "sub", "mul", "scale", "exp", "log", "relu",
                   "tensor_sum", "mean", "reshape", "permute")
OP_GROUPS = NAMED_OPS + ("elementwise",)

# one entry per params() prefix of an fm model, in params() order
FM_LAYERS = ("encoder.embed", "encoder.conv", "encoder.norm",
             "predictor.noise_proj", "predictor.conv1", "predictor.norm1",
             "predictor.conv2", "predictor.norm2", "predictor.proj",
             "predictor.time", "predictor.time_to_h1", "predictor.time_to_h2")

# (module attribute holders, attribute, span name): every place a caller
# looks the name up, so no call escapes the span
FUNCTION_SPANS = (
    ((data, cli), "generate", "data.generate"),
    ((data, cli), "save", "data.save"),
    ((data, cli), "load", "data.load"),
    ((nn,), "save_params", "nn.save_params"),
    ((nn,), "load_params", "nn.load_params"),
    ((duration, cli), "save_model", "duration.save_model"),
    ((duration, cli), "load_model", "duration.load_model"),
    ((duration, evaluation), "fm_sample_batch", "duration.fm_sample_batch"),
    ((duration, evaluation), "to_frames", "duration.to_frames"),
    ((duration, evaluation), "quantisation_residual", "duration.quantisation_residual"),
    ((evaluation,), "corpus_log_values", "evaluation.corpus_log_values"),
    ((evaluation, cli), "corpus_frames", "evaluation.corpus_frames"),
    ((training, cli), "train_model", "training.train_model"),
    ((cli,), "main", "cli.main"),
)


class Tracer:
    """Span recorder. ``on`` gates recording so traced and untraced
    operations can alternate inside one instrumented run."""

    def __init__(self):
        self.spans = []
        self.on = True
        self._stack = []
        self._ops = []      # backward span name of the innermost running op
        self._layers = []   # name of the innermost running named layer

    def open(self, name, info=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, info])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        """Close span ``index`` and any span left open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == index:
                break

    def top_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def span(self, name, info=None):
        if not self.on:
            yield
            return
        index = self.open(name, info)
        try:
            yield
        finally:
            self.close(index)

    def write(self, path):
        """One JSON array per span: name, start, end, parent, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class StepClock:
    """perf_counter at the end of every ``Adam.step``; always installed,
    since the untraced train step time is the gap between two of them."""

    def __init__(self):
        self.marks = []
        self.rows = 0  # rows fed to the text encoder, i.e. sentences seen


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _rows(ids) -> int:
    shape = getattr(ids, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


@contextlib.contextmanager
def instrument(clock: StepClock, tracer: Tracer = None):
    """Install the step clock and, given a tracer, every span wrapper."""
    patches = _Patches()
    adam_step = numerics.Adam.step
    encoder_call = encoder.TextEncoder.__call__

    def timed_adam_step(opt):
        if tracer is not None and tracer.on:
            index = tracer.open("numerics.adam")
            adam_step(opt)
            tracer.close(index)
            if tracer.top_name() == "training.step":
                tracer.close(tracer._stack[-1])
        else:
            adam_step(opt)
        clock.marks.append(time.perf_counter())

    def counted_encoder(self, ids):
        clock.rows += _rows(ids)
        if tracer is None or not tracer.on:
            return encoder_call(self, ids)
        with tracer.span("encoder", _rows(ids)):
            return encoder_call(self, ids)

    patches.set(numerics.Adam, "step", timed_adam_step)
    patches.set(encoder.TextEncoder, "__call__", counted_encoder)
    try:
        if tracer is not None:
            _install_spans(tracer, patches)
        yield
    finally:
        patches.undo()


def _install_spans(tracer: Tracer, patches: _Patches):
    layer_names = weakref.WeakKeyDictionary()

    def op_wrapper(fn, group):
        fwd, bwd = f"numerics.{group}.fwd", f"numerics.{group}.bwd"

        def wrapped(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer.open(fwd)
            tracer._ops.append(bwd)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._ops.pop()
                tracer.close(index)
        return wrapped

    for group in NAMED_OPS:
        patches.set(numerics, group, op_wrapper(getattr(numerics, group), group))
    for name in ELEMENTWISE_OPS:
        patches.set(numerics, name, op_wrapper(getattr(numerics, name), "elementwise"))

    push = numerics.Tape._push

    def traced_push(tape, out, backward_fn):
        if tracer.on and tracer._ops:
            op_name = tracer._ops[-1]
            layer = tracer._layers[-1] if tracer._layers else None

            def timed_backward(g, fn=backward_fn):
                outer = tracer.open(f"layer.{layer}.bwd") if layer else None
                inner = tracer.open(op_name)
                fn(g)
                tracer.close(inner)
                if outer is not None:
                    tracer.close(outer)
            push(tape, out, timed_backward)
        else:
            push(tape, out, backward_fn)

    patches.set(numerics.Tape, "_push", traced_push)

    def method_span(cls, attr, name):
        orig = cls.__dict__[attr]

        def wrapped(self, *args, **kwargs):
            with tracer.span(name):
                return orig(self, *args, **kwargs)
        patches.set(cls, attr, wrapped)

    method_span(numerics.Tape, "backward", "numerics.backward")
    method_span(duration.FlowPredictor, "__call__", "predictor")
    method_span(duration.DetPredictor, "__call__", "predictor")

    for cls in (nn.Linear, nn.Conv1d, nn.LayerNorm, nn.Embedding, nn.TimeEmbedding):
        orig = cls.__dict__["__call__"]

        def layer_call(self, x, orig=orig):
            name = layer_names.get(self)
            if name is None or not tracer.on:
                return orig(self, x)
            index = tracer.open(f"layer.{name}.fwd")
            tracer._layers.append(name)
            try:
                return orig(self, x)
            finally:
                tracer._layers.pop()
                tracer.close(index)
        patches.set(cls, "__call__", layer_call)

    model_init = duration.DurationModel.__init__

    def named_init(model, *args, **kwargs):
        model_init(model, *args, **kwargs)
        for key in model.params():
            part, layer = key.split(".")[:2]
            layer_names[getattr(getattr(model, part), layer)] = f"{part}.{layer}"
    patches.set(duration.DurationModel, "__init__", named_init)

    for holders, attr, name in FUNCTION_SPANS:
        wrapped = _function_span(tracer, getattr(holders[0], attr), name)
        for holder in holders:
            patches.set(holder, attr, wrapped)

    record = training.record

    class StepRecord:
        """``training.record`` as the train step sees it: the step span
        opens with the tape and closes after ``Adam.step``."""

        def __enter__(self):
            if tracer.on:
                tracer.open("training.step")
            self.inner = record()
            return self.inner.__enter__()

        def __exit__(self, *exc):
            return self.inner.__exit__(*exc)

    patches.set(training, "record", StepRecord)


# span info kept for the counts the metrics need, from a call's args and result
SPAN_INFO = {
    # noise is (B, 1, T): rows and positions per row computed
    "duration.fm_sample_batch": lambda args, result: [args[2].shape[0], args[2].shape[2]],
    # real positions returned
    "evaluation.corpus_log_values": lambda args, result: sum(len(v) for v in result.values()),
}


def _function_span(tracer, fn, name):
    info = SPAN_INFO.get(name, lambda args, result: None)

    def wrapped(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index][4] = info(args, result)
        return result
    return wrapped


# ---------------------------------------------------------------------------
# derivation


def _ancestor_index(spans, name):
    """For each span, the index of its nearest ancestor-or-self named ``name``."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[0] == name else (out[s[3]] if s[3] >= 0 else -1))
    return out


def _dur_ms(s):
    return (s[2] - s[1]) * 1000.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _self_ms(spans, parent_name, child_names):
    """Mean over ``parent_name`` spans of duration minus named direct children."""
    total = {i: _dur_ms(s) for i, s in enumerate(spans) if s[0] == parent_name}
    for s in spans:
        if s[3] in total and s[0] in child_names:
            total[s[3]] -= _dur_ms(s)
    return _mean(list(total.values()))


def per_layer_metrics(tracer: Tracer, timed_ops: int, batch_size: int,
                      trace_overhead: float) -> dict:
    """Per-layer metrics from the recorded spans, ``name -> value`` in the
    units BENCHMARK.json gives them.

    Times are ms per call over the whole traced run, set-up included, so
    layers that a workload's timed loop never reaches (Adam while
    sampling) still report the set-up's figure. ``*.calls`` are calls per
    traced timed operation.
    """
    if tracer._stack:
        tracer.close(tracer._stack[0])
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def per_call(name):
        return _mean([_dur_ms(s) for s in by_name.get(name, ())])

    out = {}
    for group in OP_GROUPS:
        out[f"numerics.{group}.fwd_ms"] = per_call(f"numerics.{group}.fwd")
        out[f"numerics.{group}.bwd_ms"] = per_call(f"numerics.{group}.bwd")
    out["numerics.backward_ms"] = per_call("numerics.backward")
    out["numerics.adam_ms"] = per_call("numerics.adam")

    step_of = _ancestor_index(spans, "training.step")
    steps = len(by_name.get("training.step", ()))
    op_spans = sum(1 for i, s in enumerate(spans)
                   if step_of[i] >= 0 and s[0].startswith("numerics.")
                   and s[0].endswith(".fwd"))
    out["numerics.ops_per_step"] = op_spans / steps if steps else 0.0

    backward_calls = len(by_name.get("numerics.backward", ()))
    for layer in FM_LAYERS:
        out[f"layer.{layer}.fwd_ms"] = per_call(f"layer.{layer}.fwd")
        bwd = sum(_dur_ms(s) for s in by_name.get(f"layer.{layer}.bwd", ()))
        out[f"layer.{layer}.bwd_ms"] = bwd / backward_calls if backward_calls else 0.0

    op_of = _ancestor_index(spans, "bench.op")
    for part in ("encoder", "predictor"):
        calls = sum(1 for i, s in enumerate(spans) if s[0] == part and op_of[i] >= 0)
        out[f"{part}.fwd_ms"] = per_call(part)
        out[f"{part}.calls"] = calls / timed_ops if timed_ops else 0.0

    out["nn.save_params_ms"] = per_call("nn.save_params")
    out["nn.load_params_ms"] = per_call("nn.load_params")
    out["duration.fm_sample_batch_ms"] = per_call("duration.fm_sample_batch")
    out["duration.to_frames_ms"] = per_call("duration.to_frames")
    out["duration.quantisation_residual_ms"] = per_call("duration.quantisation_residual")

    out["evaluation.corpus_log_values_ms"] = per_call("evaluation.corpus_log_values")
    out["evaluation.self_ms"] = _self_ms(
        spans, "evaluation.corpus_log_values",
        {"encoder", "duration.fm_sample_batch"})
    batches = [s[4] for s in by_name.get("duration.fm_sample_batch", ())]
    out["evaluation.rows_per_call"] = _mean([b[0] for b in batches])
    computed = sum(b[0] * b[1] for b in batches)
    real = sum(s[4] for s in by_name.get("evaluation.corpus_log_values", ()))
    out["evaluation.useful_positions"] = real / computed if computed else 0.0

    out["training.self_ms"] = _self_ms(
        spans, "training.step",
        {"encoder", "predictor", "numerics.backward", "numerics.adam"})
    out["training.plan_ms"] = _self_ms(
        spans, "training.train_model", {"training.step"})
    step_rows = [s[4] for i, s in enumerate(spans)
                 if s[0] == "encoder" and step_of[i] >= 0]
    out["training.batch_fill"] = _mean(step_rows) / batch_size

    out["data.generate_ms"] = per_call("data.generate")
    out["data.save_ms"] = per_call("data.save")
    out["data.load_ms"] = per_call("data.load")
    out["cli.sample_self_ms"] = _self_ms(
        spans, "cli.main",
        {"duration.load_model", "data.load", "evaluation.corpus_frames"})
    out["trace_overhead"] = trace_overhead
    return out
