"""Duration models: deterministic regression and conditional flow matching.

Both models share the same convolutional backbone over encoder outputs
(conv -> ReLU -> layer norm -> conv -> ReLU -> layer norm -> pointwise
projection to one value per position) and both work in the natural-log
domain. The deterministic head regresses the conditional mean with MSE.
The flow-matching head learns a vector field v(x_t, t, cond) along the
optimal-transport path

    x_t = (1 - (1 - sigma) t) x0 + t x1,      u_t = x1 - (1 - sigma) x0,

with x0 standard normal and x1 the log-domain reference durations;
sampling integrates dx/dt = v with Euler steps from t=0 to t=1.

:func:`loss` is the one training objective of both heads, on a batch of
equal-length sentences; training runs it and the gradient checks test
it. :func:`fm_sample_batch` is the one sampler: it takes the encoder
output of (B, T) token ids, one sequence being a batch of one, or of
sentences of unequal length packed back to back along T with their
lengths, and the noise to start from, which corpus-level sampling draws
from one stream per sentence and realisation (:mod:`durflow.evaluation`).

Log-domain targets: positions that may legitimately have zero frames
(blanks, pauses) use ln(d + 0.01) so the target stays finite; all other
positions require d >= 1 and use ln(d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from durflow import numerics as nm
from durflow import nn
from durflow.data import _is_int, round_half_away
from durflow.encoder import TextEncoder, ENCODER_DIM
from durflow.nn import CheckpointFormatError
from durflow.numerics import Tensor

OT_SIGMA = 1e-4
LOG_FLOOR = 1e-2
HIDDEN_CHANNELS = 280
NOISE_CHANNELS = 32
TIME_DIM = 64
MODEL_KINDS = ("det", "fm")
# the keyword arguments of DurationModel that a checkpoint's 'dims' holds
DIM_KEYS = ("encoder_dim", "hidden", "noise_dim", "time_dim")


@dataclass
class LogDurations:
    """Per-position natural-log durations."""

    values: Tensor

    def __post_init__(self):
        if not isinstance(self.values, Tensor):
            self.values = Tensor(self.values)


@dataclass
class SampleOptions:
    nfe: int = 10
    temperature: float = 0.667
    seed: int = 0
    min_duration: int = 0

    def __post_init__(self):
        if self.nfe < 1:
            raise ValueError(f"nfe must be >= 1, got {self.nfe}")
        if not 0 <= self.temperature < np.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.min_duration not in (0, 1):
            raise ValueError(f"min_duration must be 0 or 1, got {self.min_duration}")


def log_targets(durations, zero_allowed) -> np.ndarray:
    """Map integer frame counts to log-domain regression targets.

    zero_allowed positions use ln(d + 0.01); the rest must satisfy
    d >= 1 and use ln(d).
    """
    d = np.asarray(durations, dtype=np.float64)
    za = np.asarray(zero_allowed, dtype=bool)
    if np.any((~za) & (d < 1)):
        raise ValueError("zero duration at a position that does not allow zero")
    return np.where(za, np.log(d + LOG_FLOOR), np.log(np.maximum(d, 1.0)))


# ---------------------------------------------------------------------------
# predictors


class DetPredictor(nn.Module):
    """Backbone ending in one scalar per position: the expected log-duration."""

    def __init__(self, cond_dim: int, hidden: int, rng: np.random.Generator):
        self.conv1 = nn.Conv1d(cond_dim, hidden, 3, rng)
        self.norm1 = nn.LayerNorm(hidden)
        self.conv2 = nn.Conv1d(hidden, hidden, 3, rng)
        self.norm2 = nn.LayerNorm(hidden)
        self.proj = nn.Conv1d(hidden, 1, 1, rng)

    def __call__(self, cond: Tensor) -> Tensor:
        """cond (B, D, T) -> (B, 1, T)."""
        h = self.norm1(nm.relu(self.conv1(cond)))
        h = self.norm2(nm.relu(self.conv2(h)))
        return self.proj(h)


class FlowPredictor(nn.Module):
    """Vector-field head v(x_t, t, cond) for flow-matching durations.

    The noisy durations x_t enter through a pointwise projection whose
    output is concatenated with the conditioning channels; an embedding
    of the flow time t is added to both conv-block activations before
    their ReLU.
    """

    def __init__(self, cond_dim: int, hidden: int, noise_dim: int, time_dim: int,
                 rng: np.random.Generator):
        self.cond_dim = cond_dim
        self.noise_proj = nn.Conv1d(1, noise_dim, 1, rng)
        self.conv1 = nn.Conv1d(cond_dim + noise_dim, hidden, 3, rng)
        self.norm1 = nn.LayerNorm(hidden)
        self.conv2 = nn.Conv1d(hidden, hidden, 3, rng)
        self.norm2 = nn.LayerNorm(hidden)
        self.proj = nn.Conv1d(hidden, 1, 1, rng)
        self.time = nn.TimeEmbedding(time_dim, rng)
        self.time_to_h1 = nn.Linear(time_dim, hidden, rng)
        self.time_to_h2 = nn.Linear(time_dim, hidden, rng)

    def __call__(self, x: Tensor, t, cond: Tensor) -> Tensor:
        """x (B, 1, T), t scalar or (B,), cond (B, D, T) -> (B, 1, T)."""
        batch = cond.data.shape[0]
        t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (batch,))
        emb = self.time(t_arr)  # (B, time_dim)
        h = self.conv1(nm.concat([cond, self.noise_proj(x)], axis=1))
        h = nm.add(h, nm.unsqueeze(self.time_to_h1(emb), 2))
        h = self.norm1(nm.relu(h))
        h = nm.add(self.conv2(h), nm.unsqueeze(self.time_to_h2(emb), 2))
        h = self.norm2(nm.relu(h))
        return self.proj(h)

    def condition(self, cond: Tensor, lengths=None) -> tuple:
        """Everything of conv1 that does not depend on x, for one batch of cond.

        Convolution is linear in its input channels, so conv1 over
        concat(cond, noise_proj(x)) is conv1 over the cond channels, bias
        included, plus conv1 over the noise channels without bias. The
        pointwise noise_proj (weight P, bias b) folds into the second
        part: with W conv1's kernel slice for the noise channels, it is
        x convolved with the one-channel kernel K[o, j] = sum_c W[o, c, j] P[c],
        plus the bias term E[o, j] = sum_c W[o, c, j] b[c] convolved with
        ones that, like noise_proj's output, are zero-padded, so the
        term differs at the two edges of every sequence. K and E are
        summed in float64, then cast to the parameters' dtype.

        ``lengths`` are the lengths of the sequences packed along T, as
        ``nm.conv1d`` takes them (None: one sequence per row). Returns
        the pair (part, kernel). ``part`` is the (hidden, B*T)
        channel-major matrix of conv1 over the cond channels plus its
        bias plus the bias term; ``kernel`` is K as a (hidden, 1, 3)
        Tensor. Both are taken from the parameters as they are now.
        """
        weight = self.conv1.weight.data
        dtype = weight.dtype
        proj = np.stack([self.noise_proj.weight.data[:, 0, 0], self.noise_proj.bias.data])
        # (hidden, 2, 3): row 0 of each output channel is K, row 1 is E
        folded = (proj.astype(np.float64) @ weight[:, self.cond_dim:]).astype(dtype)
        ones = np.ones((1, 1, cond.data.shape[-1]), dtype=dtype)
        edge_part = nm.conv1d(Tensor(ones), Tensor(folded[:, 1:]),
                              Tensor(np.zeros(len(weight), dtype=dtype)), lengths)
        part = nm.conv1d(cond, Tensor(weight[:, :self.cond_dim]), self.conv1.bias,
                         lengths).data
        part += edge_part.data
        # conv1d's output is channel-major in memory, so this is a view
        part = part.transpose(1, 0, 2).reshape(len(weight), -1)
        return part, Tensor(np.ascontiguousarray(folded[:, :1]))


class DurationModel(nn.Module):
    """A text encoder plus one duration head, with training metadata."""

    def __init__(self, kind: str, vocab_size: int, seed: int = 0,
                 encoder_dim: int = ENCODER_DIM, hidden: int = HIDDEN_CHANNELS,
                 noise_dim: int = NOISE_CHANNELS, time_dim: int = TIME_DIM):
        if kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {kind!r}")
        self.kind = kind
        self.vocab_size = vocab_size
        self.seed = seed
        self.dims = {"encoder_dim": encoder_dim, "hidden": hidden,
                     "noise_dim": noise_dim, "time_dim": time_dim}
        rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        self.encoder = TextEncoder(vocab_size, rng, dim=encoder_dim)
        if kind == "det":
            self.predictor = DetPredictor(encoder_dim, hidden, rng)
        else:
            self.predictor = FlowPredictor(encoder_dim, hidden, noise_dim, time_dim, rng)
        self.trained_steps = 0

    def predictor_param_count(self) -> int:
        return nn.param_count(self.predictor)


def save_model(model: DurationModel, path):
    meta = {
        "kind": model.kind,
        "vocab_size": model.vocab_size,
        "seed": model.seed,
        "dims": model.dims,
        "trained_steps": model.trained_steps,
    }
    nn.save_params(path, model.params(), meta)


def _check_meta(path, meta: dict):
    """Raise CheckpointFormatError naming the file and key of any
    malformed metadata."""
    def bad(message):
        return CheckpointFormatError(f"{path}: checkpoint metadata {message}")

    for key in ("kind", "vocab_size", "seed", "dims", "trained_steps"):
        if key not in meta:
            raise bad(f"lacks '{key}'")
    if meta["kind"] not in MODEL_KINDS:
        raise bad(f"'kind' must be one of {MODEL_KINDS}, got {meta['kind']!r}")
    for key, low in (("vocab_size", 1), ("seed", 0), ("trained_steps", 0)):
        if not _is_int(meta[key]) or meta[key] < low:
            raise bad(f"'{key}' must be an integer >= {low}, got {meta[key]!r}")
    dims = meta["dims"]
    if not isinstance(dims, dict) or set(dims) != set(DIM_KEYS):
        raise bad(f"'dims' must be an object with the keys {list(DIM_KEYS)}, got {dims!r}")
    for key in DIM_KEYS:
        if not _is_int(dims[key]) or dims[key] < 1:
            raise bad(f"'dims.{key}' must be a positive integer, got {dims[key]!r}")


def load_model(path) -> DurationModel:
    """Read a checkpoint written by :func:`save_model`. Any malformed
    checkpoint raises CheckpointFormatError naming the file."""
    arrays, meta = nn.load_params(path)
    _check_meta(path, meta)
    try:
        model = DurationModel(meta["kind"], meta["vocab_size"], seed=meta["seed"],
                              **meta["dims"])
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    params = model.params()
    if set(params) != set(arrays):
        missing = sorted(set(params) ^ set(arrays))[:4]
        raise CheckpointFormatError(f"{path}: checkpoint parameter mismatch: {missing}")
    for name, p in params.items():
        array = arrays[name]
        where = f"{path}: checkpoint parameter '{name}'"
        if array.dtype.kind != "f":
            raise CheckpointFormatError(
                f"{where} has dtype {array.dtype}, not a real floating dtype")
        if p.data.shape != array.shape:
            raise CheckpointFormatError(f"{path}: checkpoint shape mismatch for '{name}'")
        if not np.all(np.isfinite(array)):
            raise CheckpointFormatError(f"{where} holds a non-finite value")
        p.data[...] = array
    model.trained_steps = meta["trained_steps"]
    return model


# ---------------------------------------------------------------------------
# loss


def cfm_pair(x1, x0, t, sigma: float = OT_SIGMA):
    """Point on the optimal-transport path and its target vector field.

    x_t = (1 - (1 - sigma) t) x0 + t x1 and u_t = x1 - (1 - sigma) x0.
    Works elementwise; t may be a scalar or broadcastable array.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    x_t = (1.0 - (1.0 - sigma) * t) * x0 + t * x1
    u_t = x1 - (1.0 - sigma) * x0
    u_t = np.broadcast_to(u_t, x_t.shape).copy()
    return x_t, u_t


def loss(model: DurationModel, ids, targets, rng: np.random.Generator) -> Tensor:
    """Training loss of a batch of B equal-length sentences.

    ids are (B, T) interleaved token ids and targets the (B, T) log-domain
    reference durations. A 'det' model returns the mean squared error of
    its predictions; rng is not used. An 'fm' model draws t ~ U[0, 1] per
    sentence and then x0 ~ N(0, I) per position, in that order, and
    returns the mean squared error of its field against u_t at x_t.
    """
    ids = np.asarray(ids)
    targets = np.asarray(targets, dtype=np.float64)
    if ids.ndim != 2 or targets.shape != ids.shape:
        raise ValueError(f"ids {ids.shape} and targets {targets.shape} must both be (B, T)")
    if ids.size == 0:
        raise ValueError("empty batch: no positions to average over")
    batch, t_len = ids.shape
    x1 = targets.reshape(batch, 1, t_len)
    cond = model.encoder(ids)  # (B, D, T)
    if model.kind == "det":
        pred, goal = model.predictor(cond), x1
    else:
        t = rng.uniform(size=batch)
        x0 = rng.standard_normal((batch, 1, t_len))
        x_t, goal = cfm_pair(x1, x0, t[:, None, None])
        pred = model.predictor(Tensor(x_t), t, cond)
    diff = nm.sub(pred, Tensor(goal))
    return nm.scale(nm.tensor_sum(nm.mul(diff, diff)), 1.0 / ids.size)


# ---------------------------------------------------------------------------
# sampling


def fm_sample_batch(model: DurationModel, cond: Tensor, noise: np.ndarray,
                    nfe: int, lengths=None) -> np.ndarray:
    """Euler-integrate the learned field for a batch; returns x at t=1.

    cond is the (B, D, T) encoder output and noise the t=0 state of R
    realisations of it stacked rep-major, (R*B, 1, T): row r*B + b starts
    realisation r of row b. R is the rows of noise over the rows of
    cond; any other shape raises ValueError. ``lengths``, when given,
    are the lengths of sentences packed back to back along T, the same
    in every row; each sentence then runs as if it were sampled alone
    (None: each row is one sentence). Each of the nfe >= 1 steps
    evaluates the field at t = i/nfe and advances by 1/nfe.

    What depends on neither x nor the step is computed once per call:
    ``FlowPredictor.condition`` of cond, and the two time rows of every
    grid point, the second with conv2's bias added. A step convolves x
    with the folded one-channel kernel, the first time row as its bias,
    adds the conditioning part to every realisation in place, without a
    copy per realisation, and runs relu -> norm1 -> conv2, with bias the
    second time row -> relu -> norm2 -> proj. Nothing outlives the
    call, so a change to the parameters shows in the next call.

    The network runs in the dtype of the model's parameters (float32
    for the copy that corpus-level sampling makes): the time rows are
    cast to it once per call and x at every step's input. The state x
    itself stays float64, so the Euler sum accumulates in float64.
    """
    batch, _, t_len = cond.data.shape
    x = np.asarray(noise, dtype=np.float64)
    if not (x.ndim == 3 and x.shape[1:] == (1, t_len)
            and 0 < batch <= x.shape[0] and x.shape[0] % batch == 0):
        raise ValueError(f"noise {x.shape} must stack R >= 1 realisations (R*B, 1, T) "
                         f"of cond {cond.data.shape}")
    if nfe < 1:
        raise ValueError(f"nfe must be >= 1, got {nfe}")
    reps = x.shape[0] // batch
    predictor = model.predictor
    conv2 = predictor.conv2
    dtype = predictor.conv1.weight.data.dtype
    part, kernel = predictor.condition(cond, lengths)  # (hidden, B*T)
    emb = predictor.time(np.arange(nfe) / nfe)  # (nfe, time_dim)
    rows1 = predictor.time_to_h1(emb).data.astype(dtype, copy=False)  # (nfe, hidden)
    rows2 = predictor.time_to_h2(emb).data.astype(dtype, copy=False) + conv2.bias.data
    dt = 1.0 / nfe
    for i in range(nfe):
        # each time shift rides on its block's convolution as the bias
        h = nm.conv1d(Tensor(x.astype(dtype, copy=False)), kernel, Tensor(rows1[i]),
                      lengths)
        # conv1d's output is channel-major in memory, so this is a view
        per_rep = h.data.transpose(1, 0, 2).reshape(len(part), reps, -1)
        per_rep += part[:, None, :]
        h = predictor.norm1(nm.relu(h))
        h = nm.conv1d(h, conv2.weight, Tensor(rows2[i]), lengths)
        h = predictor.norm2(nm.relu(h))
        x = x + dt * predictor.proj(h).data
    return x


# ---------------------------------------------------------------------------
# quantisation and length regulation


def _check_finite(values: np.ndarray, what: str):
    bad = ~np.isfinite(values)
    if np.any(bad):
        pos = int(np.flatnonzero(bad.reshape(-1))[0])
        raise ValueError(f"non-finite {what} at position {pos}")


def _linear(log_dur: LogDurations) -> np.ndarray:
    """exp of the log-durations, each side checked finite."""
    values = np.asarray(log_dur.values.data)
    _check_finite(values, "log-duration")
    linear = np.exp(values)
    _check_finite(linear, "duration")
    return linear


def to_frames(log_dur: LogDurations, min_duration: int = 0) -> np.ndarray:
    """Integer frame counts: max(min_duration, round(exp(v))), half away from zero."""
    return np.maximum(round_half_away(_linear(log_dur)), int(min_duration)).astype(np.int64)


def quantisation_residual(log_dur: LogDurations) -> float:
    """Mean distance from exp(v) to its nearest integer over all positions."""
    if log_dur.values.data.size == 0:
        raise ValueError("no positions to average over")
    linear = _linear(log_dur)
    residual = np.abs(linear - round_half_away(linear))
    return float(residual.sum() / residual.size)


def length_regulate(vectors: Tensor, frames) -> Tensor:
    """Repeat column t of the (D, T) conditioning vectors frames[t] times,
    order preserved."""
    frames = np.asarray(frames)
    if frames.ndim != 1 or frames.size != vectors.data.shape[-1]:
        raise ValueError("frames length does not match the sequence")
    if np.any(frames < 0):
        pos = int(np.flatnonzero(frames < 0)[0])
        raise ValueError(f"negative duration at position {pos}")
    return Tensor(np.repeat(vectors.data, frames.astype(np.int64), axis=-1))
