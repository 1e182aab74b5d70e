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
        if not _is_int(self.nfe) or self.nfe < 1:
            raise ValueError(f"nfe must be an integer >= 1, got {self.nfe!r}")
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

    def __call__(self, cond: Tensor, lengths=None) -> Tensor:
        """cond (B, D, T) -> (B, 1, T); ``lengths`` as ``nm.conv1d`` takes them."""
        h = self.norm1(nm.relu(nm.conv1d(cond, self.conv1.weight, self.conv1.bias, lengths)))
        h = self.norm2(nm.relu(nm.conv1d(h, self.conv2.weight, self.conv2.bias, lengths)))
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
        plus W convolved with the constant input b, which like
        noise_proj's output is zero-padded: a constant row with edge
        corrections at the first and last column of every sequence
        (``_edge_terms``).

        ``lengths`` are the lengths of the sequences packed along T, as
        ``nm.conv1d`` takes them (None: one sequence per row). Returns
        the pair (part, kernel). ``part`` is the (hidden, B*T)
        channel-major matrix of conv1 over the cond channels plus its
        bias plus the bias term; ``kernel`` is K as a (hidden, 3)
        array. Both are taken from the parameters as they are now.
        """
        weight = self.conv1.weight.data
        noise_weight = weight[:, self.cond_dim:]
        kernel = self.noise_proj.weight.data[:, 0, 0] @ noise_weight
        edge = _edge_terms(noise_weight, self.noise_proj.bias.data)
        part = nm.conv1d(cond, Tensor(weight[:, :self.cond_dim]),
                         Tensor(self.conv1.bias.data + edge[:, 0]), lengths).data
        # conv1d's output is channel-major in memory, so this is a view
        part = part.transpose(1, 0, 2).reshape(len(weight), -1)
        batch, _, t_len = cond.data.shape
        first, last = nm.segment_edges(lengths, batch, t_len)
        part[:, first] += edge[:, 1:2]
        part[:, last] += edge[:, 2:3]
        return part, kernel


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


def _edge_terms(weight: np.ndarray, value: np.ndarray) -> np.ndarray:
    """A width-3 convolution of a constant input, zero-padded per sequence.

    ``weight`` is a (C_out, C_in, 3) kernel and ``value`` the (C_in,)
    input every step holds. Convolved, it gives the per-tap sums
    c_j = sum_i weight[:, i, j] value[i] at every step of a sequence,
    less c_0 at its first step and c_2 at its last, where those taps
    read the padding; a sequence of length 1 keeps only c_1. Returns
    the (C_out, 3) columns [c_0 + c_1 + c_2, -c_0, -c_2], the weights
    of an all-ones row, a row that is one at each sequence's first step
    and a row that is one at its last.
    """
    taps = value @ weight  # (C_out, 3)
    return np.stack([taps.sum(axis=1), -taps[:, 0], -taps[:, 2]], axis=1)


def _fill_taps(taps: np.ndarray, first, last):
    """Fill taps[0] and taps[2] with taps[1] shifted one column right and
    left, zero where the shift leaves a sequence: taps[j][..., m] is
    taps[1][..., m + j - 1], as a width-3 convolution reads it."""
    taps[0][..., 1:] = taps[1][..., :-1]
    taps[0][..., first] = 0.0
    taps[2][..., :-1] = taps[1][..., 1:]
    taps[2][..., last] = 0.0


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

    The field is ``FlowPredictor.__call__`` run forward only on
    channel-major (hidden, R*B*T) buffers that are allocated once per
    call. What depends on neither x nor the step is computed once per
    call too: ``FlowPredictor.condition`` of cond, the two time rows
    of every grid point, the first and last column of every sentence,
    and these folds (gains by scaling, biases by matrix products):

    * norm1's gain scales conv2's kernel, whose taps are laid out to
      match a tap-major (3, hidden, N) patch matrix. norm1's bias,
      convolved, is ``_edge_terms``: its three columns join the kernel,
      and the patch matrix has an all-ones row and one row each
      marking the first and the last column of every sentence, so the
      bias and its edge corrections ride in conv2's product. The
      ones-row column also carries conv2's bias and the step's second
      time row.
    * norm2's gain scales proj's weight and its bias joins proj's bias,
      so proj takes norm2's centred input and scales its output by
      norm2's per-column inverse standard deviations.

    A step convolves x with the folded noise kernel, the first time row
    riding on the product as a fourth tap over a ones row, adds the
    conditioning part to every realisation in place, then ReLU,
    normalises norm1 (``nm.centre_columns``, as ``nm.layer_norm`` does)
    straight into the patch matrix's centre tap, fills the two shifted
    taps from it, runs conv2 -> ReLU -> norm2's centring -> proj. The
    ReLUs run in place. Nothing outlives the call, so a change to the
    parameters shows in the next call.

    The network runs in the dtype of the model's parameters (float32
    for the copy that corpus-level sampling makes): the time rows are
    cast to it once per call and x at every step's input. The state x
    itself stays float64, so the Euler sum accumulates in float64.
    """
    batch, _, t_len = cond.data.shape
    x = np.array(noise, dtype=np.float64)
    if not (x.ndim == 3 and x.shape[1:] == (1, t_len)
            and 0 < batch <= x.shape[0] and x.shape[0] % batch == 0):
        raise ValueError(f"noise {x.shape} must stack R >= 1 realisations (R*B, 1, T) "
                         f"of cond {cond.data.shape}")
    if nfe < 1:
        raise ValueError(f"nfe must be >= 1, got {nfe}")
    reps = x.shape[0] // batch
    predictor = model.predictor
    part, kernel = predictor.condition(cond, lengths)  # (hidden, B*T), (hidden, 3)
    hidden, dtype = part.shape[0], part.dtype
    n = x.size
    first, last = nm.segment_edges(lengths, x.shape[0], t_len)
    emb = predictor.time(np.arange(nfe) / nfe)  # (nfe, time_dim)
    rows1 = predictor.time_to_h1(emb).data.astype(dtype, copy=False)  # (nfe, hidden)
    rows2 = predictor.time_to_h2(emb).data.astype(dtype, copy=False)

    # conv1 over x: the taps of K, then the step's time row over a ones row
    kernel1 = np.empty((hidden, 4), dtype=dtype)
    kernel1[:, :3] = kernel
    x_taps = np.empty((4, n), dtype=dtype)
    x_taps[3] = 1.0
    # conv2 with norm1 folded in: its taps, then the edge terms of
    # norm1's bias over the ones, first-column and last-column rows
    conv2, norm1, norm2 = predictor.conv2, predictor.norm1, predictor.norm2
    kernel2 = np.empty((hidden, 3 * hidden + 3), dtype=dtype)
    np.multiply(conv2.weight.data.transpose(0, 2, 1), norm1.gain.data,
                out=kernel2[:, :3 * hidden].reshape(hidden, 3, hidden))
    kernel2[:, 3 * hidden:] = _edge_terms(conv2.weight.data, norm1.bias.data)
    rows2 += conv2.bias.data + kernel2[:, 3 * hidden]
    patches = np.zeros((3 * hidden + 3, n), dtype=dtype)
    taps = patches[:3 * hidden].reshape(3, hidden, n)
    patches[3 * hidden] = 1.0
    patches[3 * hidden + 1, first] = 1.0
    patches[3 * hidden + 2, last] = 1.0
    # proj with norm2's gain and bias folded in
    proj = predictor.proj.weight.data[0, :, 0]
    proj_weight = proj * norm2.gain.data
    proj_bias = proj @ norm2.bias.data + predictor.proj.bias.data[0]

    h = np.empty((hidden, n), dtype=dtype)
    # the realisations of h, for adding the conditioning part to each
    per_rep = h.reshape(hidden, reps, -1)
    flat_x = x.reshape(-1)
    dt = 1.0 / nfe
    for i in range(nfe):
        x_taps[1] = flat_x
        _fill_taps(x_taps, first, last)
        kernel1[:, 3] = rows1[i]
        np.matmul(kernel1, x_taps, out=h)
        per_rep += part[:, None, :]
        np.maximum(h, 0.0, out=h)
        # taps[0] is scratch until _fill_taps writes it
        inv_std = nm.centre_columns(h, taps[1], taps[0])
        taps[1] *= inv_std
        _fill_taps(taps, first, last)
        kernel2[:, 3 * hidden] = rows2[i]
        np.matmul(kernel2, patches, out=h)
        np.maximum(h, 0.0, out=h)
        inv_std = nm.centre_columns(h, h, taps[0])
        v = proj_weight @ h
        v *= inv_std
        v += proj_bias
        flat_x += dt * v
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
