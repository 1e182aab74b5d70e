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
from durflow.data import _is_int, _is_real, round_half_away
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
        if not (_is_real(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_int(self.min_duration) or self.min_duration not in (0, 1):
            raise ValueError(f"min_duration must be 0 or 1, got {self.min_duration!r}")


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
    """Backbone ending in one scalar per position: the expected log-duration.

    Each block's ReLU and layer norm run as one tape op,
    ``nm.relu_norm``, on the ``norm1``/``norm2`` layers' parameters.
    """

    def __init__(self, cond_dim: int, hidden: int, rng: np.random.Generator):
        self.conv1 = nn.Conv1d(cond_dim, hidden, 3, rng)
        self.norm1 = nn.LayerNorm(hidden, rng)
        self.conv2 = nn.Conv1d(hidden, hidden, 3, rng)
        self.norm2 = nn.LayerNorm(hidden, rng)
        self.proj = nn.Conv1d(hidden, 1, 1, rng)

    def __call__(self, cond: Tensor, lengths=None) -> Tensor:
        """cond (B, D, T) -> (B, 1, T); ``lengths`` as ``nm.conv1d`` takes them."""
        h = nm.conv1d(cond, self.conv1.weight, self.conv1.bias, lengths)
        h = nm.relu_norm(h, self.norm1.gain, self.norm1.bias)
        h = nm.conv1d(h, self.conv2.weight, self.conv2.bias, lengths)
        h = nm.relu_norm(h, self.norm2.gain, self.norm2.bias)
        return self.proj(h)


class FlowPredictor(nn.Module):
    """Vector-field head v(x_t, t, cond) for flow-matching durations.

    The noisy durations x_t enter through a pointwise projection whose
    output is concatenated with the conditioning channels; an embedding
    of the flow time t is added to both conv-block activations before
    their ReLU. Each block's tail (add the time row, ReLU, layer norm)
    is one tape op, ``nm.relu_norm``, on the ``norm1``/``norm2`` layers'
    parameters; the convolutions are called as layers.
    """

    def __init__(self, cond_dim: int, hidden: int, noise_dim: int, time_dim: int,
                 rng: np.random.Generator):
        self.noise_proj = nn.Conv1d(1, noise_dim, 1, rng)
        self.conv1 = nn.Conv1d(cond_dim + noise_dim, hidden, 3, rng)
        self.norm1 = nn.LayerNorm(hidden, rng)
        self.conv2 = nn.Conv1d(hidden, hidden, 3, rng)
        self.norm2 = nn.LayerNorm(hidden, rng)
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
        h = nm.relu_norm(h, self.norm1.gain, self.norm1.bias, self.time_to_h1(emb))
        h = self.conv2(h)
        h = nm.relu_norm(h, self.norm2.gain, self.norm2.bias, self.time_to_h2(emb))
        return self.proj(h)


class DurationModel(nn.Module):
    """A text encoder plus one duration head, with training metadata.

    The initial weights are drawn from a stream of ``seed``; with
    ``draw=False`` nothing is drawn: every parameter is a read-only zero
    placeholder that takes no memory, whatever the dims, for a caller
    that sets every parameter (:func:`load_model`).
    """

    def __init__(self, kind: str, vocab_size: int, seed: int = 0,
                 encoder_dim: int = ENCODER_DIM, hidden: int = HIDDEN_CHANNELS,
                 noise_dim: int = NOISE_CHANNELS, time_dim: int = TIME_DIM, *,
                 draw: bool = True):
        if kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {kind!r}")
        self.kind = kind
        self.vocab_size = vocab_size
        self.seed = seed
        self.dims = {"encoder_dim": encoder_dim, "hidden": hidden,
                     "noise_dim": noise_dim, "time_dim": time_dim}
        rng = (np.random.default_rng(np.random.SeedSequence([seed, 101])) if draw
               else nn.UNDRAWN)
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
    checkpoint raises CheckpointFormatError naming the file.

    The parameters are built from the checkpoint's arrays, as float64,
    with no initial weights drawn.
    """
    arrays, meta = nn.load_params(path)
    _check_meta(path, meta)
    try:
        model = DurationModel(meta["kind"], meta["vocab_size"], seed=meta["seed"],
                              **meta["dims"], draw=False)
    except ValueError as exc:
        raise CheckpointFormatError(
            f"{path}: checkpoint metadata describes no model ({exc})") from exc
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
        p.data = np.require(array, np.float64, "C")
    model.trained_steps = meta["trained_steps"]
    return model


# ---------------------------------------------------------------------------
# loss


def cfm_pair(x1, x0, t):
    """Point on the optimal-transport path and its target vector field.

    x_t = (1 - (1 - sigma) t) x0 + t x1 and u_t = x1 - (1 - sigma) x0,
    with sigma = OT_SIGMA. Works elementwise; t may be a scalar or
    broadcastable array.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    x_t = (1.0 - (1.0 - OT_SIGMA) * t) * x0 + t * x1
    u_t = x1 - (1.0 - OT_SIGMA) * x0
    u_t = np.broadcast_to(u_t, x_t.shape).copy()
    return x_t, u_t


def loss(model: DurationModel, ids, targets, rng: np.random.Generator) -> Tensor:
    """Training loss of a batch of B equal-length sentences.

    ids are (B, T) interleaved token ids and targets the (B, T) log-domain
    reference durations. A 'det' model returns the mean squared error of
    its predictions; rng is not used. An 'fm' model draws t ~ U[0, 1] per
    sentence and then x0 ~ N(0, I) per position, in that order, and
    returns the mean squared error of its field against u_t at x_t.

    The targets, and x_t and u_t, enter in the dtype of the model's
    parameters, so the loss and its gradients keep that dtype: float32
    on the working copy training runs on, float64 on the model itself.
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
    dtype = cond.data.dtype
    if model.kind == "det":
        pred, goal = model.predictor(cond), x1
    else:
        t = rng.uniform(size=batch)
        x0 = rng.standard_normal((batch, 1, t_len))
        x_t, goal = cfm_pair(x1, x0, t[:, None, None])
        pred = model.predictor(Tensor(x_t.astype(dtype, copy=False)), t, cond)
    diff = nm.sub(pred, Tensor(goal.astype(dtype, copy=False)))
    return nm.mean(nm.mul(diff, diff))


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


def _learned_field(predictor: FlowPredictor, cond: Tensor, reps: int, lengths,
                   times: np.ndarray):
    """The predictor's field at each of ``times``, built for Euler steps.

    Returns step(flat_x, i): ``FlowPredictor.__call__`` at times[i] for
    the (R*B*T,) state flat_x of cond's R realisations, stacked and
    packed as ``fm_sample_batch`` takes them. It runs forward only, in
    the parameters' dtype, on channel-major (hidden, R*B*T) buffers
    made here. Built here once: conv1 over cond's channels with its
    bias (added to every realisation), the two time rows of every time,
    each sentence's first and last column, and three folds (gains by
    scaling, biases by matrix products):

    * noise_proj into conv1. Convolution is linear in its input
      channels, so conv1 over noise_proj's output is x convolved with
      the one-channel kernel K[o, j] = sum_c W[o, c, j] P[c] (W conv1's
      kernel over the noise channels, P noise_proj's weight) plus W
      convolved with noise_proj's zero-padded bias, ``_edge_terms``.
    * norm1 into conv2. norm1's gain scales conv2's kernel, whose taps
      are laid out to match a tap-major (3, hidden, N) patch matrix;
      norm1's bias, convolved, is ``_edge_terms`` of conv2's kernel.
    * norm2 into proj. norm2's gain scales proj's weight and its bias
      joins proj's bias, so proj takes norm2's centred input and
      scales its output by norm2's per-column inverse standard
      deviations.

    Both convolutions read one patch matrix: conv2's taps, then an
    all-ones row and one row each marking the first and the last column
    of every sentence, then x's three taps. Each kernel takes the three
    ``_edge_terms`` columns over the ones and edge rows, so a bias and
    its edge corrections ride in the product. The ones-row column also
    carries the step's time row: conv1's the first, conv2's the second
    with conv2's bias. Taps are filled by ``nm.fill_taps`` and norm1 is
    centred by ``nm.centre_columns``, as ``nm.conv1d`` and
    ``nm.layer_norm`` do.
    """
    weight1 = predictor.conv1.weight.data
    cond_dim = weight1.shape[1] - len(predictor.noise_proj.weight.data)
    part = nm.conv1d(cond, Tensor(weight1[:, :cond_dim]), predictor.conv1.bias, lengths).data
    (batch, hidden, t_len), dtype = part.shape, part.dtype
    # conv1d's output is channel-major in memory, so this is a view
    part = part.transpose(1, 0, 2).reshape(hidden, -1)
    n = reps * part.shape[1]
    first, last = nm.segment_edges(lengths, reps * batch, t_len)
    emb = predictor.time(times)  # (len(times), time_dim)
    rows1 = predictor.time_to_h1(emb).data  # (len(times), hidden)
    rows2 = predictor.time_to_h2(emb).data

    # conv2's taps, the ones and edge rows, x's taps
    patches = np.zeros((3 * hidden + 6, n), dtype=dtype)
    taps = patches[:3 * hidden].reshape(3, hidden, n)
    patches[3 * hidden] = 1.0
    patches[3 * hidden + 1, first] = 1.0
    patches[3 * hidden + 2, last] = 1.0
    x_taps = patches[3 * hidden + 3:]
    # conv1 over x with noise_proj folded in: the edge terms of its bias
    # over the ones and edge rows, then K over x's taps
    noise_weight = weight1[:, cond_dim:]
    kernel1 = np.hstack([_edge_terms(noise_weight, predictor.noise_proj.bias.data),
                         predictor.noise_proj.weight.data[:, 0, 0] @ noise_weight])
    rows1 += kernel1[:, 0]
    # conv2 with norm1 folded in: its taps, then the edge terms of
    # norm1's bias over the ones and edge rows
    weight2 = predictor.conv2.weight.data
    kernel2 = np.empty((hidden, 3 * hidden + 3), dtype=dtype)
    np.multiply(weight2.transpose(0, 2, 1), predictor.norm1.gain.data,
                out=kernel2[:, :3 * hidden].reshape(hidden, 3, hidden))
    kernel2[:, 3 * hidden:] = _edge_terms(weight2, predictor.norm1.bias.data)
    rows2 += predictor.conv2.bias.data + kernel2[:, 3 * hidden]
    # proj with norm2's gain and bias folded in
    proj = predictor.proj.weight.data[0, :, 0]
    proj_weight = proj * predictor.norm2.gain.data
    proj_bias = proj @ predictor.norm2.bias.data + predictor.proj.bias.data[0]

    h = np.empty((hidden, n), dtype=dtype)
    # the realisations of h, for adding the conditioning part to each
    per_rep = h.reshape(hidden, reps, -1)

    def step(flat_x: np.ndarray, i: int) -> np.ndarray:
        x_taps[1] = flat_x
        nm.fill_taps(x_taps, first, last)
        kernel1[:, 0] = rows1[i]
        np.matmul(kernel1, patches[3 * hidden:], out=h)
        np.add(per_rep, part[:, None, :], out=per_rep)
        np.maximum(h, 0.0, out=h)
        # taps[0] is scratch until nm.fill_taps writes it
        inv_std = nm.centre_columns(h, taps[1], taps[0])
        taps[1] *= inv_std
        nm.fill_taps(taps, first, last)
        kernel2[:, 3 * hidden] = rows2[i]
        np.matmul(kernel2, patches[:3 * hidden + 3], out=h)
        np.maximum(h, 0.0, out=h)
        inv_std = nm.centre_columns(h, h, taps[0])
        return proj_weight @ h * inv_std + proj_bias

    return step


def fm_sample_batch(model: DurationModel, cond: Tensor, noise: np.ndarray,
                    nfe: int, lengths=None) -> np.ndarray:
    """Euler-integrate the learned field for a batch; returns x at t=1.

    cond is the (B, D, T) encoder output and noise the t=0 state of R
    realisations of it stacked rep-major, (R*B, 1, T): row r*B + b starts
    realisation r of row b. R is the rows of noise over the rows of
    cond; any other shape raises ValueError. ``lengths``, when given,
    are the lengths of sentences packed back to back along T, the same
    in every row; each sentence then runs as if it were sampled alone
    (None: each row is one sentence). nfe, an integer >= 1, counts the
    steps: step i evaluates the field at t = i/nfe and advances by 1/nfe.

    The field (``_learned_field``) is built once per call, so a change
    to the parameters shows in the next call. It runs in the dtype of
    the model's parameters, float32 on the copy corpus sampling makes;
    the state x stays float64, so the Euler sum accumulates in float64.
    """
    batch, _, t_len = cond.data.shape
    x = np.array(noise, dtype=np.float64)
    if not (x.ndim == 3 and x.shape[1:] == (1, t_len)
            and 0 < batch <= x.shape[0] and x.shape[0] % batch == 0):
        raise ValueError(f"noise {x.shape} must stack R >= 1 realisations (R*B, 1, T) "
                         f"of cond {cond.data.shape}")
    if not _is_int(nfe) or nfe < 1:
        raise ValueError(f"nfe must be an integer >= 1, got {nfe!r}")
    field = _learned_field(model.predictor, cond, x.shape[0] // batch, lengths,
                           np.arange(nfe) / nfe)
    flat_x = x.reshape(-1)
    dt = 1.0 / nfe  # a Python float, so NEP 50 keeps dt * v in v's dtype
    for i in range(nfe):
        flat_x += dt * field(flat_x, i)
    return x


# ---------------------------------------------------------------------------
# quantisation and length regulation


def _refuse(bad: np.ndarray, what: str):
    """Raise ValueError naming ``what`` and the first position where
    ``bad`` is true, if there is one."""
    if np.any(bad):
        pos = int(np.flatnonzero(bad.reshape(-1))[0])
        raise ValueError(f"{what} at position {pos}")


def _check_finite(values: np.ndarray, what: str):
    _refuse(~np.isfinite(values), f"non-finite {what}")


def _linear(log_dur: LogDurations) -> np.ndarray:
    """exp of the log-durations, each side checked finite."""
    values = np.asarray(log_dur.values.data)
    _check_finite(values, "log-duration")
    linear = np.exp(values)
    _check_finite(linear, "duration")
    return linear


def to_frames(log_dur: LogDurations, min_duration: int = 0) -> np.ndarray:
    """Integer frame counts: max(min_duration, round(exp(v))), half away
    from zero. A count beyond int64 raises ValueError naming its position."""
    frames = np.maximum(round_half_away(_linear(log_dur)), int(min_duration))
    _refuse(frames >= 2.0**63, "duration beyond int64 frames")
    return frames.astype(np.int64)


def quantisation_residual(log_dur: LogDurations) -> float:
    """Mean distance from exp(v) to its nearest integer over all positions."""
    if log_dur.values.data.size == 0:
        raise ValueError("no positions to average over")
    linear = _linear(log_dur)
    residual = np.abs(linear - round_half_away(linear))
    return float(residual.sum() / residual.size)


def length_regulate(vectors: Tensor, frames) -> Tensor:
    """Repeat column t of the (D, T) conditioning vectors frames[t] times,
    order preserved. Each frame count must be a whole number >= 0."""
    frames = np.asarray(frames)
    if frames.ndim != 1 or frames.size != vectors.data.shape[-1]:
        raise ValueError("frames length does not match the sequence")
    if np.any(frames < 0):
        pos = int(np.flatnonzero(frames < 0)[0])
        raise ValueError(f"negative duration at position {pos}")
    whole = np.isfinite(frames) & (frames == np.round(frames))
    if not np.all(whole):
        pos = int(np.flatnonzero(~whole)[0])
        raise ValueError(f"non-integral duration {frames[pos]} at position {pos}")
    return Tensor(np.repeat(vectors.data, frames.astype(np.int64), axis=-1))
