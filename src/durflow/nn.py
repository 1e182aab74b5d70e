"""Layers, parameter counts and checkpoint IO.

Layers are thin containers around :mod:`durflow.numerics` Tensors,
all of them :class:`Module` subclasses under one parameter rule: a
layer's parameters are its Tensor attributes and those of its
sub-layers, so a layer holds no Tensor attribute that is not a
parameter. Construction takes a ``numpy.random.Generator`` so that the
same seed always yields bit-identical initial parameters. Weight matrices are
drawn uniform in +-sqrt(1/fan_in), embedding tables from N(0, 0.02),
biases start at zero and layer norms at identity.
"""

from __future__ import annotations

import copy
import json
import zipfile

import numpy as np

from durflow import numerics as nm
from durflow.files import atomic_write, plain_number
from durflow.numerics import Tensor, parameter

CHECKPOINT_VERSION = 1

# sinusoidal time features: t is scaled by TIME_SCALE, and the
# frequencies fall geometrically from 1 towards 1/TIME_BASE
TIME_SCALE = 1000.0
TIME_BASE = 10000.0


class CheckpointFormatError(ValueError):
    """A file that is not a well-formed durflow checkpoint. The message
    names the file and, where one is at fault, the key or parameter."""


def param_count(layer) -> int:
    """Total number of scalar parameters in a layer or model."""
    return sum(p.data.size for p in layer.params().values())


# ---------------------------------------------------------------------------
# layers


class Module:
    """A layer: its parameters are its Tensor attributes, and those of
    the layers it is built from.

    ``params()`` lists, in the order ``__init__`` assigns the attributes,
    each Tensor attribute under its own name and each sub-layer's
    parameters as ``<attribute>.<name>``. That order fixes the parameter
    names and their order, on which the optimiser's flat buffer and the
    checkpoint keys depend.
    """

    def params(self) -> dict:
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, Module):
                out.update((f"{name}.{key}", p) for key, p in value.params().items())
        return out


class _Undrawn:
    """Stands in for the Generator a layer draws its initial weights
    from, for a caller that sets every parameter next, and allocates
    nothing: each draw, and each constant a layer starts from
    (``_filled``), is a read-only view of one zero in its shape."""

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)

    normal = uniform


UNDRAWN = _Undrawn()


def _filled(value: float, size, rng) -> np.ndarray:
    """A new array of ``value``, or UNDRAWN's placeholder when ``rng`` is it."""
    return np.broadcast_to(0.0, size) if rng is UNDRAWN else np.full(size, value)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        lim = np.sqrt(1.0 / in_dim)
        self.weight = parameter(rng.uniform(-lim, lim, size=(in_dim, out_dim)))
        self.bias = parameter(_filled(0.0, out_dim, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return nm.add(nm.matmul(x, self.weight), self.bias)


class Conv1d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_width: int,
                 rng: np.random.Generator):
        lim = np.sqrt(1.0 / (in_channels * kernel_width))
        self.weight = parameter(
            rng.uniform(-lim, lim, size=(out_channels, in_channels, kernel_width))
        )
        self.bias = parameter(_filled(0.0, out_channels, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return nm.conv1d(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, channels: int, rng: np.random.Generator):
        """Identity at the start: ``rng`` draws nothing, but UNDRAWN
        makes both parameters placeholders."""
        self.gain = parameter(_filled(1.0, channels, rng))
        self.bias = parameter(_filled(0.0, channels, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return nm.layer_norm(x, self.gain, self.bias)


def token_ids(ids, vocab: int) -> np.ndarray:
    """``ids`` as a (B, T) array of integer token ids below ``vocab``; any
    other shape, a dtype that is not an integer type (floats, bools) or
    an id outside [0, vocab) raises ValueError."""
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(
            f"embedding expects batched (B, T) token ids, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise ValueError(f"token id {bad} outside vocabulary of size {vocab}")
    return ids


class Embedding(Module):
    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.table = parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)))

    def __call__(self, ids) -> Tensor:
        """Look up token embeddings, channels first.

        ids of shape (B, T) give (B, E, T); one sequence is a batch of one.
        The gradient scatters only into the selected table rows.
        """
        ids = token_ids(ids, self.table.data.shape[0])
        return nm.permute(nm.take_rows(self.table, ids), (0, 2, 1))


def sinusoidal_time_embedding(t, dim: int, dtype=np.float64) -> Tensor:
    """Raw interleaved sin/cos features of B time values in [0, 1].

    Even indices carry sin, odd indices cos, at geometrically spaced
    frequencies TIME_BASE**(-i/half). t is multiplied by ``TIME_SCALE``
    first so a unit interval spans many periods of the fastest
    component. t of shape (B,) gives (B, dim) features of ``dtype``;
    the angles and their sines are computed in float64 either way.
    """
    if dim % 2 != 0:
        raise ValueError(f"embedding dim must be even, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError(f"time embedding expects a (B,) array of times, got shape {t.shape}")
    half = dim // 2
    freqs = TIME_BASE ** (-np.arange(half) / half)
    angles = TIME_SCALE * t[:, None] * freqs[None, :]
    out = np.empty((t.size, dim), dtype=dtype)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return Tensor(out)


class TimeEmbedding(Module):
    """Sinusoidal features followed by a dim -> 4*dim -> dim MLP with ReLU."""

    def __init__(self, dim: int, rng: np.random.Generator):
        if dim % 2 != 0:
            raise ValueError(f"embedding dim must be even, got {dim}")
        self.dim = dim
        self.lin1 = Linear(dim, 4 * dim, rng)
        self.lin2 = Linear(4 * dim, dim, rng)

    def __call__(self, t) -> Tensor:
        """t (B,) -> (B, dim), in the dtype of the layer's parameters."""
        raw = sinusoidal_time_embedding(t, self.dim, self.lin1.weight.data.dtype)
        return self.lin2(nm.relu(self.lin1(raw)))


def cast_copy(layer, dtype):
    """A forward-only copy of a layer whose parameters hold their data
    as ``dtype``.

    Each parameter is converted straight from the original's data, and
    everything else is shared with the original. A parameter that
    already holds ``dtype`` shares the original's array, so a cast of a
    model already in ``dtype`` copies no parameter and follows in-place
    changes to it; a converted parameter does not follow later changes.
    The copy's parameters have no gradients.
    """
    out = copy.copy(layer)
    for name, value in vars(layer).items():
        if isinstance(value, Tensor):
            setattr(out, name, Tensor(value.data.astype(dtype, copy=False)))
        elif isinstance(value, Module):
            setattr(out, name, cast_copy(value, dtype))
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_params(path, arrays: dict, meta: dict):
    """Write named float64 arrays plus a JSON metadata block to one file.

    The container is a numpy .npz archive, written at ``path`` exactly
    (no ``.npz`` is appended) and atomically; round-trips are bit-exact.
    """
    meta = dict(meta)
    meta["checkpoint_version"] = CHECKPOINT_VERSION
    payload = {}
    for name, arr in arrays.items():
        data = arr.data if isinstance(arr, Tensor) else arr
        payload[name] = np.asarray(data, dtype=np.float64)
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True, default=plain_number).encode("utf-8"), dtype=np.uint8
    )
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **payload)


def load_params(path):
    """Read back a checkpoint written by :func:`save_params`.

    Returns (arrays, meta). A file that is not such a checkpoint (not an
    .npz archive, a plain .npy array, truncated, or without a JSON
    metadata object) and an unknown version raise CheckpointFormatError
    naming the file.
    """
    try:
        # opened here, not by np.load, which leaves its own handle open
        # when the archive is unreadable
        with open(path, "rb") as fh:
            archive = np.load(fh)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("a single .npy array, not an .npz archive")
            with archive:
                if "__meta__" not in archive.files:
                    raise ValueError("no '__meta__' metadata entry")
                meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
                arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    # zipfile raises RuntimeError for an entry marked encrypted and
    # NotImplementedError, a RuntimeError, for an unknown compression
    except (zipfile.BadZipFile, EOFError, ValueError, RuntimeError) as exc:
        raise CheckpointFormatError(f"{path}: not a durflow checkpoint ({exc})") from exc
    if not isinstance(meta, dict):
        raise CheckpointFormatError(f"{path}: checkpoint metadata is not a JSON object")
    version = meta.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version!r}")
    return arrays, meta
