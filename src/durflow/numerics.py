"""Reverse-mode autodiff on numpy arrays, in float64 or float32.

The engine is deliberately small: a :class:`Tensor` wraps an ndarray, a
:class:`Tape` records one closure per primitive op while a ``record()``
context is active, and ``Tape.backward`` replays the closures in reverse.
Ops are coarse on purpose. ``conv1d`` and ``layer_norm`` are single tape
nodes with hand-written adjoints, so almost all time is spent inside
BLAS rather than in Python graph bookkeeping.

Conventions:

* a Tensor holds float64 data, or float32 data when it is given a
  numpy float32 array or scalar; every other input (ints, lists,
  Python floats, other float widths) is converted to float64.
  Training runs each step's forward and backward pass in float32, on
  a working copy of the model, while the master weights and Adam stay
  float64; the gradients stay float32, in the copy, and :class:`Adam`
  reads them from there (:mod:`durflow.training`); sampling runs forward only in
  float32 (:mod:`durflow.evaluation`); the gradient checks run in
  float64,
* ops keep their inputs' dtype: the output, and every buffer an op
  allocates, is float32 when all its array inputs are; mixed inputs
  promote as numpy promotes them, to float64. A Python scalar does
  not change the dtype (``scale``, ``relu``), but one passed to
  ``add``/``sub``/``mul`` becomes a float64 Tensor,
* elementwise ops broadcast numpy-style (shapes aligned from the
  trailing axis) and the backward pass sums gradients over the
  broadcast axes,
* a tape can be consumed by ``backward`` exactly once,
* parameters are Tensors built with :func:`parameter`; they keep a
  persistent gradient buffer that starts at zero, so a parameter that
  never enters the graph simply keeps a zero gradient. A parameter
  whose gradient nothing reads holds no buffer: a loaded checkpoint's
  parameters and the float64 masters of a training run have ``grad``
  None, and the first backward pass that reaches one gives it a
  buffer. :func:`flatten` moves tensors' data, and their gradients
  where they are read, into flat buffers, as an :class:`Adam`
  optimizer does with the parameters it updates and with a working
  copy it reads their gradients from,
* ``Tape.backward`` drops each node once it has run, so an op's saved
  arrays and its output's gradient are freed while the pass goes on,
* ``conv1d`` and ``layer_norm`` take batched (B, C, T) input only; a
  single sequence is a batch of one. Sequences of unequal length are
  packed back to back along T, with no padding, and ``conv1d`` is told
  their lengths, so that no tap crosses from one into the next;
  ``layer_norm`` works per step and needs no lengths. Both compute on
  channel-major (C, B*T) matrices and return (B, C, T) views of that
  memory, so a chain of them transposes nothing in between,
* ``conv1d`` takes kernels of width 1 and 3 only, the widths the
  models use. One rule lays out width-3 taps over packed sequences:
  ``segment_edges`` gives each sequence's first and last column and
  ``fill_taps`` shifts the centre tap into the two edge taps, zero
  across those edges. ``conv1d`` builds its patches with it and the
  Euler sampler (``duration.fm_sample_batch``) its step buffers,
* every gradient buffer is C-contiguous in the layout of its tensor's
  data. numpy's pairwise reductions sum in memory order, so a gradient
  laid out differently would change the last bits of the sums it
  feeds; keeping the layouts fixed keeps the loss trajectories
  bit-stable.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np


_active_tape = None

# float64 entries per block of the Adam update: 128 KiB per float64
# buffer, so the six float64 buffers that one block touches, and the two
# float32 blocks of a working copy, fit in a core's L2 cache
_ADAM_BLOCK = 1 << 14
# Adam's moment decay rates, and the term added to the denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9

# added to the variance in layer_norm before the square root
LAYER_NORM_EPS = 1e-5

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

# the thread-count functions an OpenBLAS build may export, as (get, set)
# pairs: numpy's wheels bundle scipy-openblas, whose names carry a prefix
# and, for 64-bit integers, a suffix
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "") for suffix in ("64_", "")
)


def keep_freed_memory():
    """Have glibc's malloc keep freed memory for reuse; elsewhere a no-op.

    A training step allocates and frees the same few tens of MB of
    activations, patch matrices and gradients. With glibc's defaults the
    freed top of the heap goes back to the kernel after every step and
    the next step faults it in again page by page (about 4,400 minor
    faults and 10 ms of system time per det step at batch 16). Raising
    the mmap threshold to its 32 MiB ceiling and the trim threshold to
    256 MiB keeps those pages mapped for the life of the process. One
    arena for every thread keeps the sampling workers from each growing
    an arena of their own: with an arena per worker, the benchmark's
    five-realisation ``durflow sample`` peaked at 102-104 MB resident
    against 85-87 MB (two workers on a 2-vCPU machine).
    The setting is process-wide and idempotent, and it affects speed
    and resident memory only, never results.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_ARENA_MAX, 1)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded.

    The library is looked up among the files mapped into this process,
    so it is the one numpy's products run on. None when there is none,
    or when this system does not list its mappings (Linux does).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                     if len(fields) == 6 and "openblas" in fields[5]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def blas_threads():
    """Threads OpenBLAS runs numpy's products on, or None without OpenBLAS."""
    functions = _openblas()
    return None if functions is None else functions[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread; yield the count it had.

    The count is restored on the way out, an exception included, so the
    caller can run that many single-threaded BLAS users side by side in
    the block without oversubscribing the cores the library was given.
    Without OpenBLAS it yields 1 and changes nothing.
    """
    functions = _openblas()
    if functions is None:
        yield 1
        return
    get, set_ = functions
    threads = max(1, get())
    set_(1)
    try:
        yield threads
    finally:
        set_(threads)


class Tensor:
    """An ndarray plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, (np.ndarray, np.float32)) and data.dtype == np.float32:
            self.data = np.asarray(data)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """Build a trainable Tensor with a persistent zero gradient buffer."""
    t = Tensor(data, requires_grad=True)
    t.grad = np.zeros_like(t.data)
    return t


def flatten(tensors, dtype=np.float64, grad=True) -> tuple:
    """Move the tensors' data into one flat buffer of ``dtype`` and, with
    ``grad``, their gradients into a second, in the order given; returns
    the two, the second None without ``grad``.

    Each tensor becomes a parameter whose ``data`` and ``grad`` are views
    into the buffers, so one vectorised pass over a buffer reaches every
    tensor. A tensor's data is converted to ``dtype``; its gradient is
    copied when it has one, else starts at zero. Without ``grad`` each
    tensor's gradient is dropped, to None.
    """
    tensors = list(tensors)
    size = sum(t.data.size for t in tensors)
    data = np.empty(size, dtype=dtype)
    flat_grad = np.zeros(size, dtype=dtype) if grad else None
    lo = 0
    for t in tensors:
        hi = lo + t.data.size
        data_view = data[lo:hi].reshape(t.data.shape)
        data_view[...] = t.data
        grad_view = None
        if grad:
            grad_view = flat_grad[lo:hi].reshape(t.data.shape)
            if t.grad is not None:
                grad_view[...] = t.grad
        t.data, t.grad, t.requires_grad = data_view, grad_view, True
        lo = hi
    return data, flat_grad


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class Tape:
    """Ordered record of backward closures for one forward pass."""

    def __init__(self):
        self._nodes = []  # (out_tensor, backward_closure)
        self._spent = False

    def _push(self, out: Tensor, backward_fn):
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every recorded tensor's .grad.

        ``loss`` must be a scalar. The tape is consumed as the pass runs:
        each node is dropped once it has run, so the arrays its backward
        closure saved, and the output tensor with its gradient unless the
        caller holds it, are freed before the pass returns. Calling
        backward a second time raises RuntimeError.
        """
        if self._spent:
            raise RuntimeError("tape has already been consumed by backward()")
        if loss.data.ndim != 0:
            raise ValueError(
                f"backward expects a scalar loss, got shape {loss.data.shape}"
            )
        self._spent = True
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad = loss.grad + 1.0
        nodes = self._nodes
        while nodes:
            out, backward_fn = nodes.pop()
            if out.grad is not None:
                backward_fn(out.grad)


class record:
    """Context manager that opens a fresh tape.

    Usage::

        with record() as tape:
            loss = ...
        tape.backward(loss)

    Nested recording is not supported; ops executed outside any
    ``record()`` block run forward-only and track nothing.
    """

    def __enter__(self) -> Tape:
        global _active_tape
        if _active_tape is not None:
            raise RuntimeError("a tape is already recording; nesting is not supported")
        self.tape = Tape()
        _active_tape = self.tape
        return self.tape

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        return False


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False):
    """Add ``g`` into ``t.grad``, laid out like ``t.data``.

    The first write stores ``g`` itself when the caller owns it
    (``fresh``) and its memory order matches ``t.data``; otherwise it
    copies ``g`` (broadcasting if need be) into a buffer of that layout.
    """
    if t.grad is None:
        if fresh and g.shape == t.data.shape and g.strides == t.data.strides:
            t.grad = g
        else:
            t.grad = np.empty_like(t.data)
            np.copyto(t.grad, g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make_out(data, inputs) -> tuple[Tensor, bool]:
    """Create the op output; report whether the op must be taped."""
    tracked = _active_tape is not None and any(
        isinstance(t, Tensor) and t.requires_grad for t in inputs
    )
    out = Tensor(data, requires_grad=tracked)
    return out, tracked


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out, tracked = _make_out(a.data + b.data, (a, b))
    if tracked:
        def backward_fn(g):
            if a.requires_grad:
                ga = _unbroadcast(g, a.data.shape)
                _accum(a, ga, fresh=ga is not g)
            if b.requires_grad:
                gb = _unbroadcast(g, b.data.shape)
                _accum(b, gb, fresh=gb is not g)
        _active_tape._push(out, backward_fn)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out, tracked = _make_out(a.data - b.data, (a, b))
    if tracked:
        def backward_fn(g):
            if a.requires_grad:
                ga = _unbroadcast(g, a.data.shape)
                _accum(a, ga, fresh=ga is not g)
            if b.requires_grad:
                _accum(b, _unbroadcast(-g, b.data.shape), fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out, tracked = _make_out(a.data * b.data, (a, b))
    if tracked:
        ad, bd = a.data, b.data
        def backward_fn(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * bd, a.data.shape), fresh=True)
            if b.requires_grad:
                _accum(b, _unbroadcast(g * ad, b.data.shape), fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float; cheaper than mul with a constant."""
    c = float(c)
    out, tracked = _make_out(a.data * c, (a,))
    if tracked:
        def backward_fn(g):
            _accum(a, g * c, fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def exp(a: Tensor) -> Tensor:
    out, tracked = _make_out(np.exp(a.data), (a,))
    if tracked:
        ed = out.data
        def backward_fn(g):
            _accum(a, g * ed, fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def log(a: Tensor) -> Tensor:
    out, tracked = _make_out(np.log(a.data), (a,))
    if tracked:
        ad = a.data
        def backward_fn(g):
            _accum(a, g / ad, fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def relu(a: Tensor) -> Tensor:
    out, tracked = _make_out(np.maximum(a.data, 0.0), (a,))
    if tracked:
        positive = a.data > 0.0
        def backward_fn(g):
            _accum(a, g * positive, fresh=True)
        _active_tape._push(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# reductions and shape ops


def tensor_sum(a: Tensor) -> Tensor:
    out, tracked = _make_out(a.data.sum(), (a,))
    if tracked:
        shape = a.data.shape
        def backward_fn(g):
            _accum(a, np.broadcast_to(g, shape))
        _active_tape._push(out, backward_fn)
    return out


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out, tracked = _make_out(a.data.mean(), (a,))
    if tracked:
        shape = a.data.shape
        def backward_fn(g):
            _accum(a, np.broadcast_to(g / n, shape))
        _active_tape._push(out, backward_fn)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out, tracked = _make_out(a.data.reshape(shape), (a,))
    if tracked:
        def backward_fn(g):
            _accum(a, g.reshape(old))
        _active_tape._push(out, backward_fn)
    return out


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out, tracked = _make_out(np.ascontiguousarray(a.data.transpose(axes)), (a,))
    if tracked:
        inverse = tuple(np.argsort(axes))
        def backward_fn(g):
            _accum(a, g.transpose(inverse))
        _active_tape._push(out, backward_fn)
    return out


def unsqueeze(a: Tensor, axis: int) -> Tensor:
    return reshape(a, a.data.shape[:axis] + (1,) + a.data.shape[axis:])


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out, tracked = _make_out(
        np.concatenate([t.data for t in tensors], axis=axis), tensors
    )
    if tracked:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def backward_fn(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    _accum(t, g[tuple(idx)])
        _active_tape._push(out, backward_fn)
    return out


def take_rows(table: Tensor, idx) -> Tensor:
    """Row lookup ``table[idx]``; backward scatter-adds into the table."""
    idx = np.asarray(idx)
    out, tracked = _make_out(table.data[idx], (table,))
    if tracked:
        def backward_fn(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)
        _active_tape._push(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product (m,k) @ (k,n)."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    out, tracked = _make_out(a.data @ b.data, (a, b))
    if tracked:
        ad, bd = a.data, b.data
        def backward_fn(g):
            if a.requires_grad:
                _accum(a, g @ bd.T, fresh=True)
            if b.requires_grad:
                _accum(b, ad.T @ g, fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(B, C, T) -> contiguous (C, B*T); free when ``a`` is already
    stored channel-major, as conv1d and layer_norm outputs are."""
    batch, c, t_len = a.shape
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(c, batch * t_len)


def _batch_major_view(a2: np.ndarray, batch: int, t_len: int) -> np.ndarray:
    """(C, B*T) -> a (B, C, T) view of the same memory."""
    return a2.reshape(a2.shape[0], batch, t_len).transpose(1, 0, 2)


def _check_batched(op: str, x: Tensor):
    if x.data.ndim != 3:
        raise ValueError(
            f"{op} expects a batched (B, C, T) input, got shape {x.data.shape}"
        )


def segment_edges(lengths, batch: int, t_len: int) -> tuple:
    """The first and the last flat column of every sequence, as two arrays.

    The columns are the B*T of a channel-major (C, B*T) matrix. ``lengths``
    are those of sequences packed back to back along T, alike in every
    row: integers >= 1 that sum to T, or None for one sequence per row.
    A sequence of length 1 has the same column in both.
    """
    if lengths is None:
        # one sequence per row; rows with no steps hold none
        seg = np.full(batch if t_len else 0, t_len)
    else:
        seg = np.asarray(lengths)
        if not (seg.ndim == 1 and seg.dtype.kind in "iu" and np.all(seg >= 1)
                and seg.sum() == t_len):
            raise ValueError(f"segment lengths {lengths!r} must be integers >= 1 "
                             f"that sum to T = {t_len}")
        seg = np.tile(seg, batch)
    ends = np.cumsum(seg)
    return ends - seg, ends - 1


def fill_taps(taps: np.ndarray, first, last):
    """Fill taps[0] and taps[2] with taps[1] shifted one column right and
    left, zero where the shift leaves a sequence: taps[j][..., m] is
    taps[1][..., m + j - 1], as a width-3 convolution reads it.

    ``taps`` is a (3, ...) array or a sequence of three arrays whose
    last axis holds the flat columns; ``first`` and ``last`` are the
    columns ``segment_edges`` gives.
    """
    taps[0][..., 1:] = taps[1][..., :-1]
    taps[0][..., first] = 0.0
    taps[2][..., :-1] = taps[1][..., 1:]
    taps[2][..., last] = 0.0


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, lengths=None) -> Tensor:
    """1-D convolution over the time axis with same zero padding.

    Parameters
    ----------
    x : Tensor
        Input of shape (B, C_in, T); one sequence is a batch of one.
    weight : Tensor
        Kernel of shape (C_out, C_in, k), of width k = 1 or 3; any other
        width raises ValueError.
    bias : Tensor
        Shape (C_out,).
    lengths : sequence of int, optional
        Sequences packed back to back along T, the same in every row:
        their lengths, each >= 1, summing to T. A tap that would cross
        from one sequence into the next reads zero, as it does past
        either end of T. None means one sequence per row, the segment
        list [T] * B.

    The batch is flattened to B*T columns of a channel-major matrix.
    For k=3 the forward pass fills a (C_in, 3, B*T) patch matrix with
    the input as its centre tap and its two shifted copies from
    ``fill_taps``, and performs one dgemm; for k=1 the channel-major
    input itself is that matrix, with no copy. The backward pass is
    two dgemms, after which each input step sums its taps' shifted
    slices in tap order. The forward and backward passes zero the same
    columns. The output is (B, C_out, T); its memory is channel-major.
    """
    _check_batched("conv1d", x)
    c_out, c_in, k = weight.data.shape
    if k not in (1, 3):
        raise ValueError(f"conv1d kernel width must be 1 or 3, got {k}")
    batch, x_channels, t_len = x.data.shape
    if x_channels != c_in:
        raise ValueError(
            f"conv1d channel mismatch: input has {x_channels}, weight wants {c_in}"
        )
    first, last = segment_edges(lengths, batch, t_len)
    n = batch * t_len
    xc = _channel_major(x.data)
    if k == 1:
        # one tap with no shift: the channel-major input is the patch matrix
        patches = xc
    else:
        # patches[i, j, m] = x[i, m + j - 1] within m's sequence, else zero
        patches = np.empty((c_in, 3, n), dtype=xc.dtype)
        patches[:, 1] = xc
        # the edge taps read xc, not patches[:, 1]: its rows interleave
        # with theirs, and numpy copies an overlapping source first
        fill_taps((patches[:, 0], xc, patches[:, 2]), first, last)
        patches = patches.reshape(c_in * 3, n)
    w2 = weight.data.reshape(c_out, c_in * k)
    out2 = w2 @ patches
    out2 += bias.data[:, None]
    out, tracked = _make_out(_batch_major_view(out2, batch, t_len), (x, weight, bias))
    if tracked:
        def backward_fn(g):
            g2 = _channel_major(g)
            if weight.requires_grad:
                _accum(weight, (g2 @ patches.T).reshape(weight.data.shape), fresh=True)
            if bias.requires_grad:
                _accum(bias, g2.sum(axis=1), fresh=True)
            if x.requires_grad:
                gx = w2.T @ g2
                if k == 3:
                    gp = gx.reshape(c_in, 3, n)
                    # drop the edge taps' terms that fall outside their
                    # sequence, so the flat shifted sums below add +0.0
                    # there; every input step then sums its taps in the
                    # same order as a window scatter into a zeroed buffer
                    gp[:, 0, first] = 0.0
                    gp[:, 2, last] = 0.0
                    gx = np.empty((c_in, n), dtype=gp.dtype)
                    gx[:, :-1] = gp[:, 0, 1:]
                    gx[:, -1:] = 0.0
                    gx += gp[:, 1]
                    gx[:, 1:] += gp[:, 2, :-1]
                _accum(x, _batch_major_view(gx, batch, t_len), fresh=True)
        _active_tape._push(out, backward_fn)
    return out


def _sum_batch_time(a2: np.ndarray, batch: int, t_len: int) -> np.ndarray:
    """Per-channel sum of a (C, B*T) matrix, in the order numpy sums a
    (B, C, T) array over axes (0, 2): pairwise over each sequence, then
    sequence by sequence."""
    per_seq = a2.reshape(a2.shape[0], batch, t_len).sum(axis=2)
    return np.ascontiguousarray(per_seq.T).sum(axis=0)


def centre_columns(xc: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Centre each column of the (C, N) matrix ``xc`` into ``out``; return
    the (N,) inverse standard deviations, 1 / sqrt(var + LAYER_NORM_EPS).

    ``out`` times the returned row is layer_norm's normalised input.
    ``out`` may be ``xc`` itself; ``scratch``, of the same shape, is
    overwritten with the squared deviations.
    """
    mu = xc.mean(axis=0)
    np.subtract(xc, mu, out=out)
    np.square(out, out=scratch)
    var = scratch.sum(axis=0)
    var /= len(xc)
    return 1.0 / np.sqrt(var + LAYER_NORM_EPS)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each time step across channels, then apply gain and bias.

    Input is (B, C, T), one sequence being a batch of one; gain and bias
    are (C,). Uses the population variance (no Bessel correction) plus
    ``LAYER_NORM_EPS``. The work runs on a channel-major (C, B*T)
    matrix, so every channel sum is one long vectorised pass; the
    output's memory is channel-major.
    """
    _check_batched("layer_norm", x)
    batch, c, t_len = x.data.shape
    xc = _channel_major(x.data)
    xhat, out2 = np.empty_like(xc), np.empty_like(xc)
    inv_std = centre_columns(xc, xhat, out2)
    xhat *= inv_std
    np.multiply(gain.data[:, None], xhat, out=out2)
    out2 += bias.data[:, None]
    out, tracked = _make_out(_batch_major_view(out2, batch, t_len), (x, gain, bias))
    if tracked:
        def backward_fn(g):
            gc = _channel_major(g)
            prod = gc * xhat
            if gain.requires_grad:
                _accum(gain, _sum_batch_time(prod, batch, t_len), fresh=True)
            if bias.requires_grad:
                _accum(bias, _sum_batch_time(gc, batch, t_len), fresh=True)
            if x.requires_grad:
                # gx = inv_std / c * (c*gxhat - sum(gxhat) - xhat*sum(gxhat*xhat))
                gxhat = gc * gain.data[:, None]
                np.multiply(gxhat, xhat, out=prod)
                s2 = prod.sum(axis=0)
                gx = np.multiply(c, gxhat)
                gx -= gxhat.sum(axis=0)
                np.multiply(xhat, s2, out=prod)
                gx -= prod
                gx *= inv_std / c
                _accum(x, _batch_major_view(gx, batch, t_len), fresh=True)
        _active_tape._push(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# optimisation


class Adam:
    """Adam with bias correction over named parameters, at the decay
    rates ADAM_BETA1 and ADAM_BETA2 and the denominator term ADAM_EPS.

    ``params`` is a dict mapping names to parameter Tensors, the master
    weights; their data, the moments and the update are float64. The
    optimizer takes over their storage (:func:`flatten`): each
    parameter's ``data`` becomes a view into the flat buffer
    ``flat_data``, so an update is a fixed sequence of vectorised passes
    over all parameters at once, run block by block.

    ``step()`` reads the gradients, and resets them to zero, in one of
    two places:

    * without ``working``, in the parameters themselves, whose ``grad``
      become views into a flat float64 buffer;
    * with ``working``, a dict of the same names and shapes holding a
      copy of the model in another dtype (:mod:`durflow.training` runs
      its steps on a float32 copy), in that copy. Its data and gradients
      become views into two flat buffers of its dtype, and the masters
      carry no gradient buffer. Each block of the copy's gradient is
      converted into a float64 scratch block before the update, and the
      block's updated masters are written back into the copy's data.

    Before anything is updated, a non-finite gradient aborts with the
    offending parameter's name.

    The update takes the reordered form of Kingma and Ba (arXiv
    1412.6980, section 2, the paragraph after Algorithm 1), with bc1 and
    bc2 the bias corrections 1 - beta**t:

        theta -= (lr * sqrt(bc2) / bc1) * m / (sqrt(v) + eps * sqrt(bc2))

    In real arithmetic this is lr * m_hat / (sqrt(v_hat) + eps) exactly,
    eps included; it folds both corrections into two scalars, so a block
    takes one square root and one divide.
    """

    def __init__(self, params: dict, lr=1e-3, working: dict = None):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        if working is None:
            self.flat_data, self._grad = flatten(self.params.values())
            copy, tensors = None, self.params.items()
        else:
            shapes = [(name, p.data.shape) for name, p in self.params.items()]
            if [(name, w.data.shape) for name, w in working.items()] != shapes:
                raise ValueError("the working copy's parameters must match the "
                                 "masters' names and shapes, in order")
            self.flat_data, _ = flatten(self.params.values(), grad=False)
            dtype = next(iter(working.values())).data.dtype
            copy, self._grad = flatten(working.values(), dtype)
            tensors = [*self.params.items(), *working.items()]
        size = self.flat_data.size
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        # (name, tensor, data view, grad view); a master's grad view is
        # None when the gradients are read from the working copy
        self._views = [(name, p, p.data, p.grad) for name, p in tensors]
        # the update runs block by block so that its passes stay in cache;
        # a float64 gradient is read in place, any other through scratch
        num, den, scratch = (np.empty(_ADAM_BLOCK) for _ in range(3))
        self._blocks = []
        for lo in range(0, size, _ADAM_BLOCK):
            hi = min(size, lo + _ADAM_BLOCK)
            source = self._grad[lo:hi]
            g = source if copy is None else scratch[:hi - lo]
            self._blocks.append((self.flat_data[lo:hi], source, g, self._m[lo:hi],
                                 self._v[lo:hi], num[:hi - lo], den[:hi - lo],
                                 None if copy is None else copy[lo:hi]))

    def _check_finite(self):
        # a finite sum proves every entry finite. Summed in float64, float32
        # gradients cannot overflow; float64 ones can, and the search below
        # then finds nothing to report
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(self._grad.sum(dtype=np.float64)):
                return
        for name, _, _, grad in self._views:
            if grad is not None and not np.all(np.isfinite(grad)):
                raise FloatingPointError(
                    f"non-finite gradient for parameter '{name}'"
                )

    def step(self):
        for name, p, data, grad in self._views:
            if p.data is not data or p.grad is not grad:
                raise RuntimeError(
                    f"parameter '{name}' was rebound outside the optimizer"
                )
        self._check_finite()
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        step_size = self.lr * np.sqrt(bc2) / bc1
        eps = ADAM_EPS * np.sqrt(bc2)
        for theta, source, g, m, v, num, den, copy in self._blocks:
            if g is not source:
                g[...] = source
            m *= b1
            np.multiply(g, 1.0 - b1, out=num)
            m += num
            v *= b2
            np.multiply(g, 1.0 - b2, out=num)
            num *= g
            v += num
            np.sqrt(v, out=den)
            den += eps
            np.divide(m, den, out=num)
            num *= step_size
            theta -= num
            source[...] = 0.0
            if copy is not None:
                copy[...] = theta
