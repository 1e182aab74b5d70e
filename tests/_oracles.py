"""Independent reference implementations used to check the library.

Everything in this module is written straight from the defining formula
(loops, math.erf, central differences) without reusing library code, so
a bug in durflow cannot hide in its own test oracle. The one exception
is ``per_token_sentence``: the corpus generator as it was written before
its draws were tabulated per class, kept to pin the draw order, so it
builds the library's own sentence types around its draws.
"""

import math

import numpy as np

from durflow.data import Sentence, round_half_away, zero_allowed
from durflow.encoder import BLANK_ID, FILLER_ID, PAUSE_ID, PhoneSequence
from durflow.numerics import parameter, record


def fd_gradcheck(fn, arrays, h=1e-5):
    """Max relative error of tape gradients vs central finite differences.

    ``fn`` maps Tensors to a scalar Tensor loss. ``arrays`` are the
    float64 leaf values. Returns the worst error over all leaves,
    where error = ||g_tape - g_fd||_inf / max(||g_fd||_inf, 1e-8).
    """
    params = [parameter(np.array(a, dtype=np.float64)) for a in arrays]
    with record() as tape:
        loss = fn(*params)
    tape.backward(loss)
    worst = 0.0
    for i, a in enumerate(arrays):
        fd = np.zeros(params[i].data.shape, dtype=np.float64)
        flat_data = params[i].data.reshape(-1)
        flat_fd = fd.reshape(-1)
        for j in range(flat_data.size):
            orig = flat_data[j]
            flat_data[j] = orig + h
            f_plus = fn(*params).item()
            flat_data[j] = orig - h
            f_minus = fn(*params).item()
            flat_data[j] = orig
            flat_fd[j] = (f_plus - f_minus) / (2.0 * h)
        denom = max(np.max(np.abs(fd)), 1e-8)
        err = np.max(np.abs(params[i].grad - fd)) / denom
        worst = max(worst, err)
    return worst


def fd_gradcheck_params(loss_fn, params, h=1e-5):
    """Like fd_gradcheck, but for existing parameter Tensors.

    ``loss_fn`` takes no arguments and reads the params by closure; the
    params must carry no gradient yet (``grad`` None).
    """
    with record() as tape:
        loss = loss_fn()
    tape.backward(loss)
    worst = 0.0
    for p in params:
        fd = np.zeros(p.data.shape, dtype=np.float64)
        flat_data = p.data.reshape(-1)
        flat_fd = fd.reshape(-1)
        for j in range(flat_data.size):
            orig = flat_data[j]
            flat_data[j] = orig + h
            f_plus = loss_fn().item()
            flat_data[j] = orig - h
            f_minus = loss_fn().item()
            flat_data[j] = orig
            flat_fd[j] = (f_plus - f_minus) / (2.0 * h)
        denom = max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, np.max(np.abs(p.grad - fd)) / denom)
    return worst


def ref_conv1d(x, w, b):
    """Direct triple-loop 1-D convolution with same zero padding."""
    batch, c_in, t_len = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    out = np.zeros((batch, c_out, t_len))
    for n in range(batch):
        for o in range(c_out):
            for t in range(t_len):
                acc = b[o]
                for i in range(c_in):
                    for j in range(k):
                        src = t + j - pad
                        if 0 <= src < t_len:
                            acc += w[o, i, j] * x[n, i, src]
                out[n, o, t] = acc
    return out


def window_scatter_conv1d_grads(x, w, g):
    """Gradients of a same-padded conv1d, computed batch-major.

    This is the im2col formulation: pad the input, gather its sliding
    windows into a (C_in*k, B*T) patch matrix, take the weight and bias
    gradients from dgemms against the upstream gradient ``g``, and
    scatter the input gradient window by window into a zeroed, padded
    buffer. Returns (grad_x, grad_w, grad_b) for a zero-initialised
    accumulation; each input step sums its taps in tap order.
    """
    batch, c_in, t_len = x.shape
    c_out, _, k = w.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    patches = np.ascontiguousarray(windows.transpose(1, 3, 0, 2)).reshape(
        c_in * k, batch * t_len
    )
    g2 = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(c_out, batch * t_len)
    grad_w = (g2 @ patches.T).reshape(w.shape)
    grad_b = g2.sum(axis=1)
    gp = (w.reshape(c_out, c_in * k).T @ g2).reshape(c_in, k, batch, t_len)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, :, j : j + t_len] += gp[:, j].transpose(1, 0, 2)
    return gxp[:, :, pad : pad + t_len], grad_w, grad_b


def copied_patch_pointwise_conv1d(x, w, b, g):
    """A k=1 conv1d and its adjoint through an explicitly copied
    (C_in, B*T) patch matrix, the way every kernel width once built it.

    Returns (out, grad_x, grad_w, grad_b) for upstream gradient ``g``,
    in the dtype of the inputs.
    """
    batch, c_in, t_len = x.shape
    c_out = w.shape[0]
    n = batch * t_len
    patches = np.empty((c_in, n), dtype=x.dtype)
    patches[...] = x.transpose(1, 0, 2).reshape(c_in, n)
    w2 = w.reshape(c_out, c_in)
    g2 = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(c_out, n)
    out = w2 @ patches
    out += b[:, None]
    grad_x = np.empty((c_in, n), dtype=x.dtype)
    grad_x[...] = w2.T @ g2

    def batch_major(a2):
        return a2.reshape(a2.shape[0], batch, t_len).transpose(1, 0, 2)

    return (batch_major(out), batch_major(grad_x), (g2 @ patches.T).reshape(w.shape),
            g2.sum(axis=1))


def batch_major_layer_norm(x, gain, bias, g, eps=1e-5):
    """Layer norm and its adjoint, vectorised over a (B, C, T) array.

    Returns (out, grad_x, grad_gain, grad_bias) for upstream gradient
    ``g``, each channel sum taken by numpy over axis 1 of the
    batch-major array.
    """
    c = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    out = gain[:, None] * xhat + bias[:, None]
    gxhat = g * gain[:, None]
    term = (
        c * gxhat
        - gxhat.sum(axis=1, keepdims=True)
        - xhat * (gxhat * xhat).sum(axis=1, keepdims=True)
    )
    grad_x = inv_std / c * term
    grad_gain = (g * xhat).sum(axis=(0, 2))
    grad_bias = g.sum(axis=(0, 2))
    return out, grad_x, grad_gain, grad_bias


def ref_layer_norm(x, gain, bias, eps=1e-5):
    """Per-time-step channel normalisation, population variance."""
    out = np.zeros_like(x)
    for n in range(x.shape[0]):
        for t in range(x.shape[2]):
            col = x[n, :, t]
            mu = col.mean()
            var = ((col - mu) ** 2).mean()
            out[n, :, t] = gain * (col - mu) / math.sqrt(var + eps) + bias
    return out


def ref_adam(theta0, grads, lr=1e-3, beta1=0.9, beta2=0.98, eps=1e-9):
    """Replay a gradient sequence through textbook Adam; returns final theta."""
    theta = np.array(theta0, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def ref_sinusoidal(t_values, dim, scale=1000.0, base=10000.0):
    """Interleaved sin/cos positional features for scalar times."""
    t_values = np.atleast_1d(np.asarray(t_values, dtype=np.float64))
    half = dim // 2
    out = np.zeros((t_values.size, dim))
    for n, t in enumerate(t_values):
        for i in range(half):
            freq = 1.0 / base ** (i / half)
            angle = scale * t * freq
            out[n, 2 * i] = math.sin(angle)
            out[n, 2 * i + 1] = math.cos(angle)
    return out


def gradient_cases():
    """Named (fn, arrays) pairs covering every differentiable op.

    Each fn maps leaf Tensors to a scalar loss with a nontrivial
    gradient everywhere, using fixed random projection weights so no
    cancellation hides an error.
    """
    from durflow import numerics as nm

    rng = np.random.default_rng(20260816)

    def proj(shape):
        return nm.Tensor(rng.normal(size=shape))

    cases = []

    w1 = proj((3, 4, 5))
    cases.append((
        "add_broadcast",
        lambda a, b: nm.tensor_sum(nm.mul(nm.add(a, b), w1)),
        [rng.normal(size=(3, 4, 5)), rng.normal(size=(4, 1))],
    ))
    w2 = proj((3, 4, 5))
    cases.append((
        "sub_broadcast",
        lambda a, b: nm.tensor_sum(nm.mul(nm.sub(a, b), w2)),
        [rng.normal(size=(3, 4, 5)), rng.normal(size=(5,))],
    ))
    w3 = proj((2, 3, 4))
    cases.append((
        "mul_broadcast",
        lambda a, b: nm.tensor_sum(nm.mul(nm.mul(a, b), w3)),
        [rng.normal(size=(2, 3, 4)), rng.normal(size=(3, 1))],
    ))
    w4 = proj((4, 3))
    cases.append((
        "scale",
        lambda a: nm.tensor_sum(nm.mul(nm.scale(a, -1.7), w4)),
        [rng.normal(size=(4, 3))],
    ))
    w5 = proj((3, 5))
    cases.append((
        "exp",
        lambda a: nm.tensor_sum(nm.mul(nm.exp(a), w5)),
        [rng.uniform(-1.0, 1.0, size=(3, 5))],
    ))
    w6 = proj((3, 5))
    cases.append((
        "log",
        lambda a: nm.tensor_sum(nm.mul(nm.log(a), w6)),
        [rng.uniform(0.5, 2.0, size=(3, 5))],
    ))
    w7 = proj((4, 6))
    relu_in = rng.normal(size=(4, 6))
    relu_in[np.abs(relu_in) < 0.1] = 0.5  # keep clear of the kink
    cases.append((
        "relu",
        lambda a: nm.tensor_sum(nm.mul(nm.relu(a), w7)),
        [relu_in],
    ))
    cases.append((
        "sum",
        lambda a: nm.tensor_sum(a),
        [rng.normal(size=(3, 4))],
    ))
    cases.append((
        "mean_of_square",
        lambda a: nm.mean(nm.mul(a, a)),
        [rng.normal(size=(2, 3, 4))],
    ))
    w8 = proj((4, 6))
    cases.append((
        "reshape_permute",
        lambda a: nm.tensor_sum(
            nm.mul(nm.permute(nm.reshape(a, (6, 4)), (1, 0)), w8)
        ),
        [rng.normal(size=(2, 3, 4))],
    ))
    w9 = proj((2, 3, 3))
    cases.append((
        "concat",
        lambda a, b: nm.tensor_sum(
            nm.mul(nm.concat([a, nm.reshape(b, (2, 1, 3))], axis=1), w9)
        ),
        [rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 3))],
    ))
    w10 = proj((5, 4))
    idx = np.array([0, 2, 2, 5, 1])
    cases.append((
        "take_rows_repeated",
        lambda tbl: nm.tensor_sum(nm.mul(nm.take_rows(tbl, idx), w10)),
        [rng.normal(size=(6, 4))],
    ))
    w11 = proj((3, 2))
    cases.append((
        "matmul",
        lambda a, b: nm.tensor_sum(nm.mul(nm.matmul(a, b), w11)),
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
    ))
    # the "_2d" cases are a single sequence, passed as a batch of one
    w12 = proj((1, 2, 7))
    cases.append((
        "conv1d_2d",
        lambda x, w, b: nm.tensor_sum(nm.mul(nm.conv1d(x, w, b), w12)),
        [rng.normal(size=(1, 3, 7)), rng.normal(size=(2, 3, 3)), rng.normal(size=(2,))],
    ))
    w13 = proj((2, 4, 6))
    cases.append((
        "conv1d_batched",
        lambda x, w, b: nm.tensor_sum(nm.mul(nm.conv1d(x, w, b), w13)),
        [rng.normal(size=(2, 3, 6)), rng.normal(size=(4, 3, 3)), rng.normal(size=(4,))],
    ))
    w14 = proj((2, 2, 5))
    cases.append((
        "conv1d_pointwise",
        lambda x, w, b: nm.tensor_sum(nm.mul(nm.conv1d(x, w, b), w14)),
        [rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3, 1)), rng.normal(size=(2,))],
    ))
    w15 = proj((1, 4, 5))
    cases.append((
        "layer_norm_2d",
        lambda x, g, b: nm.tensor_sum(nm.mul(nm.layer_norm(x, g, b), w15)),
        [rng.normal(size=(1, 4, 5)),
         rng.uniform(0.5, 1.5, size=(4,)),
         rng.normal(size=(4,))],
    ))
    w16 = proj((2, 4, 5))
    cases.append((
        "layer_norm_batched",
        lambda x, g, b: nm.tensor_sum(nm.mul(nm.layer_norm(x, g, b), w16)),
        [rng.normal(size=(2, 4, 5)),
         rng.uniform(0.5, 1.5, size=(4,)),
         rng.normal(size=(4,))],
    ))

    comp_idx = rng.integers(0, 5, size=(2, 6))
    comp_mask = np.ones((2, 1, 6))
    comp_mask[1, 0, 4:] = 0.0
    mask_t = nm.Tensor(comp_mask)
    target = nm.Tensor(rng.normal(size=(2, 1, 6)))
    inv_count = 1.0 / comp_mask.sum()

    def composite(tbl, w_a, b_a, g_a, gb_a, w_b, b_b):
        h = nm.permute(nm.take_rows(tbl, comp_idx), (0, 2, 1))
        h = nm.conv1d(h, w_a, b_a)
        h = nm.relu(nm.layer_norm(h, g_a, gb_a))
        out = nm.conv1d(h, w_b, b_b)
        diff = nm.sub(out, target)
        return nm.scale(nm.tensor_sum(nm.mul(mask_t, nm.mul(diff, diff))), inv_count)

    cases.append((
        "composite_network",
        composite,
        [rng.normal(size=(5, 4)) * 0.5,
         rng.normal(size=(4, 4, 3)) * 0.5,
         rng.normal(size=(4,)) * 0.1,
         rng.uniform(0.5, 1.5, size=(4,)),
         rng.normal(size=(4,)) * 0.1,
         rng.normal(size=(1, 4, 1)) * 0.5,
         rng.normal(size=(1,)) * 0.1],
    ))
    # three sequences of lengths 3, 1 and 4 packed back to back in each row
    w17 = proj((2, 4, 8))
    cases.append((
        "conv1d_segments",
        lambda x, w, b: nm.tensor_sum(nm.mul(nm.conv1d(x, w, b, [3, 1, 4]), w17)),
        [rng.normal(size=(2, 3, 8)), rng.normal(size=(4, 3, 3)), rng.normal(size=(4,))],
    ))
    # a conv block's tail, as the fm predictor runs it: a time row added
    # to a packed convolution's output (lengths 2, 1 and 3), ReLU, layer
    # norm; redrawn until every pre-activation is clear of the kink
    lengths = [2, 1, 3]
    while True:
        block = [rng.normal(size=(2, 3, 6)), rng.normal(size=(4, 3, 3)),
                 rng.normal(size=(4,)), rng.normal(size=(2, 4))]
        x, w, b, rows = (nm.Tensor(a) for a in block)
        pre = nm.conv1d(x, w, b, lengths).data + rows.data[:, :, None]
        if np.abs(pre).min() > 0.05:
            break
    w18 = proj((2, 4, 6))
    cases.append((
        "relu_norm_rows_segments",
        lambda x, w, b, g, gb, rows: nm.tensor_sum(nm.mul(
            nm.relu_norm(nm.conv1d(x, w, b, lengths), g, gb, rows), w18)),
        [*block[:3], rng.uniform(0.5, 1.5, size=(4,)), rng.normal(size=(4,)), block[3]],
    ))
    return cases


def lognormal_cdf(x, mu, sigma):
    if x <= 0:
        return 0.0
    return 0.5 * (1.0 + math.erf((math.log(x) - mu) / (sigma * math.sqrt(2.0))))


def rounded_lognormal_pmf(mu, sigma, lo=0, hi=4000):
    """PMF of round(X) for X ~ LogNormal(mu, sigma), X rounded half away from zero."""
    ks = np.arange(lo, hi + 1)
    pmf = np.zeros(ks.size)
    for i, k in enumerate(ks):
        pmf[i] = lognormal_cdf(k + 0.5, mu, sigma) - lognormal_cdf(k - 0.5, mu, sigma)
    return ks, pmf


def rounded_lognormal_moments(mu, sigma, min_duration=0):
    """Mean and std of max(min_duration, round(LogNormal(mu, sigma)))."""
    ks, pmf = rounded_lognormal_pmf(mu, sigma)
    ks = np.maximum(ks, min_duration)
    mean = float((ks * pmf).sum())
    second = float((ks.astype(np.float64) ** 2 * pmf).sum())
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def log_domain_mean(mu, sigma, floor=1e-2, min_duration=0):
    """E[ln(max(d, floor))] where d = max(min_duration, round(LogNormal(mu, sigma)))."""
    ks, pmf = rounded_lognormal_pmf(mu, sigma)
    ks = np.maximum(ks, min_duration)
    vals = np.log(np.maximum(ks.astype(np.float64), floor))
    return float((vals * pmf).sum())


def _draw_duration(law: dict, rng: np.random.Generator, floor: int) -> int:
    kind = law["kind"]
    if kind == "lognormal":
        raw = rng.lognormal(law["mu"], law["sigma"])
    elif kind == "mixture":
        weights = [c[0] for c in law["components"]]
        comp = law["components"][rng.choice(len(weights), p=weights)]
        raw = rng.lognormal(comp[1], comp[2])
    elif kind == "discrete":
        return int(rng.choice(law["values"], p=law["probs"]))
    else:
        raise ValueError(f"unknown law kind {kind!r}")
    return max(floor, int(round_half_away(raw)))


def interleave_blanks(phones) -> np.ndarray:
    """The interleaved ids of a list of phones: each followed by a BLANK."""
    ids = []
    for phone in phones:
        ids += [phone, BLANK_ID]
    return np.array(ids, dtype=np.int64)


def per_token_sentence(spec, index: int):
    """One sentence as the per-token generator drew it, with a numpy call
    (rng.choice, rng.uniform, zero_allowed, round_half_away) per draw.
    The library's generator must reproduce it draw for draw."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, index]))
    n_phones = int(rng.integers(spec.min_phones, spec.max_phones + 1))

    phone_ids = spec.phone_class_ids()
    mixture_ids = spec.mixture_class_ids()
    plain_ids = [cid for cid in phone_ids if cid not in mixture_ids] or phone_ids

    tokens = []
    for _ in range(n_phones):
        if mixture_ids and rng.uniform() < spec.bimodal_prob:
            tokens.append(int(rng.choice(mixture_ids)))
        else:
            tokens.append(int(rng.choice(plain_ids)))
        if rng.uniform() < spec.pause_prob:
            tokens.append(PAUSE_ID)
        if rng.uniform() < spec.filler_prob:
            tokens.append(FILLER_ID)

    seq = PhoneSequence(interleave_blanks(tokens))
    durations = np.empty(len(seq), dtype=np.int64)
    for pos, tok in enumerate(seq.ids):
        law = spec.laws[int(tok)]
        floor = 0 if zero_allowed(tok) else 1
        durations[pos] = _draw_duration(law, rng, floor)
    return Sentence(index, seq, durations)
