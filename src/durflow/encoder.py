"""Text-encoder stub: phone ids to conditioning vectors.

Phones are interleaved with a blank token before encoding, so each
phone is represented by two encoder vectors (itself and the blank that
follows it); a :class:`PhoneSequence` always holds interleaved ids. The
encoder takes a (B, T) batch of them, one sequence being a batch of
one, or a list of sequences of any lengths, which it encodes packed back
to back in one row, each as if alone. Its body is deliberately small:
embedding lookup, one width-3 convolution, layer norm, ReLU.

The lookup and the convolution run as one convolution. A convolution
is linear in its input channels and a lookup is a product with a
one-hot matrix, so convolving the embedded tokens with the kernel W is
convolving the (V, T) one-hot tokens with the folded kernel
K[o, v, j] = sum_e W[o, e, j] table[v, e]. K is built on the tape from
both parameters, so their gradients need no adjoint of their own, and
its products read V rows per tap instead of the embedding's E = 192.
That is less work while V < E; every corpus ``durflow gen`` writes has
V = 24. An all-zero one-hot column is the convolution's zero padding,
so the edges of packed sequences read as they did after a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from durflow import numerics as nm
from durflow import nn
from durflow.numerics import Tensor

# reserved token ids shared by the whole package
BLANK_ID = 0
PAUSE_ID = 1
FILLER_ID = 2

ENCODER_DIM = 192


@dataclass
class PhoneSequence:
    """Interleaved token ids over the synthetic alphabet: each phone is
    followed by a BLANK, so the length is even and every odd position
    holds BLANK."""

    ids: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.ids.size % 2 != 0:
            raise ValueError("interleaved sequence must have even length")
        if not (self.ids[1::2] == BLANK_ID).all():
            raise ValueError("interleaved sequence must have BLANK at odd positions")

    def __len__(self):
        return self.ids.size

    def __eq__(self, other):
        return isinstance(other, PhoneSequence) and np.array_equal(self.ids, other.ids)


def interleave_blanks(ids) -> np.ndarray:
    """Insert a BLANK after every phone; output length is exactly 2x.

    The input may not already contain BLANK.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids == BLANK_ID):
        raise ValueError("sequence already contains BLANK tokens")
    out = np.full(2 * ids.size, BLANK_ID, dtype=np.int64)
    out[0::2] = ids
    return out


class TextEncoder(nn.Module):
    """Embedding -> conv1d(k=3) -> layer norm -> ReLU, dimension D=192.

    The embedding and the convolution run as one: the one-hot tokens
    are convolved through the kernel folded from ``conv.weight`` and
    ``embed.table`` (module docstring). The parameters, their names and
    their checkpoint keys are those of the two layers.
    """

    def __init__(self, vocab_size: int, rng: np.random.Generator, dim: int = ENCODER_DIM):
        self.embed = nn.Embedding(vocab_size, dim, rng)
        self.conv = nn.Conv1d(dim, dim, 3, rng)
        self.norm = nn.LayerNorm(dim)

    def __call__(self, ids) -> Tensor:
        """ids (B, T) -> (B, D, T); one sequence is a batch of one. A list
        of 1-D id arrays -> (1, D, N), the sequences packed along N."""
        lengths = None
        if isinstance(ids, list):
            lengths = [len(row) for row in ids]
            ids = np.concatenate(ids)[None]
        table, weight = self.embed.table, self.conv.weight
        vocab, dim = table.data.shape
        ids = nn.token_ids(ids, vocab)
        # K[o, v, j] = sum_e W[o, e, j] table[v, e], as one (V, E) @ (E, O*3)
        kernel = nm.matmul(table, nm.reshape(nm.permute(weight, (1, 0, 2)), (dim, -1)))
        kernel = nm.permute(nm.reshape(kernel, (vocab, -1, 3)), (1, 0, 2))
        h = nm.conv1d(_one_hot(ids, vocab, table.data.dtype), kernel, self.conv.bias, lengths)
        return nm.relu(self.norm(h))


def _one_hot(ids: np.ndarray, vocab: int, dtype) -> Tensor:
    """(B, T) ids -> (B, V, T) one-hot tokens whose memory is channel-major
    (V, B*T), the layout ``nm.conv1d`` reads without a copy."""
    batch, t_len = ids.shape
    onehot = np.zeros((vocab, ids.size), dtype=dtype)
    onehot[ids.ravel(), np.arange(ids.size)] = 1.0
    return Tensor(onehot.reshape(vocab, batch, t_len).transpose(1, 0, 2))

