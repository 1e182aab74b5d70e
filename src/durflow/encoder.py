"""Text-encoder stub: phone ids to conditioning vectors.

Phones are interleaved with a blank token before encoding, so each
phone is represented by two encoder vectors (itself and the blank that
follows it); a :class:`PhoneSequence` always holds interleaved ids. The
encoder takes a (B, T) batch of them, one sequence being a batch of
one, or a list of sequences of any lengths, which it encodes packed back
to back in one row, each as if alone. Its body is deliberately small:
embedding lookup, one width-3 convolution, layer norm, ReLU.
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
        if self.ids.size and not np.all(self.ids[1::2] == BLANK_ID):
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
    """Embedding -> conv1d(k=3) -> layer norm -> ReLU, dimension D=192."""

    def __init__(self, vocab_size: int, rng: np.random.Generator, dim: int = ENCODER_DIM):
        self.embed = nn.Embedding(vocab_size, dim, rng)
        self.conv = nn.Conv1d(dim, dim, 3, rng)
        self.norm = nn.LayerNorm(dim)

    def __call__(self, ids) -> Tensor:
        """ids (B, T) -> (B, D, T); one sequence is a batch of one. A list
        of 1-D id arrays -> (1, D, N), the sequences packed along N."""
        if isinstance(ids, list):
            h = self.embed(np.concatenate(ids)[None])
            h = nm.conv1d(h, self.conv.weight, self.conv.bias, [len(row) for row in ids])
        else:
            h = self.conv(self.embed(ids))
        return nm.relu(self.norm(h))

