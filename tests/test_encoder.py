import numpy as np
import pytest

from durflow import nn
from durflow import numerics as nm
from durflow.encoder import BLANK_ID, PhoneSequence, TextEncoder

from _oracles import interleave_blanks


class TestPhoneSequence:
    def test_interleaved_ids_accepted(self):
        seq = PhoneSequence(interleave_blanks([3, 4]))
        assert seq.ids.tolist() == [3, BLANK_ID, 4, BLANK_ID]
        assert len(seq) == 4

    def test_invalid_interleaved_structure_rejected(self):
        with pytest.raises(ValueError):
            PhoneSequence(np.array([3, 4]))
        with pytest.raises(ValueError):
            PhoneSequence(np.array([3, BLANK_ID, 4]))

    def test_equality(self):
        a = PhoneSequence(interleave_blanks([3, 4]))
        b = PhoneSequence(interleave_blanks([3, 4]))
        c = PhoneSequence(interleave_blanks([3, 5]))
        assert a == b
        assert a != c


class TestEncode:
    def make_encoder(self, seed=0):
        return TextEncoder(10, np.random.default_rng(seed))

    def encoded(self, phones, e):
        """The (D, T) encoder output of one sentence: a batch of one."""
        return e(interleave_blanks(phones)[None]).data[0]

    def test_deterministic(self):
        e = self.make_encoder()
        a = self.encoded([3, 4, 5], e)
        b = self.encoded([3, 4, 5], e)
        assert np.array_equal(a, b)

    def test_output_shape_is_dim_by_double_length(self):
        e = self.make_encoder()
        assert e(interleave_blanks([3, 4, 5])[None]).data.shape == (1, 192, 6)

    def test_permuting_phones_changes_affected_columns(self):
        e = self.make_encoder()
        a = self.encoded([3, 4, 5, 6], e)
        b = self.encoded([3, 5, 4, 6], e)
        # phones at positions 1 and 2 swapped -> interleaved columns 2 and 4
        assert not np.allclose(a[:, 2], b[:, 2])
        assert not np.allclose(a[:, 4], b[:, 4])

    def test_changing_one_phone_is_local_to_receptive_field(self):
        e = self.make_encoder()
        ids_a = np.array([3, 4, 5, 6, 7, 8])
        ids_b = ids_a.copy()
        ids_b[2] = 9  # interleaved position 4
        a = self.encoded(ids_a, e)
        b = self.encoded(ids_b, e)
        changed = np.where(np.any(a != b, axis=0))[0]
        assert changed.size > 0
        # conv kernel width 3 -> only columns 3..5 may differ
        assert set(changed.tolist()) <= {3, 4, 5}

    def test_batched_matches_single(self):
        e = self.make_encoder()
        ids = np.array([[3, 0, 4, 0], [5, 0, 6, 0]])
        batched = e(ids).data
        for n in range(2):
            single = e(ids[n][None]).data
            assert single.shape == (1, 192, 4)
            assert np.allclose(batched[n], single[0], atol=1e-12)

    def test_encoder_param_count(self):
        from durflow.nn import param_count
        e = self.make_encoder()
        expected = 10 * 192 + (192 * 192 * 3 + 192) + 2 * 192
        assert param_count(e) == expected


class TestFoldedEmbedding:
    """The encoder convolves one-hot tokens through the kernel folded from
    the embedding table; it must equal the lookup followed by the
    convolution, in value and in every parameter gradient."""

    VOCAB = 24

    def make_encoder(self, seed):
        rng = np.random.default_rng(seed)
        e = TextEncoder(self.VOCAB, rng)
        for p in (e.embed.table, e.conv.weight, e.conv.bias, e.norm.gain, e.norm.bias):
            p.data[...] = rng.normal(scale=0.5, size=p.data.shape)
        return e

    @staticmethod
    def lookup_then_convolve(e, ids):
        lengths = None
        if isinstance(ids, list):
            lengths = [len(row) for row in ids]
            ids = np.concatenate(ids)[None]
        h = nm.permute(nm.take_rows(e.embed.table, ids), (0, 2, 1))
        h = nm.conv1d(h, e.conv.weight, e.conv.bias, lengths)
        return nm.relu(e.norm(h))

    @staticmethod
    def value_and_grads(e, forward, ids, proj):
        params = e.params()
        for p in params.values():
            p.grad = None
        with nm.record() as tape:
            out = forward(ids)
            loss = nm.tensor_sum(nm.mul(out, proj))
        tape.backward(loss)
        return out.data.copy(), {k: params[k].grad.copy()
                                 for k in ("embed.table", "conv.weight", "conv.bias")}

    CASES = {
        "batch": lambda rng: rng.integers(0, 24, size=(3, 7)),
        "T1": lambda rng: rng.integers(0, 24, size=(2, 1)),
        "packed-with-length-1": lambda rng: [rng.integers(0, 24, size=n) for n in (5, 1, 4)],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_lookup_then_convolve(self, case):
        rng = np.random.default_rng(3)
        e = self.make_encoder(seed=len(case))
        ids = self.CASES[case](rng)
        batch, t_len = (1, sum(map(len, ids))) if isinstance(ids, list) else ids.shape
        proj = rng.normal(size=(batch, 192, t_len))
        got, got_grads = self.value_and_grads(e, e, ids, proj)
        want, want_grads = self.value_and_grads(
            e, lambda i: self.lookup_then_convolve(e, i), ids, proj)
        assert got.shape == (batch, 192, t_len)
        assert np.max(np.abs(got - want)) < 1e-12
        for name, grad in want_grads.items():
            assert np.any(grad != 0.0), name
            assert np.max(np.abs(got_grads[name] - grad)) < 1e-12, name

    @pytest.mark.parametrize("case", CASES)
    def test_float32_copy_equals_lookup_then_convolve(self, case):
        rng = np.random.default_rng(5)
        e = self.make_encoder(seed=len(case))
        ids = self.CASES[case](rng)
        got = nn.cast_copy(e, np.float32)(ids).data
        assert got.dtype == np.float32
        want = self.lookup_then_convolve(e, ids).data
        assert np.max(np.abs(got - want)) < 1e-5

    def test_out_of_vocabulary_rejected(self):
        e = self.make_encoder(seed=0)
        with pytest.raises(ValueError, match="token id 24 outside vocabulary of size 24"):
            e(np.array([[3, 24]]))
        with pytest.raises(ValueError, match="token id -1 outside vocabulary of size 24"):
            e([np.array([3, 0]), np.array([-1, 0])])
