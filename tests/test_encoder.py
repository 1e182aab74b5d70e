import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from durflow import encoder as enc
from durflow.encoder import (
    BLANK_ID,
    PhoneSequence,
    TextEncoder,
    encode,
    interleave_blanks,
)


class TestInterleave:
    def test_single_phone(self):
        assert interleave_blanks([5]).tolist() == [5, BLANK_ID]

    def test_empty(self):
        assert interleave_blanks([]).tolist() == []

    def test_three_phones(self):
        got = interleave_blanks([3, 4, 5])
        assert got.tolist() == [3, BLANK_ID, 4, BLANK_ID, 5, BLANK_ID]

    def test_existing_blank_rejected(self):
        with pytest.raises(ValueError):
            interleave_blanks([3, BLANK_ID, 4])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), max_size=20))
    def test_length_doubles_and_blanks_at_odd_positions(self, ids):
        out = interleave_blanks(ids)
        assert out.size == 2 * len(ids)
        assert np.all(out[1::2] == BLANK_ID)
        assert out[0::2].tolist() == ids


class TestPhoneSequence:
    def test_interleave_method_sets_flag(self):
        seq = PhoneSequence(np.array([3, 4])).interleave()
        assert seq.interleaved
        assert len(seq) == 4

    def test_invalid_interleaved_structure_rejected(self):
        with pytest.raises(ValueError):
            PhoneSequence(np.array([3, 4]), interleaved=True)
        with pytest.raises(ValueError):
            PhoneSequence(np.array([3, BLANK_ID, 4]), interleaved=True)

    def test_equality(self):
        a = PhoneSequence(np.array([3, 4])).interleave()
        b = PhoneSequence(np.array([3, 4])).interleave()
        c = PhoneSequence(np.array([3, 5])).interleave()
        assert a == b
        assert a != c


class TestEncode:
    def make_encoder(self, seed=0):
        return TextEncoder(10, np.random.default_rng(seed))

    def test_deterministic(self):
        e = self.make_encoder()
        seq = PhoneSequence(np.array([3, 4, 5])).interleave()
        a = encode(seq, e)
        b = encode(seq, e)
        assert np.array_equal(a.vectors.data, b.vectors.data)

    def test_output_shape_is_dim_by_double_length(self):
        e = self.make_encoder()
        seq = PhoneSequence(np.array([3, 4, 5])).interleave()
        cond = encode(seq, e)
        assert cond.vectors.data.shape == (192, 6)

    def test_non_interleaved_rejected(self):
        e = self.make_encoder()
        with pytest.raises(ValueError):
            encode(PhoneSequence(np.array([3, 4])), e)

    def test_permuting_phones_changes_affected_columns(self):
        e = self.make_encoder()
        a = encode(PhoneSequence(np.array([3, 4, 5, 6])).interleave(), e)
        b = encode(PhoneSequence(np.array([3, 5, 4, 6])).interleave(), e)
        # phones at positions 1 and 2 swapped -> interleaved columns 2 and 4
        assert not np.allclose(a.vectors.data[:, 2], b.vectors.data[:, 2])
        assert not np.allclose(a.vectors.data[:, 4], b.vectors.data[:, 4])

    def test_changing_one_phone_is_local_to_receptive_field(self):
        e = self.make_encoder()
        ids_a = np.array([3, 4, 5, 6, 7, 8])
        ids_b = ids_a.copy()
        ids_b[2] = 9  # interleaved position 4
        a = encode(PhoneSequence(ids_a).interleave(), e).vectors.data
        b = encode(PhoneSequence(ids_b).interleave(), e).vectors.data
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
            seq = PhoneSequence(ids[n, 0::2]).interleave()
            assert np.array_equal(encode(seq, e).vectors.data, single[0])

    def test_encoder_param_count(self):
        from durflow.nn import param_count
        e = self.make_encoder()
        expected = 10 * 192 + (192 * 192 * 3 + 192) + 2 * 192
        assert param_count(e.params()) == expected
