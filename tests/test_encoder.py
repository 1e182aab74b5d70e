import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from durflow.encoder import (
    BLANK_ID,
    PhoneSequence,
    TextEncoder,
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
