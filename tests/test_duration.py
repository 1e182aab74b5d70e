import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from durflow import duration as dur
from durflow import nn
from durflow.duration import (
    DurationModel,
    LogDurations,
    SampleOptions,
    cfm_pair,
    length_regulate,
    load_model,
    log_targets,
    loss,
    quantisation_residual,
    save_model,
    to_frames,
)
from durflow.nn import CheckpointFormatError
from durflow.numerics import Tensor

from _oracles import fd_gradcheck_params


def tiny_model(kind, seed=0):
    return DurationModel(kind, vocab_size=6, seed=seed,
                         encoder_dim=8, hidden=10, noise_dim=4, time_dim=8)


def tiny_cond(model, ids=(3, 0, 4, 0, 5, 0)):
    """The encoder output of one sentence: a batch of one, (1, D, T)."""
    return model.encoder(np.array([ids]))


def tiny_noise(seed, t_len=6):
    return np.random.default_rng(seed).standard_normal((1, 1, t_len))


class TestLogTargets:
    def test_phones_use_plain_log(self):
        got = log_targets([5, 2], [False, False])
        assert np.allclose(got, [np.log(5), np.log(2)])

    def test_zero_allowed_uses_offset_log(self):
        got = log_targets([0, 1, 3], [True, True, True])
        assert np.allclose(got, [np.log(0.01), np.log(1.01), np.log(3.01)])

    def test_zero_on_phone_position_rejected(self):
        with pytest.raises(ValueError):
            log_targets([0], [False])


class TestCfmPair:
    def test_t0_is_pure_noise(self):
        x0 = np.array([1.0, -2.0, 0.5])
        x1 = np.array([3.0, 3.0, 3.0])
        x_t, _ = cfm_pair(x1, x0, 0.0)
        assert np.array_equal(x_t, x0)

    def test_t1_is_data_plus_sigma_noise(self):
        x0 = np.array([1.0, -2.0])
        x1 = np.array([3.0, 5.0])
        x_t, _ = cfm_pair(x1, x0, 1.0, sigma=1e-4)
        assert np.allclose(x_t, x1 + 1e-4 * x0, atol=1e-15)

    def test_midpoint_interpolant_and_slope(self):
        x_t, u_t = cfm_pair(np.array([3.0]), np.array([1.0]), 0.5, sigma=0.0)
        assert np.allclose(x_t, [2.0])
        assert np.allclose(u_t, [2.0])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_endpoint_identities_hold_for_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=5)
        x1 = rng.normal(size=5)
        xt0, u0 = cfm_pair(x1, x0, 0.0)
        xt1, u1 = cfm_pair(x1, x0, 1.0)
        assert np.array_equal(xt0, x0)
        assert np.allclose(xt1, x1 + dur.OT_SIGMA * x0, atol=1e-12)
        # the field is time-independent for the straight-line path
        assert np.array_equal(u0, u1)
        assert np.allclose(u0, x1 - (1 - dur.OT_SIGMA) * x0, atol=1e-12)


IDS = np.array([[3, 0, 4, 0]])
TARGETS = np.array([[0.7, -4.6, 1.1, 0.0]])


class FixedHead:
    """Stand-in det head that predicts the given log-durations."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64).reshape(1, 1, -1)

    def __call__(self, cond):
        return Tensor(self.values)


def det_loss_of(pred, targets):
    model = tiny_model("det")
    model.predictor = FixedHead(pred)
    targets = np.asarray(targets, dtype=np.float64).reshape(1, -1)
    return loss(model, np.full(targets.shape, 3), targets, None).item()


class TestDetLoss:
    def test_zero_when_equal(self):
        assert det_loss_of([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.0

    def test_single_offset_position(self):
        assert det_loss_of([2.0, 0.0, 0.0, 0.0], np.zeros(4)) == pytest.approx(1.0)

    def test_minimiser_is_class_mean(self):
        targets = np.array([np.log(2), np.log(12)])
        best = targets.mean()

        def loss_at(b):
            return det_loss_of(np.full(2, b), targets)

        assert loss_at(best) < loss_at(best + 0.05)
        assert loss_at(best) < loss_at(best - 0.05)

    def test_deterministic(self):
        model = tiny_model("det")
        ids = np.array([[3, 0, 4, 0, 5, 0], [5, 0, 3, 0, 4, 0]])
        targets = np.zeros(ids.shape)
        a = loss(model, ids, targets, np.random.default_rng(0)).item()
        b = loss(model, ids, targets, np.random.default_rng(1)).item()
        assert a == b

    def test_empty_input_rejected(self):
        model = tiny_model("det")
        with pytest.raises(ValueError):
            loss(model, np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0)), None)
        with pytest.raises(ValueError):
            loss(model, np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4)), None)

    def test_shape_mismatch_rejected(self):
        model = tiny_model("det")
        with pytest.raises(ValueError):
            loss(model, IDS, TARGETS[:, :3], None)
        with pytest.raises(ValueError):
            loss(model, IDS[0], TARGETS[0], None)


class TestFmLoss:
    def test_stub_head_matching_field_gives_zero(self):
        model = tiny_model("fm")
        targets = np.array([[1.0, -4.6, 1.4, -4.6, 1.8, 0.0]])
        x1 = targets.reshape(1, 1, -1)
        sigma = dur.OT_SIGMA

        class ExactField:
            def __call__(self, x, t, _cond):
                t = float(np.asarray(t).reshape(-1)[0])
                a = 1.0 - (1.0 - sigma) * t
                x0 = (x.data - t * x1) / a
                return Tensor(x1 - (1.0 - sigma) * x0)

        model.predictor = ExactField()
        ids = np.array([[3, 0, 4, 0, 5, 0]])
        assert loss(model, ids, targets, np.random.default_rng(0)).item() < 1e-20

    def test_untrained_loss_near_field_second_moment(self):
        # with near-zero initial outputs the loss approaches
        # E[(x1 - (1-sigma) x0)^2] = mean(x1^2) + (1-sigma)^2
        model = tiny_model("fm")
        ids = np.array([[3, 0, 4, 0, 5, 0]])
        targets = np.array([[0.3, -1.0, 0.8, -0.2, 0.1, 0.5]])
        rng = np.random.default_rng(7)
        losses = [loss(model, ids, targets, rng).item() for _ in range(400)]
        expected = np.mean(targets**2) + (1 - dur.OT_SIGMA) ** 2
        got = np.mean(losses)
        assert got > 0
        assert abs(got - expected) < 0.30 * expected

    def test_draws_t_then_x0_per_sentence(self):
        model = tiny_model("fm")
        ids = np.array([[3, 0, 4, 0], [5, 0, 3, 0]])
        targets = np.array([[0.7, -4.6, 1.1, 0.0], [0.2, -4.6, 0.9, 0.0]])
        seen = []

        class Spy:
            def __call__(self, x, t, _cond):
                seen.append((x.data.copy(), np.array(t)))
                return Tensor(np.zeros(x.data.shape))

        model.predictor = Spy()
        loss(model, ids, targets, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        t = rng.uniform(size=2)
        x0 = rng.standard_normal((2, 1, 4))
        x_t, _ = cfm_pair(targets.reshape(2, 1, 4), x0, t[:, None, None])
        assert np.array_equal(seen[0][1], t)
        assert np.array_equal(seen[0][0], x_t)

    def test_gradient_matches_finite_differences(self):
        model = tiny_model("fm")

        def loss_fn():
            return loss(model, IDS, TARGETS, np.random.default_rng(99))

        err = fd_gradcheck_params(loss_fn, list(model.params().values()))
        assert err < 1e-4

    def test_batched_gradient_matches_finite_differences(self):
        # B=2 is the batched path training runs; criterion 1 checks B=1
        model = tiny_model("fm")
        ids = np.array([[3, 0, 4, 0, 5, 0], [5, 0, 3, 0, 4, 0]])
        targets = np.array([[0.7, -4.6, 1.1, 0.0, 1.6, -4.6],
                            [1.2, 0.0, 0.4, -4.6, 0.9, 0.0]])

        def loss_fn():
            return loss(model, ids, targets, np.random.default_rng(99))

        err = fd_gradcheck_params(loss_fn, list(model.params().values()))
        assert err < 1e-4


class TestDetLossGradient:
    def test_full_det_loss_gradient(self):
        model = tiny_model("det")

        def loss_fn():
            return loss(model, IDS, TARGETS, None)

        err = fd_gradcheck_params(loss_fn, list(model.params().values()))
        assert err < 1e-4

    def test_batched_det_loss_gradient(self):
        model = tiny_model("det")
        ids = np.array([[3, 0, 4, 0, 5, 0], [5, 0, 3, 0, 4, 0]])
        targets = np.array([[0.7, -4.6, 1.1, 0.0, 1.6, -4.6],
                            [1.2, 0.0, 0.4, -4.6, 0.9, 0.0]])

        def loss_fn():
            return loss(model, ids, targets, None)

        err = fd_gradcheck_params(loss_fn, list(model.params().values()))
        assert err < 1e-4


class TestSampleOptions:
    def test_defaults(self):
        opts = SampleOptions()
        assert opts.nfe == 10
        assert opts.temperature == pytest.approx(0.667)
        assert opts.min_duration == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleOptions(nfe=0)
        with pytest.raises(ValueError):
            SampleOptions(temperature=-0.1)
        with pytest.raises(ValueError):
            SampleOptions(min_duration=2)

    @pytest.mark.parametrize("nfe", [2.5, 10.0, True, "10", None])
    def test_non_integer_nfe_rejected(self, nfe):
        with pytest.raises(ValueError, match=f"nfe must be an integer >= 1, got {nfe!r}"):
            SampleOptions(nfe=nfe)

    def test_numpy_integer_nfe_accepted(self):
        assert SampleOptions(nfe=np.int64(4)).nfe == 4

    @pytest.mark.parametrize("temperature", [np.nan, np.inf])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite"):
            SampleOptions(temperature=temperature)

    @pytest.mark.parametrize("temperature", ["x", None, True, [1.0]])
    def test_temperature_not_a_real_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0, got"):
            SampleOptions(temperature=temperature)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            SampleOptions(seed=seed)

    def test_numpy_scalars_accepted(self):
        opts = SampleOptions(temperature=np.float32(0.5), seed=np.int64(3))
        assert (opts.temperature, opts.seed) == (0.5, 3)


class TestFmSample:
    def test_fixed_seed_is_bit_reproducible(self):
        model = tiny_model("fm")
        cond = tiny_cond(model)
        a = dur.fm_sample_batch(model, cond, tiny_noise(11), 10)
        b = dur.fm_sample_batch(model, cond, tiny_noise(11), 10)
        assert np.array_equal(a, b)

    def test_batch_matches_single(self):
        model = tiny_model("fm")
        ids = np.array([[3, 0, 4, 0], [5, 0, 3, 0]])
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((2, 1, 4))
        batched = dur.fm_sample_batch(model, model.encoder(ids), noise, nfe=4)
        for n in range(2):
            single = dur.fm_sample_batch(
                model, model.encoder(ids[n:n + 1]), noise[n:n + 1], nfe=4
            )
            assert np.allclose(batched[n], single[0], atol=1e-10)


class TestPredictorDtype:
    def test_float32_copy_runs_in_float32(self):
        # the sinusoidal time features used to be float64 and promoted
        # the time MLP, and every conv block it feeds, to float64
        copy = nn.cast_copy(tiny_model("fm"), np.float32)
        t = np.array([0.25])
        assert copy.predictor.time(t).data.dtype == np.float32
        cond = tiny_cond(copy)
        x = Tensor(tiny_noise(3).astype(np.float32))
        assert copy.predictor(x, 0.25, cond).data.dtype == np.float32

    def test_float64_model_runs_in_float64(self):
        model = tiny_model("fm")
        assert model.predictor.time(np.array([0.25])).data.dtype == np.float64
        assert model.predictor(Tensor(tiny_noise(3)), 0.25,
                               tiny_cond(model)).data.dtype == np.float64


def randomise_params(model, rng):
    """Every parameter random, layer-norm gains about one."""
    for name, p in model.params().items():
        offset = 1.0 if name.endswith("gain") else 0.0
        p.data[...] = offset + 0.5 * rng.standard_normal(p.data.shape)


def reference_euler(model, cond, noise, nfe):
    """The Euler loop through the training forward pass, one call per step."""
    x = np.array(noise, dtype=np.float64)
    for i in range(nfe):
        x = x + (1.0 / nfe) * model.predictor(Tensor(x), i / nfe, cond).data
    return x


def frames_of(x):
    return to_frames(LogDurations(x.reshape(-1)))


# sentences of unequal length packed back to back along T, length 1 included
PACKED = [pytest.param((4, 1, 11), id="4+1+11"), pytest.param((1, 1, 3, 1), id="1+1+3+1")]


def packed_sample_and_reference(model, rng, batch, t_len, nfe, reps=1):
    """fm_sample_batch over batch rows of random ids, reps realisations
    stacked, and reference_euler run on every sentence and realisation
    alone. t_len is one sentence per row, or a tuple of sentence lengths
    packed along T in every row."""
    lengths = (t_len,) if isinstance(t_len, int) else t_len
    ends = np.cumsum(lengths)
    ids = rng.integers(0, 6, size=(batch, ends[-1]))
    noise = rng.standard_normal((reps * batch, 1, ends[-1]))
    cond = Tensor(np.concatenate(
        [model.encoder(ids[:, end - n:end]).data for n, end in zip(lengths, ends)], axis=2))
    got = dur.fm_sample_batch(model, cond, noise, nfe,
                              None if isinstance(t_len, int) else lengths)
    want = np.concatenate([
        np.concatenate([
            reference_euler(model, model.encoder(ids[k % batch:k % batch + 1, end - n:end]),
                            noise[k:k + 1, :, end - n:end], nfe)
            for n, end in zip(lengths, ends)], axis=2)
        for k in range(reps * batch)])
    return got, want


class TestFmSampleBatch:
    """The per-call precompute (conv1 split at the conditioning channels,
    time rows once per grid) against the plain forward pass, on one
    sentence per row and on sentences packed back to back."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 4, 11, *PACKED])
    @pytest.mark.parametrize("nfe", [1, 4])
    def test_matches_reference_loop(self, batch, t_len, nfe):
        model = tiny_model("fm", seed=2)
        rng = np.random.default_rng(batch * 100 + np.sum(t_len) * 10 + nfe)
        got, want = packed_sample_and_reference(model, rng, batch, t_len, nfe)
        assert got.shape == (batch, 1, np.sum(t_len))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(frames_of(got), frames_of(want))

    @pytest.mark.parametrize("t_len", [1, 2, 4, *PACKED])
    def test_noise_projection_bias_folds_at_the_edges(self, t_len):
        # every model starts with noise_proj.bias at zero; once it is not,
        # the folded bias term differs at the first and last position of
        # every sentence
        model = tiny_model("fm", seed=2)
        zero_bias, _ = packed_sample_and_reference(
            model, np.random.default_rng(20 + np.sum(t_len)), 3, t_len, 4)
        rng = np.random.default_rng(20 + np.sum(t_len))
        model.predictor.noise_proj.bias.data[...] = rng.normal(size=4)
        got, want = packed_sample_and_reference(
            model, np.random.default_rng(20 + np.sum(t_len)), 3, t_len, 4)
        assert not np.allclose(got, zero_bias)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("t_len", PACKED)
    def test_norm_folds_at_the_edges(self, t_len):
        # every model starts with identity layer norms and zero biases;
        # once they are not, norm1's bias folds into conv2 with edge
        # corrections at the first and last position of every sentence,
        # and norm2's gain and bias into proj
        model = tiny_model("fm", seed=2)
        seed = 40 + np.sum(t_len)
        identity, _ = packed_sample_and_reference(
            model, np.random.default_rng(seed), 3, t_len, 4, reps=2)
        pred = model.predictor
        rng = np.random.default_rng(seed)
        for norm in (pred.norm1, pred.norm2):
            norm.gain.data[...] = 1.0 + 0.5 * rng.standard_normal(norm.gain.data.shape)
            norm.bias.data[...] = rng.standard_normal(norm.bias.data.shape)
        for p in (pred.conv2.bias, pred.proj.bias):
            p.data[...] = rng.standard_normal(p.data.shape)
        got, want = packed_sample_and_reference(
            model, np.random.default_rng(seed), 3, t_len, 4, reps=2)
        assert got.shape == (6, 1, np.sum(t_len))
        assert not np.allclose(got, identity)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(frames_of(got), frames_of(want))

    def test_repeated_condition_matches_separate_batches(self):
        model = tiny_model("fm", seed=2)
        rng = np.random.default_rng(7)
        cond = model.encoder(rng.integers(0, 6, size=(2, 5)))
        noise = rng.standard_normal((3 * 2, 1, 5))
        stacked = dur.fm_sample_batch(model, cond, noise, 3)
        assert stacked.shape == (6, 1, 5)
        for r in range(3):
            rows = slice(2 * r, 2 * r + 2)
            single = dur.fm_sample_batch(model, cond, noise[rows], 3)
            assert np.max(np.abs(stacked[rows] - single)) <= 1e-12
        want = reference_euler(model, Tensor(np.concatenate([cond.data] * 3)), noise, 3)
        assert np.max(np.abs(stacked - want)) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 1, 5), (4, 1, 6), (0, 1, 5), (4, 2, 5), (4, 5)])
    def test_noise_not_stacking_cond_rejected(self, shape):
        model = tiny_model("fm", seed=2)
        cond = model.encoder(np.zeros((2, 5), dtype=np.int64))
        with pytest.raises(ValueError) as err:
            dur.fm_sample_batch(model, cond, np.zeros(shape), 3)
        assert str(shape) in str(err.value) and "(2, 8, 5)" in str(err.value)

    @pytest.mark.parametrize("nfe", [0, -1])
    def test_nfe_below_one_rejected(self, nfe):
        model = tiny_model("fm", seed=2)
        cond = model.encoder(np.zeros((1, 5), dtype=np.int64))
        with pytest.raises(ValueError, match=f"nfe must be an integer >= 1, got {nfe}"):
            dur.fm_sample_batch(model, cond, np.zeros((1, 1, 5)), nfe)

    @pytest.mark.parametrize("nfe", [2.5, 3.0, True])
    def test_non_integer_nfe_rejected(self, nfe):
        # 2.5 used to raise TypeError from range and True to run one step
        model = tiny_model("fm", seed=2)
        cond = model.encoder(np.zeros((1, 5), dtype=np.int64))
        with pytest.raises(ValueError,
                           match=re.escape(f"nfe must be an integer >= 1, got {nfe!r}")):
            dur.fm_sample_batch(model, cond, np.zeros((1, 1, 5)), nfe)

    def test_numpy_integer_nfe_accepted(self):
        model = tiny_model("fm", seed=2)
        cond = model.encoder(np.zeros((1, 5), dtype=np.int64))
        noise = np.random.default_rng(4).standard_normal((1, 1, 5))
        assert np.array_equal(dur.fm_sample_batch(model, cond, noise, np.int64(3)),
                              dur.fm_sample_batch(model, cond, noise, 3))

    def test_parameter_change_shows_in_next_call(self):
        model = tiny_model("fm", seed=2)
        rng = np.random.default_rng(9)
        cond = model.encoder(rng.integers(0, 6, size=(3, 6)))
        noise = rng.standard_normal((3, 1, 6))
        before = dur.fm_sample_batch(model, cond, noise, 4)
        pred = model.predictor
        for p in (pred.conv1.weight, pred.noise_proj.weight, pred.noise_proj.bias,
                  pred.conv2.weight, pred.conv2.bias, pred.norm1.gain, pred.norm1.bias,
                  pred.norm2.gain, pred.norm2.bias, pred.proj.weight, pred.proj.bias,
                  pred.time.lin1.weight, pred.time.lin2.weight,
                  pred.time_to_h1.weight, pred.time_to_h2.weight):
            p.data[...] += 0.5 * rng.standard_normal(p.data.shape)
        after = dur.fm_sample_batch(model, cond, noise, 4)
        want = reference_euler(model, cond, noise, 4)
        assert not np.allclose(after, before)
        assert np.max(np.abs(after - want)) <= 1e-12


class TestFmSampleProperties:
    """The folds of fm_sample_batch (noise_proj into conv1, norm1 into
    conv2, norm2 into proj, the edge rows and shifted taps) against the
    plain forward pass run on every sentence and realisation alone, over
    drawn packed layouts, shapes and parameters."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           batch=st.integers(1, 3), reps=st.integers(1, 3), nfe=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_loop(self, lengths, batch, reps, nfe, seed):
        model = tiny_model("fm")
        rng = np.random.default_rng(seed)
        randomise_params(model, rng)
        got, want = packed_sample_and_reference(model, rng, batch, tuple(lengths), nfe, reps)
        assert got.shape == (reps * batch, 1, sum(lengths))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(frames_of(got), frames_of(want))


class TestPackedForward:
    """Sentences packed back to back in one row, as corpus-level sampling
    runs them, against each sentence's own forward pass."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_encoder_and_det_predictor_match_per_sentence(self, lengths, seed):
        model = tiny_model("det")
        rng = np.random.default_rng(seed)
        randomise_params(model, rng)
        rows = [rng.integers(0, 6, size=n) for n in lengths]
        cond = model.encoder(rows)
        pred = model.predictor(cond, lengths).data
        assert cond.data.shape == (1, 8, sum(lengths)) and pred.shape == (1, 1, sum(lengths))
        for row, n, end in zip(rows, lengths, np.cumsum(lengths)):
            alone = model.encoder(row[None])
            assert np.max(np.abs(cond.data[..., end - n:end] - alone.data)) <= 1e-12
            want = model.predictor(alone).data
            assert np.max(np.abs(pred[..., end - n:end] - want)) <= 1e-12


class TestToFrames:
    def test_exact_log_of_integer(self):
        assert to_frames(LogDurations(np.array([np.log(5.0)]))).tolist() == [5]

    def test_half_rounds_away_from_zero(self):
        # exp(v) = 2.5 must give 3, and 0.5 must give 1; banker's rounding
        # would give 2 and 0
        got = to_frames(LogDurations(np.log(np.array([2.5, 0.5, 1.5]))))
        assert got.tolist() == [3, 1, 2]

    def test_large_negative_clamps_to_floor(self):
        vals = LogDurations(np.array([-20.0]))
        assert to_frames(vals, min_duration=0).tolist() == [0]
        assert to_frames(vals, min_duration=1).tolist() == [1]

    def test_non_finite_reports_position(self):
        with pytest.raises(ValueError, match="position 1"):
            to_frames(LogDurations(np.array([0.0, np.nan, 1.0])))

    def test_dtype_is_integer(self):
        out = to_frames(LogDurations(np.array([1.0, 2.0])))
        assert out.dtype == np.int64


class TestQuantisationResidual:
    def test_integer_logs_give_zero(self):
        ld = LogDurations(np.log(np.array([1.0, 2.0, 7.0])))
        assert quantisation_residual(ld) == pytest.approx(0.0, abs=1e-12)

    def test_half_is_maximal(self):
        assert quantisation_residual(LogDurations(np.log(np.array([2.5])))) == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            quantisation_residual(LogDurations(np.array([])))


class TestLengthRegulate:
    def cond_of(self, data):
        return Tensor(np.asarray(data, dtype=np.float64))

    def test_all_ones_is_identity(self):
        cond = self.cond_of(np.arange(12).reshape(3, 4))
        out = length_regulate(cond, np.ones(4, dtype=int))
        assert np.array_equal(out.data, cond.data)

    def test_repeat_and_drop(self):
        cond = self.cond_of([[1.0, 2.0, 3.0]])
        out = length_regulate(cond, np.array([2, 0, 1]))
        assert out.data.tolist() == [[1.0, 1.0, 3.0]]

    def test_negative_duration_rejected(self):
        cond = self.cond_of([[1.0, 2.0]])
        with pytest.raises(ValueError, match="position 1"):
            length_regulate(cond, np.array([1, -1]))

    @pytest.mark.parametrize("frames, message", [
        ([1.5, 1.7], "non-integral duration 1.5 at position 0"),
        ([2.0, 0.25], "non-integral duration 0.25 at position 1"),
        ([1.0, np.nan], "non-integral duration nan at position 1"),
        ([np.inf, 1.0], "non-integral duration inf at position 0"),
    ], ids=["fractions", "one-fraction", "nan", "inf"])
    def test_fractional_duration_rejected(self, frames, message):
        cond = self.cond_of(np.ones((2, 2)))
        with pytest.raises(ValueError, match=message):
            length_regulate(cond, np.array(frames))

    def test_length_mismatch_rejected(self):
        cond = self.cond_of([[1.0, 2.0]])
        with pytest.raises(ValueError):
            length_regulate(cond, np.array([1, 1, 1]))

    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_conservation_and_order(self, frames, seed):
        rng = np.random.default_rng(seed)
        frames = np.array(frames)
        cond = self.cond_of(rng.normal(size=(2, frames.size)))
        out = length_regulate(cond, frames)
        assert out.data.shape == (2, frames.sum())
        expect = np.repeat(cond.data, frames, axis=1)
        assert np.array_equal(out.data, expect)


class TestParamBudgets:
    def test_det_predictor_in_window(self):
        model = DurationModel("det", vocab_size=24, seed=0)
        count = model.predictor_param_count()
        assert count == 398_441
        assert 380_000 <= count <= 420_000

    def test_fm_additions_in_window(self):
        det = DurationModel("det", vocab_size=24, seed=0)
        fm = DurationModel("fm", vocab_size=24, seed=0)
        added = fm.predictor_param_count() - det.predictor_param_count()
        assert added == 96_432
        assert 80_000 <= added <= 120_000


class TestParamNames:
    def test_names_follow_layer_assignment_order(self):
        # the optimiser's flat buffer and checkpoint keys rely on this order
        expected = ["encoder.embed.table"]
        for layer in ("encoder.conv", "encoder.norm", "predictor.noise_proj",
                      "predictor.conv1", "predictor.norm1", "predictor.conv2",
                      "predictor.norm2", "predictor.proj", "predictor.time.lin1",
                      "predictor.time.lin2", "predictor.time_to_h1",
                      "predictor.time_to_h2"):
            first = "gain" if "norm" in layer else "weight"
            expected += [f"{layer}.{first}", f"{layer}.bias"]
        model = tiny_model("fm")
        assert list(model.params()) == expected
        # the float32 sampling copy keeps the names and their order
        assert list(nn.cast_copy(model, np.float32).params()) == expected


def rewrite_meta(src, dst, **changes):
    """Copy a checkpoint with some metadata entries replaced or, given
    None, removed."""
    arrays, meta = nn.load_params(src)
    for key, value in changes.items():
        if value is None:
            meta.pop(key)
        else:
            meta[key] = value
    nn.save_params(dst, arrays, meta)
    return dst


TINY_DIMS = {"encoder_dim": 8, "hidden": 10, "noise_dim": 4, "time_dim": 8}


def rewrite_param(src, dst, name, value):
    """Copy a checkpoint with one parameter array replaced by ``value``,
    stored as given (``nn.save_params`` would convert it to float64)."""
    arrays, meta = nn.load_params(src)
    arrays[name] = value
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, __meta__=meta_bytes, **arrays)
    return dst


BAD_PARAMETER_ARRAYS = {
    "nan": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 1, np.nan, a),
    "inf": lambda a: np.full_like(a, -np.inf),
    "complex": lambda a: a + 1j,
    "string": lambda a: np.full(a.shape, "0.5"),
    "int": lambda a: np.zeros(a.shape, dtype=np.int64),
    "shape": lambda a: a[..., :1],
}


class TestCheckpointRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        model = tiny_model("fm", seed=3)
        model.trained_steps = 777
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "fm"
        assert loaded.vocab_size == model.vocab_size
        assert loaded.trained_steps == 777
        assert loaded.dims == model.dims
        a, b = model.params(), loaded.params()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k].data, b[k].data), k

    def test_loaded_parameters_are_the_checkpoint_arrays_without_gradients(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(tiny_model("fm", seed=3), path)
        arrays, _ = nn.load_params(path)
        params = load_model(path).params()
        assert list(params) and set(params) == set(arrays)
        for name, p in params.items():
            assert p.grad is None and p.requires_grad, name
            assert p.data.dtype == np.float64 and p.data.flags.c_contiguous, name
            assert np.array_equal(p.data, arrays[name]), name

    def test_loaded_model_samples_identically(self, tmp_path):
        model = tiny_model("fm", seed=3)
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        a = dur.fm_sample_batch(model, tiny_cond(model), tiny_noise(5), 10)
        b = dur.fm_sample_batch(loaded, tiny_cond(loaded), tiny_noise(5), 10)
        assert np.array_equal(a, b)

    def test_metadata_without_layers(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(tiny_model("fm"), path)
        assert "layers" not in nn.load_params(path)[1]

    def test_older_checkpoint_with_layers_list_loads_unchanged(self, tmp_path):
        # checkpoints written before the list was dropped carry one
        # [kind, in, out, kernel] entry per layer; the reader ignores it
        model = tiny_model("fm", seed=3)
        model.trained_steps = 12
        current = tmp_path / "current.npz"
        save_model(model, current)
        older = rewrite_meta(current, tmp_path / "older.npz",
                             layers=[["embedding", 6, 8, 0], ["conv1d", 8, 8, 3]])
        assert nn.load_params(older)[1]["layers"][1] == ["conv1d", 8, 8, 3]
        a, b = load_model(current), load_model(older)
        assert (b.kind, b.vocab_size, b.seed, b.dims, b.trained_steps) == \
            (a.kind, a.vocab_size, a.seed, a.dims, a.trained_steps)
        assert list(b.params()) == list(a.params())
        for name, p in b.params().items():
            assert np.array_equal(p.data, a.params()[name].data), name
        assert np.array_equal(dur.fm_sample_batch(b, tiny_cond(b), tiny_noise(5), 10),
                              dur.fm_sample_batch(a, tiny_cond(a), tiny_noise(5), 10))

    @pytest.mark.parametrize("key, value", [
        ("kind", "flow"),
        ("kind", 1),
        ("vocab_size", "24"),
        ("vocab_size", True),
        ("vocab_size", 0),
        ("seed", 1.5),
        ("seed", -1),
        ("trained_steps", None),
        ("trained_steps", "7"),
        ("dims", [8, 10, 4, 8]),
        ("dims", {**TINY_DIMS, "depth": 2}),
        ("dims", {k: v for k, v in TINY_DIMS.items() if k != "hidden"}),
        ("dims", {**TINY_DIMS, "hidden": "10"}),
        ("dims", {**TINY_DIMS, "hidden": 0}),
        ("dims", {**TINY_DIMS, "hidden": False}),
    ])
    def test_malformed_metadata_names_file_and_key(self, tmp_path, key, value):
        good = tmp_path / "good.npz"
        save_model(tiny_model("fm"), good)
        bad = rewrite_meta(good, tmp_path / "bad.npz", **{key: value})
        with pytest.raises(CheckpointFormatError, match=f"bad.npz: .*'{key}"):
            load_model(bad)

    @pytest.mark.parametrize("bad", sorted(BAD_PARAMETER_ARRAYS))
    def test_bad_parameter_array_names_file_and_parameter(self, tmp_path, bad):
        good = tmp_path / "good.npz"
        save_model(tiny_model("fm"), good)
        name = "predictor.conv2.weight"
        array = nn.load_params(good)[0][name]
        path = rewrite_param(good, tmp_path / "bad.npz", name,
                             BAD_PARAMETER_ARRAYS[bad](array))
        with pytest.raises(CheckpointFormatError, match=f"bad.npz: .*'{name}'"):
            load_model(path)

    def test_missing_parameter_names_file_and_parameter(self, tmp_path):
        good = tmp_path / "good.npz"
        save_model(tiny_model("fm"), good)
        arrays, meta = nn.load_params(good)
        del arrays["predictor.noise_proj.bias"]
        nn.save_params(tmp_path / "bad.npz", arrays, meta)
        with pytest.raises(CheckpointFormatError,
                           match="bad.npz: .*'predictor.noise_proj.bias'"):
            load_model(tmp_path / "bad.npz")

    def test_float32_parameter_array_loads(self, tmp_path):
        good = tmp_path / "good.npz"
        save_model(tiny_model("fm"), good)
        name = "predictor.proj.bias"
        array = nn.load_params(good)[0][name].astype(np.float32) + 0.25
        loaded = load_model(rewrite_param(good, tmp_path / "f32.npz", name, array))
        assert loaded.params()[name].data.dtype == np.float64
        assert np.array_equal(loaded.params()[name].data, array)

    def test_odd_time_dim_names_file(self, tmp_path):
        good = tmp_path / "good.npz"
        save_model(tiny_model("fm"), good)
        bad = rewrite_meta(good, tmp_path / "bad.npz", dims={**TINY_DIMS, "time_dim": 7})
        with pytest.raises(CheckpointFormatError, match="bad.npz: .*even"):
            load_model(bad)
