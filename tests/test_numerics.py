import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from durflow import numerics as nm
from durflow.numerics import Tensor, Adam, parameter, record

from _oracles import (
    batch_major_layer_norm,
    copied_patch_pointwise_conv1d,
    fd_gradcheck,
    gradient_cases,
    ref_adam,
    ref_conv1d,
    ref_layer_norm,
    window_scatter_conv1d_grads,
)


GRAD_TOL = 1e-4


@pytest.mark.parametrize(
    "name,fn,arrays", gradient_cases(), ids=[c[0] for c in gradient_cases()]
)
def test_gradients_match_finite_differences(name, fn, arrays):
    err = fd_gradcheck(fn, arrays)
    assert err < GRAD_TOL, f"{name}: relative error {err:.3e}"


class TestForwardAgainstReference:
    def test_conv1d_2d(self):
        # a single sequence, as a batch of one
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 3, 9))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=(4,))
        got = nm.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(got, ref_conv1d(x, w, b), atol=1e-12)

    def test_conv1d_pointwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 6))
        w = rng.normal(size=(3, 4, 1))
        b = rng.normal(size=(3,))
        got = nm.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(got, ref_conv1d(x, w, b), atol=1e-12)

    def test_layer_norm(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 7))
        g = rng.uniform(0.5, 1.5, size=(5,))
        b = rng.normal(size=(5,))
        got = nm.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
        assert np.allclose(got, ref_layer_norm(x, g, b), atol=1e-12)

    def test_layer_norm_standardises_each_time_step(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 6, 11)) * 3.0 + 2.0
        ones = np.ones(6)
        out = nm.layer_norm(Tensor(x), Tensor(ones), Tensor(np.zeros(6))).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-10)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)


class TestPackedSegments:
    """Sequences packed back to back along T, with their lengths given,
    convolve as if each ran alone."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("lengths", [(4, 1, 6), (1, 1, 1), (2, 7, 1, 3)],
                             ids=["4+1+6", "1+1+1", "2+7+1+3"])
    def test_packed_equals_per_segment_convs(self, lengths, k):
        rng = np.random.default_rng(sum(lengths) + k)
        ends = np.cumsum(lengths)
        xv = rng.normal(size=(2, 3, ends[-1]))
        upstream = rng.normal(size=(2, 4, ends[-1]))
        wv, bv = rng.normal(size=(4, 3, k)), rng.normal(size=(4,))

        def run(x_part, g_part, seg):
            x, w, b = Tensor(x_part, requires_grad=True), parameter(wv), parameter(bv)
            out = _backward_with(lambda t: nm.conv1d(t, w, b, seg), x, g_part)
            return out.data, x.grad, w.grad, b.grad

        got = run(xv, upstream, lengths)
        parts = [run(xv[..., e - n:e], upstream[..., e - n:e], None)
                 for n, e in zip(lengths, ends)]
        want = (np.concatenate([p[0] for p in parts], axis=2),
                np.concatenate([p[1] for p in parts], axis=2),
                sum(p[2] for p in parts), sum(p[3] for p in parts))
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-12

    def test_one_segment_per_row_is_the_default(self):
        # lengths [T] on a (B, C, T) batch is the segment list [T] * B
        rng = np.random.default_rng(5)
        xv, upstream = rng.normal(size=(3, 2, 7)), rng.normal(size=(3, 4, 7))
        wv, bv = rng.normal(size=(4, 2, 3)), rng.normal(size=(4,))
        runs = []
        for seg in (None, [7]):
            x, w, b = Tensor(xv, requires_grad=True), parameter(wv), parameter(bv)
            out = _backward_with(lambda t: nm.conv1d(t, w, b, seg), x, upstream)
            runs.append((out.data, x.grad, w.grad, b.grad))
        for default, given in zip(*runs):
            assert np.array_equal(default, given)

    @pytest.mark.parametrize("lengths", [[3, 2], [0, 6], [2.5, 3.5], [7, -1], [[3, 3]]])
    def test_lengths_not_partitioning_t_rejected(self, lengths):
        x = Tensor(np.zeros((1, 2, 6)))
        with pytest.raises(ValueError, match="segment lengths"):
            nm.conv1d(x, Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)), lengths)


def _backward_with(out_fn, x, upstream):
    """Run out_fn(x) on a tape and backpropagate ``upstream`` into it."""
    with record() as tape:
        out = out_fn(x)
        loss = nm.tensor_sum(nm.mul(out, Tensor(upstream)))
    tape.backward(loss)
    return out


class TestBitExactLayouts:
    """conv1d and layer_norm work channel-major, yet reproduce the
    batch-major formulation bit for bit: the training trajectories rest
    on it."""

    # "2d" is a single sequence, passed as a batch of one
    @pytest.mark.parametrize("shape, k", [
        pytest.param((1, 5, 9), 1, id="2d-1"),
        pytest.param((1, 5, 9), 3, id="2d-3"),
        pytest.param((3, 5, 9), 1, id="batched-1"),
        pytest.param((3, 5, 9), 3, id="batched-3"),
        pytest.param((2, 4, 1), 3, id="shorter-than-kernel-T1"),
        pytest.param((2, 4, 2), 3, id="shorter-than-kernel-T2"),
    ])
    def test_conv1d_grads_equal_window_scatter(self, shape, k):
        rng = np.random.default_rng(10 * k + shape[0])
        c_in, t_len = shape[-2:]
        xv = rng.normal(size=shape)
        w = parameter(rng.normal(size=(4, c_in, k)))
        b = parameter(rng.normal(size=(4,)))
        upstream = rng.normal(size=shape[:-2] + (4, t_len))
        x = Tensor(xv, requires_grad=True)
        _backward_with(lambda t: nm.conv1d(t, w, b), x, upstream)
        want = window_scatter_conv1d_grads(xv, w.data, upstream)
        for got, expected in zip((x.grad, w.grad, b.grad), want):
            assert got.flags.c_contiguous
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1, 5, 9), (3, 5, 9)], ids=["2d", "batched"])
    def test_pointwise_conv1d_equals_copied_patches(self, shape, dtype):
        # k=1 takes the channel-major input as its patch matrix, with no copy
        rng = np.random.default_rng(shape[0])
        c_in, t_len = shape[-2:]
        xv = rng.normal(size=shape).astype(dtype)
        w = parameter(rng.normal(size=(4, c_in, 1)).astype(dtype))
        b = parameter(rng.normal(size=(4,)).astype(dtype))
        upstream = rng.normal(size=shape[:-2] + (4, t_len)).astype(dtype)
        x = Tensor(xv, requires_grad=True)
        out = _backward_with(lambda t: nm.conv1d(t, w, b), x, upstream)
        want = copied_patch_pointwise_conv1d(xv, w.data, b.data, upstream)
        for got, expected in zip((out.data, x.grad, w.grad, b.grad), want):
            assert got.dtype == dtype
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape", [(1, 6, 9), (3, 7, 5), (2, 280, 17)])
    def test_layer_norm_equals_batch_major_formulas(self, shape):
        rng = np.random.default_rng(shape[-1])
        c = shape[-2]
        xv = rng.normal(size=shape) * 3.0 + 1.0
        gain = parameter(rng.uniform(0.5, 1.5, size=c))
        bias = parameter(rng.normal(size=c))
        upstream = rng.normal(size=shape)
        x = Tensor(xv, requires_grad=True)
        out = _backward_with(lambda t: nm.layer_norm(t, gain, bias), x, upstream)
        want = batch_major_layer_norm(xv, gain.data, bias.data, upstream)
        for got, expected in zip((out.data, x.grad, gain.grad, bias.grad), want):
            assert np.array_equal(got, expected)
        assert x.grad.flags.c_contiguous

    def test_chained_grads_follow_channel_major_data(self):
        # a conv output feeding a layer norm is stored channel-major, and
        # the gradient handed back to it must be laid out the same way
        rng = np.random.default_rng(3)
        w = parameter(rng.normal(size=(5, 4, 3)))
        b = parameter(np.zeros(5))
        ones, zeros = parameter(np.ones(5)), parameter(np.zeros(5))
        x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        with record() as tape:
            h = nm.conv1d(x, w, b)
            out = nm.layer_norm(h, ones, zeros)
            loss = nm.tensor_sum(nm.mul(out, Tensor(rng.normal(size=(2, 5, 6)))))
        tape.backward(loss)
        assert h.grad.strides == h.data.strides
        assert not h.data.flags.c_contiguous
        assert x.grad.flags.c_contiguous

    @pytest.mark.parametrize("with_rows", [False, True], ids=["no-rows", "rows"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(3, 6, 5), (2, 280, 17), (3, 5, 1)],
                             ids=["batched", "wide", "T1"])
    def test_relu_norm_equals_composed_ops(self, shape, dtype, with_rows):
        # one op, the same floats: output and every gradient, bit for bit,
        # an exactly zero pre-activation and its -0.0 gradients included
        rng = np.random.default_rng(shape[-2] + shape[-1])
        batch, c, t_len = shape
        # stored channel-major, as a conv1d output feeding it is
        xv = rng.normal(size=(c, batch, t_len)).transpose(1, 0, 2)
        rv = rng.normal(size=(batch, c))
        xv[0, 0, 0] = 0.0
        if with_rows:
            xv[1, 1, 0] = -rv[1, 1]
        arrays = [xv, rng.uniform(0.5, 1.5, size=c), rng.normal(size=c), rv]
        upstream = Tensor(rng.normal(size=shape).astype(dtype))

        def run(block):
            leaves = [Tensor(a.astype(dtype), requires_grad=True)
                      for a in arrays[:4 if with_rows else 3]]
            with record() as tape:
                out = block(*leaves)
                loss = nm.tensor_sum(nm.mul(out, upstream))
            tape.backward(loss)
            return [out.data] + [t.grad for t in leaves]

        def composed(x, gain, bias, rows=None):
            if rows is not None:
                x = nm.add(x, nm.reshape(rows, (batch, c, 1)))
            return nm.layer_norm(nm.relu(x), gain, bias)

        for got, want in zip(run(nm.relu_norm), run(composed)):
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestTapeSemantics:
    def test_backward_twice_raises(self):
        a = parameter(np.array([1.0, 2.0]))
        with record() as tape:
            loss = nm.tensor_sum(nm.mul(a, a))
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        a = parameter(np.array([1.0, 2.0]))
        with record() as tape:
            out = nm.mul(a, a)
        with pytest.raises(ValueError):
            tape.backward(out)

    def test_nested_recording_rejected(self):
        with record():
            with pytest.raises(RuntimeError):
                with record():
                    pass

    def test_ops_outside_record_do_not_track(self):
        a = parameter(np.array([1.0, 2.0]))
        out = nm.mul(a, a)
        assert not out.requires_grad
        assert a.grad is None

    def test_unreachable_parameter_keeps_zero_grad(self):
        # a gradient of None is zero: backward writes nothing there
        a = parameter(np.array([1.0, 2.0]))
        unused = parameter(np.array([3.0]))
        with record() as tape:
            loss = nm.tensor_sum(nm.mul(a, a))
        tape.backward(loss)
        assert unused.grad is None
        assert np.allclose(a.grad, 2.0 * a.data)

    def test_reused_tensor_accumulates(self):
        a = parameter(np.array(3.0))
        x = Tensor(np.array(5.0))
        with record() as tape:
            loss = nm.add(nm.mul(a, x), a)  # a*x + a
        tape.backward(loss)
        assert np.allclose(a.grad, 6.0)

    def test_backward_frees_each_node_once_it_has_run(self, monkeypatch):
        # the mul node runs before the scale node; by the time the scale
        # node accumulates into a, the array the mul node saved is gone
        a = parameter(np.array([1.0, 2.0]))
        saved = np.array([3.0, 4.0])
        saved_ref = weakref.ref(saved)
        with record() as tape:
            loss = nm.tensor_sum(nm.mul(nm.scale(a, 2.0), Tensor(saved)))
        del saved
        alive = []
        accum = nm._accum

        def spy(t, g, fresh=False):
            alive.append(saved_ref() is not None)
            accum(t, g, fresh)

        monkeypatch.setattr(nm, "_accum", spy)
        tape.backward(loss)
        assert alive[-1] is False
        assert np.array_equal(a.grad, [6.0, 8.0])

    def test_grads_accumulate_across_tapes(self):
        a = parameter(np.array([2.0]))
        for _ in range(2):
            with record() as tape:
                loss = nm.tensor_sum(nm.mul(a, a))
            tape.backward(loss)
        assert np.allclose(a.grad, 2 * 2.0 * a.data)


class TestValidation:
    def test_kernel_width_other_than_1_or_3_rejected(self):
        for k in (2, 4, 5):
            with pytest.raises(ValueError,
                               match=f"conv1d kernel width must be 1 or 3, got {k}"):
                nm.conv1d(
                    Tensor(np.zeros((1, 2, 5))),
                    Tensor(np.zeros((2, 2, k))),
                    Tensor(np.zeros(2)),
                )

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            nm.conv1d(
                Tensor(np.zeros((1, 3, 5))),
                Tensor(np.zeros((2, 4, 3))),
                Tensor(np.zeros(2)),
            )

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (1, 1, 3, 5)])
    def test_unbatched_input_rejected(self, shape):
        x = Tensor(np.zeros(shape))
        with pytest.raises(ValueError, match=r"conv1d expects a batched \(B, C, T\) input"):
            nm.conv1d(x, Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ValueError,
                           match=r"layer_norm expects a batched \(B, C, T\) input"):
            nm.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        with pytest.raises(ValueError,
                           match=r"relu_norm expects a batched \(B, C, T\) input"):
            nm.relu_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_relu_norm_rows_must_be_one_per_channel_and_sequence(self):
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match=r"relu_norm rows must be \(B, C\)"):
            nm.relu_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), Tensor(np.zeros((1, 3))))

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            nm.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 2))))


class TestFlatten:
    def test_tensors_become_views_of_one_buffer(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = parameter(np.array([7.0]))
        b_grad = b.grad = np.array([2.5])
        data = nm.flatten([a, b], np.float32)
        assert data.dtype == np.float32
        assert np.array_equal(data, np.arange(8.0)[[0, 1, 2, 3, 4, 5, 7]].astype(np.float32))
        assert a.requires_grad and a.data.shape == (2, 3) and a.grad is None
        assert b.grad is b_grad
        data[:] = -1.0
        assert np.all(a.data == -1.0) and np.all(b.data == -1.0)


class TestAdam:
    def test_matches_reference_trajectory(self):
        rng = np.random.default_rng(7)
        theta0 = rng.normal(size=(9,))
        grads = [rng.normal(size=(9,)) for _ in range(10)]
        p = parameter(theta0.copy())
        opt = Adam({"w": p}, lr=1e-3)
        for g in grads:
            p.grad = g
            opt.step()
        expected = ref_adam(theta0, grads)
        assert np.max(np.abs(p.data - expected)) < 1e-14

    def test_matches_reference_where_eps_dominates(self):
        # gradients of about 1e-12 keep sqrt(v_hat) far below eps, so every
        # update is about lr * m_hat / eps: the regime in which the
        # reordered form's eps must carry its sqrt(bc2) factor
        rng = np.random.default_rng(19)
        theta0 = rng.normal(size=(9,))
        grads = [1e-12 * rng.normal(size=(9,)) for _ in range(1200)]
        p = parameter(theta0.copy())
        opt = Adam({"w": p}, lr=1e-3)
        for g in grads:
            p.grad = g
            opt.step()
        expected = ref_adam(theta0, grads)
        assert np.max(np.abs(p.data - expected)) < 1e-14

    def test_step_drops_grad(self):
        # every gradient the step read is dropped, the masters' without a
        # working copy and the copy's with one
        p = parameter(np.ones(3))
        opt = Adam({"w": p})
        p.grad = np.ones(3)
        opt.step()
        assert p.grad is None
        master, work = parameter(np.ones(3)), Tensor(np.ones(3, np.float32))
        opt = Adam({"w": master}, working={"w": work})
        work.grad = np.ones(3, np.float32)
        opt.step()
        assert work.grad is None and master.grad is None

    def test_unreached_parameter_steps_as_with_a_zero_gradient(self):
        # a gradient left None at some steps updates the parameter bit for
        # bit as an explicit zero gradient does, and as ref_adam's zeros
        rng = np.random.default_rng(23)
        theta0 = {"a": rng.normal(size=(5,)), "b": rng.normal(size=(3, 2))}
        grads = [{k: rng.normal(size=v.shape) for k, v in theta0.items()}
                 for _ in range(8)]
        for n in (1, 4, 5):
            grads[n]["b"] = None
        runs = []
        for explicit in (False, True):
            params = {k: parameter(v.copy()) for k, v in theta0.items()}
            opt = Adam(params, lr=1e-3)
            for g in grads:
                for k, p in params.items():
                    zero = np.zeros_like(p.data) if explicit else None
                    p.grad = zero if g[k] is None else g[k]
                opt.step()
            runs.append(params)
        for k in theta0:
            assert np.array_equal(runs[0][k].data, runs[1][k].data), k
            expected = ref_adam(theta0[k], [np.zeros_like(theta0[k]) if g[k] is None
                                            else g[k] for g in grads])
            assert np.max(np.abs(runs[0][k].data - expected)) < 1e-14, k
        # a parameter no step ever reached does not move
        idle = parameter(theta0["a"].copy())
        opt = Adam({"idle": idle})
        for _ in range(3):
            opt.step()
        assert np.array_equal(idle.data, theta0["a"])

    def test_backward_after_a_step_starts_from_nothing(self):
        a = parameter(np.array([1.0, -2.0, 3.0]))
        opt = Adam({"a": a}, lr=0.1)
        for _ in range(2):
            with record() as tape:
                loss = nm.tensor_sum(nm.mul(a, a))
            tape.backward(loss)
            assert np.array_equal(a.grad, 2.0 * a.data)
            opt.step()

    def test_first_step_size_is_lr(self):
        # with bias correction, |update| after one unit-gradient step is
        # lr * 1/(1 + eps) regardless of the betas
        p = parameter(np.zeros(4))
        opt = Adam({"w": p}, lr=1e-3)
        p.grad = np.ones(4)
        opt.step()
        assert np.allclose(p.data, -1e-3 / (1.0 + 1e-9), rtol=1e-12)

    def test_non_finite_gradient_names_parameter(self):
        p = parameter(np.ones(3))
        opt = Adam({"conv.weight": p})
        p.grad = np.full(3, np.nan)
        with pytest.raises(FloatingPointError, match="conv.weight"):
            opt.step()

    def test_flat_update_matches_reference_per_tensor(self):
        # shapes of several ranks, one spanning more than one update block
        shapes = {"conv.weight": (4, 3, 3), "conv.bias": (4,), "scale": (),
                  "embed.table": (130, 130), "proj.bias": (1,)}
        rng = np.random.default_rng(11)
        theta0 = {k: rng.normal(size=s) for k, s in shapes.items()}
        grads = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(10)]
        params = {k: parameter(v.copy()) for k, v in theta0.items()}
        opt = Adam(params, lr=1e-3)
        for g in grads:
            for k, p in params.items():
                p.grad = g[k]
            opt.step()
        for k, p in params.items():
            expected = ref_adam(theta0[k], [g[k] for g in grads])
            assert p.data.shape == shapes[k]
            assert np.max(np.abs(p.data - expected)) < 1e-14, k
            assert p.grad is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_in_second_parameter_is_named(self, bad):
        params = {"encoder.conv.weight": parameter(np.ones((2, 3))),
                  "predictor.norm1.gain": parameter(np.ones(4)),
                  "predictor.proj.bias": parameter(np.ones(1))}
        opt = Adam(params)
        for p in params.values():
            p.grad = np.full(p.data.shape, 0.5)
        params["predictor.norm1.gain"].grad[2] = bad
        before = {k: p.data.copy() for k, p in params.items()}
        with pytest.raises(FloatingPointError, match="'predictor.norm1.gain'"):
            opt.step()
        for k, p in params.items():
            assert np.array_equal(p.data, before[k]), k

    def test_finite_gradients_whose_sum_overflows_are_accepted(self):
        p = parameter(np.zeros(4))
        opt = Adam({"w": p})
        p.grad = np.full(4, 1e308)
        with np.errstate(over="ignore"):  # the second moment overflows, as in any Adam
            opt.step()
        assert np.all(np.isfinite(p.data))

    def test_float32_gradients_whose_float32_sum_overflows_are_accepted(self):
        # the check sums in the gradient's dtype: 4 * 3e38 passes the
        # float32 maximum, though every entry is finite
        theta0 = np.array([0.5, -1.0, 2.0, 0.0])
        master = parameter(theta0.copy())
        work = Tensor(theta0.astype(np.float32))
        opt = Adam({"w": master}, working={"w": work})
        g = np.full(4, 3e38, dtype=np.float32)
        work.grad = g
        opt.step()
        expected = ref_adam(theta0, [g.astype(np.float64)])
        assert np.max(np.abs(master.data - expected)) < 1e-14
        assert np.array_equal(work.data, master.data.astype(np.float32))
        assert work.grad is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float32_gradient_is_named(self, bad):
        masters = {"predictor.proj.bias": parameter(np.ones(1)),
                   "predictor.norm2.gain": parameter(np.ones(4))}
        work = {name: Tensor(p.data.astype(np.float32)) for name, p in masters.items()}
        opt = Adam(masters, working=work)
        work["predictor.norm2.gain"].grad = np.array([0.5, bad, 0.5, 0.5], np.float32)
        with pytest.raises(FloatingPointError, match="'predictor.norm2.gain'"):
            opt.step()
        assert all(np.all(p.data == 1.0) for p in masters.values())

    def test_working_copy_must_match_the_masters(self):
        params = {"w": parameter(np.ones(3)), "b": parameter(np.zeros(2))}
        for working in ({"w": Tensor(np.ones(3, np.float32))},
                        {"b": Tensor(np.zeros(2, np.float32)),
                         "w": Tensor(np.ones(3, np.float32))}):
            with pytest.raises(ValueError, match="names and shapes"):
                Adam(params, working=working)

    def test_rebound_data_is_refused(self):
        # the update writes into the flat buffer, which a rebound
        # parameter no longer reads
        p = parameter(np.ones(3))
        opt = Adam({"w": p})
        p.data = np.ones(3)
        with pytest.raises(RuntimeError, match="'w'"):
            opt.step()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_broadcast_add_gradient_counts_copies(n, m, seed):
    rng = np.random.default_rng(seed)
    a = parameter(rng.normal(size=(n, m)))
    b = parameter(rng.normal(size=(1,)))
    with record() as tape:
        loss = nm.tensor_sum(nm.add(a, b))
    tape.backward(loss)
    assert np.allclose(b.grad, float(n * m))
    assert np.allclose(a.grad, 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_elementwise_chain_gradient(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 1.5, size=(2, 3))
    b = rng.uniform(-1.0, 1.0, size=(3,))

    def fn(ta, tb):
        return nm.mean(nm.mul(nm.exp(nm.mul(ta, tb)), nm.log(ta)))

    assert fd_gradcheck(fn, [a, b]) < GRAD_TOL


class TestCompositionsKeepTheArithmetic:
    """sub, scale and mean are compositions of add, mul and tensor_sum.
    Each must give the bits that numpy's own arithmetic gives, forward
    and backward, in float32 and float64: training's loss trajectories
    rest on it."""

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def values(dtype, *shape, seed):
        """Normal draws of ``dtype`` with some entries -0.0 and some +0.0."""
        x = np.random.default_rng(seed).normal(size=shape).astype(dtype)
        x.flat[::3] = -0.0
        x.flat[1::5] = 0.0
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sub(self, dtype):
        av, bv, g = (self.values(dtype, 3, 4, seed=k) for k in (1, 2, 3))
        a, b = parameter(av), parameter(bv)
        out = _backward_with(lambda t: nm.sub(t, b), a, g)
        self.assert_same_bits(out.data, av - bv)
        self.assert_same_bits(a.grad, g)
        self.assert_same_bits(b.grad, -g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sub_of_a_broadcast_b(self, dtype):
        av, g = self.values(dtype, 3, 4, seed=4), self.values(dtype, 3, 4, seed=5)
        bv = self.values(dtype, 4, seed=6)
        g[:, 0] = -0.0
        a, b = parameter(av), parameter(bv)
        out = _backward_with(lambda t: nm.sub(t, b), a, g)
        self.assert_same_bits(out.data, av - bv)
        self.assert_same_bits(a.grad, g)
        # b's gradient is the negated sum of g, where a subtraction's own
        # adjoint would sum -g: the two differ only in the sign of a sum
        # that is exactly zero, here column 0
        want = (-g).sum(axis=0)
        assert b.grad.dtype == want.dtype and np.array_equal(b.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [0.5, 0.0, -0.0])
    def test_sub_of_a_python_number(self, dtype, c):
        av = self.values(dtype, 3, 4, seed=7)
        # the number becomes a float64 Tensor, as in add and mul
        want = av - np.asarray(c)
        g = self.values(want.dtype, 3, 4, seed=8)
        a = parameter(av)
        out = _backward_with(lambda t: nm.sub(t, c), a, g)
        self.assert_same_bits(out.data, want)
        self.assert_same_bits(a.grad, g.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [-1.0, 0.1, 1.0 / 3.0, -0.0])
    def test_scale(self, dtype, c):
        av, g = self.values(dtype, 3, 4, seed=9), self.values(dtype, 3, 4, seed=10)
        a = parameter(av)
        out = _backward_with(lambda t: nm.scale(t, c), a, g)
        # a Python float is rounded to a's dtype before it multiplies
        self.assert_same_bits(out.data, av * c)
        self.assert_same_bits(a.grad, g * c)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mean(self, dtype):
        av = self.values(dtype, 3, 7, seed=11)
        g = np.asarray(0.7, dtype=dtype)
        a = parameter(av)
        out = _backward_with(nm.mean, a, g)
        self.assert_same_bits(out.data, av.sum() * (1 / av.size))
        self.assert_same_bits(a.grad, np.broadcast_to(g * (1 / av.size), av.shape))

    def test_mean_of_nothing_raises(self):
        with pytest.raises(ZeroDivisionError):
            nm.mean(Tensor(np.zeros((2, 0))))


class TestDtypes:
    def test_tensor_keeps_float32_and_converts_the_rest_to_float64(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.float32(2.0)).data.dtype == np.float32
        for data in (np.arange(3), [1, 2, 3], [0.5, 1.5], 2, 0.5, np.float64(2.0),
                     np.ones(2, dtype=np.float16), [np.float32(1.0)]):
            assert Tensor(data).data.dtype == np.float64, data

    def test_float64_data_is_not_copied(self):
        a = np.ones(4)
        assert Tensor(a).data is a

    def test_ops_keep_float32(self):
        rng = np.random.default_rng(4)

        def t(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32))

        x = t(2, 3, 5)
        outs = {
            "conv1d": nm.conv1d(x, t(4, 3, 3), t(4)),
            "conv1d_2d": nm.conv1d(t(1, 3, 5), t(4, 3, 1), t(4)),
            "layer_norm": nm.layer_norm(x, t(3), t(3)),
            "relu_norm": nm.relu_norm(x, t(3), t(3), t(2, 3)),
            "add": nm.add(x, t(3, 1)),
            "mul": nm.mul(x, x),
            "scale": nm.scale(x, 0.5),
            "relu": nm.relu(x),
            "exp": nm.exp(x),
            "matmul": nm.matmul(t(2, 3), t(3, 4)),
            "take_rows": nm.take_rows(t(6, 3), np.array([[0, 5], [2, 2]])),
            "concat": nm.concat([x, x], axis=1),
            "permute": nm.permute(x, (0, 2, 1)),
            "tensor_sum": nm.tensor_sum(x),
            "mean": nm.mean(x),
        }
        for name, out in outs.items():
            assert out.data.dtype == np.float32, name

    def test_float32_conv_and_norm_match_float64(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=(2, 6, 9)), rng.normal(size=(4, 6, 3)), rng.normal(size=4)
        g, c = rng.uniform(0.5, 1.5, size=6), rng.normal(size=6)

        def f32(a):
            return Tensor(a.astype(np.float32))

        conv = nm.conv1d(f32(x), f32(w), f32(b)).data
        assert np.allclose(conv, ref_conv1d(x, w, b), atol=1e-5)
        norm = nm.layer_norm(f32(x), f32(g), f32(c)).data
        assert np.allclose(norm, ref_layer_norm(x, g, c), atol=1e-5)

    def test_float32_gradients_are_float32(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        with record() as tape:
            loss = nm.tensor_sum(nm.conv1d(x, w, b))
        tape.backward(loss)
        assert {x.grad.dtype, w.grad.dtype, b.grad.dtype} == {np.dtype(np.float32)}


class FakeOpenBLAS:
    """get/set thread-count functions over one counter, recording each set."""

    def __init__(self, threads):
        self.threads, self.sets = threads, []

    def functions(self):
        def set_(n):
            self.sets.append(n)
            self.threads = n
        return (lambda: self.threads), set_


class TestBlasThreads:
    def test_pins_one_thread_and_restores_the_count(self, monkeypatch):
        fake = FakeOpenBLAS(3)
        monkeypatch.setattr(nm, "_openblas", fake.functions)
        with nm.one_blas_thread() as workers:
            assert workers == 3 and nm.blas_threads() == 1
        assert nm.blas_threads() == 3
        with pytest.raises(KeyError):
            with nm.one_blas_thread():
                raise KeyError("inside")
        assert fake.sets == [1, 3, 1, 3]

    def test_without_openblas_yields_one(self, monkeypatch):
        monkeypatch.setattr(nm, "_openblas", lambda: None)
        assert nm.blas_threads() is None
        with nm.one_blas_thread() as workers:
            assert workers == 1

    def test_the_library_numpy_loaded_is_left_as_found(self):
        before = nm.blas_threads()
        with nm.one_blas_thread() as workers:
            assert workers == (before or 1)
            assert nm.blas_threads() == (None if before is None else 1)
        assert nm.blas_threads() == before
