import numpy as np
import pytest

from durflow import numerics as nm
from durflow import nn
from durflow.numerics import Tensor, parameter, record

from _oracles import fd_gradcheck_params, ref_sinusoidal


def min_pairwise_distance(rows) -> float:
    """Smallest Euclidean distance between two rows, each row taken
    against the later rows by exact differences (no Gram-matrix
    shortcut, whose cancellation would hide distances near 1e-9)."""
    return min(np.sqrt(((rows[i + 1:] - rows[i]) ** 2).sum(axis=1)).min()
               for i in range(len(rows) - 1))


def embedding(table) -> nn.Embedding:
    """An Embedding layer whose table parameter holds ``table``."""
    layer = nn.Embedding(*np.shape(table), np.random.default_rng(0))
    layer.table = parameter(table)
    return layer


class TestEmbeddingForward:
    def test_repeated_ids_give_identical_columns(self):
        embed = embedding(np.random.default_rng(0).normal(size=(4, 3)))
        out = embed(np.array([[2, 2]]))
        assert out.data.shape == (1, 3, 2)
        assert np.array_equal(out.data[0, :, 0], out.data[0, :, 1])

    def test_one_hot_table_reproduces_codes(self):
        embed = embedding(np.eye(5))
        ids = np.array([3, 0, 4])
        out = embed(ids[None])
        assert np.array_equal(out.data[0], np.eye(5)[ids].T)

    def test_gradient_scatter_counts(self):
        embed = embedding(np.zeros((6, 2)))
        ids = np.array([[1, 1, 1, 4]])
        with record() as tape:
            loss = nm.tensor_sum(embed(ids))
        tape.backward(loss)
        expected = np.zeros((6, 2))
        expected[1] = 3.0
        expected[4] = 1.0
        assert np.array_equal(embed.table.grad, expected)

    def test_out_of_vocabulary_rejected(self):
        embed = embedding(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            embed(np.array([[0, 4]]))
        with pytest.raises(ValueError):
            embed(np.array([[-1]]))

    @pytest.mark.parametrize("shape", [(3,), (), (1, 2, 3)])
    def test_unbatched_ids_rejected(self, shape):
        embed = embedding(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"batched \(B, T\) token ids"):
            embed(np.zeros(shape, dtype=int))

    @pytest.mark.parametrize("ids, dtype", [([[1.5, 0.0]], "float64"),
                                            ([[True, False]], "bool")])
    def test_non_integer_ids_rejected(self, ids, dtype):
        embed = embedding(np.zeros((4, 2)))
        for call in (lambda: nn.token_ids(ids, 4), lambda: embed(np.array(ids))):
            with pytest.raises(ValueError, match=f"token ids must be integers, got dtype {dtype}"):
                call()

    def test_unsigned_ids_accepted(self):
        embed = embedding(np.eye(4))
        ids = np.array([[3, 0, 1]], dtype=np.uint8)
        assert np.array_equal(embed(ids).data[0], np.eye(4)[[3, 0, 1]].T)

    def test_batched_lookup_shape(self):
        embed = embedding(np.random.default_rng(1).normal(size=(7, 3)))
        out = embed(np.zeros((2, 5), dtype=int))
        assert out.data.shape == (2, 3, 5)


class TestSinusoidal:
    def test_t_zero_is_sin0_cos1(self):
        v = nn.sinusoidal_time_embedding(np.array([0.0]), 8).data[0]
        assert np.array_equal(v[0::2], np.zeros(4))
        assert np.array_equal(v[1::2], np.ones(4))

    def test_matches_reference(self):
        ts = np.array([0.0, 0.1, 0.5, 0.999])
        got = nn.sinusoidal_time_embedding(ts, 16).data
        assert np.allclose(got, ref_sinusoidal(ts, 16), atol=1e-12)

    def test_float32_features_round_the_float64_ones(self):
        # the angles reach TIME_SCALE, so they are formed in float64 and
        # only the features are rounded to float32
        ts = np.array([0.0, 0.1, 0.5, 0.999])
        got = nn.sinusoidal_time_embedding(ts, 16, np.float32).data
        assert got.dtype == np.float32
        assert np.array_equal(got, nn.sinusoidal_time_embedding(ts, 16).data.astype(np.float32))

    def test_shape_scalar_and_batched(self):
        # one time is a batch of one; a bare scalar is refused
        assert nn.sinusoidal_time_embedding(np.array([0.3]), 64).data.shape == (1, 64)
        assert nn.sinusoidal_time_embedding(np.linspace(0, 1, 5), 64).data.shape == (5, 64)
        with pytest.raises(ValueError, match=r"\(B,\) array of times"):
            nn.sinusoidal_time_embedding(0.3, 64)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            nn.sinusoidal_time_embedding(np.array([0.5]), 7)

    def test_injective_on_millisecond_grid(self):
        grid = np.arange(0, 1001) / 1000.0
        raw = nn.sinusoidal_time_embedding(grid, 64).data
        assert min_pairwise_distance(raw) > 1e-6
        temb = nn.TimeEmbedding(64, np.random.default_rng(3))
        out = temb(grid).data
        assert min_pairwise_distance(out) > 1e-9


class TestTimeEmbedding:
    def test_fixed_length_output(self):
        temb = nn.TimeEmbedding(32, np.random.default_rng(0))
        for t in (0.0, 0.25, 1.0):
            assert temb(np.array([t])).data.shape == (1, 32)

    def test_gradient_through_mlp(self):
        temb = nn.TimeEmbedding(8, np.random.default_rng(5))
        w = Tensor(np.random.default_rng(6).normal(size=(3, 8)))
        ts = np.array([0.1, 0.4, 0.9])

        def loss_fn():
            return nm.tensor_sum(nm.mul(temb(ts), w))

        err = fd_gradcheck_params(loss_fn, list(temb.params().values()))
        assert err < 1e-4


class TestLayers:
    def test_linear_forward(self):
        rng = np.random.default_rng(2)
        lin = nn.Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        got = lin(Tensor(x)).data
        assert np.allclose(got, x @ lin.weight.data + lin.bias.data, atol=1e-14)

    def test_layer_gradients(self):
        rng = np.random.default_rng(8)
        conv = nn.Conv1d(3, 2, 3, rng)
        ln = nn.LayerNorm(2, rng)
        ln.gain.data[:] = rng.uniform(0.5, 1.5, size=2)
        ln.bias.data[:] = rng.normal(size=2)
        x = Tensor(rng.normal(size=(2, 3, 5)))
        w = Tensor(rng.normal(size=(2, 2, 5)))

        def loss_fn():
            return nm.tensor_sum(nm.mul(ln(nm.relu(conv(x))), w))

        params = list(conv.params().values()) + list(ln.params().values())
        assert fd_gradcheck_params(loss_fn, params) < 1e-4

    def test_params_are_the_parameter_attributes(self):
        rng = np.random.default_rng(1)
        for layer, names in ((nn.Linear(4, 3, rng), ("weight", "bias")),
                             (nn.Conv1d(2, 3, 3, rng), ("weight", "bias")),
                             (nn.LayerNorm(5, rng), ("gain", "bias")),
                             (nn.Embedding(7, 4, rng), ("table",))):
            params = layer.params()
            assert list(params) == list(names)
            assert all(params[name] is getattr(layer, name) for name in names)

    def test_undrawn_layers_have_no_gradient_buffers(self):
        # nor have drawn ones: a gradient is None until a backward pass
        def layers(rng):
            return (nn.Linear(4, 3, rng), nn.Conv1d(2, 3, 3, rng),
                    nn.LayerNorm(5, rng), nn.Embedding(7, 4, rng))

        for drawn, undrawn in zip(layers(np.random.default_rng(1)), layers(nn.UNDRAWN)):
            for name, p in undrawn.params().items():
                assert p.requires_grad and p.grad is None
                assert p.data.shape == drawn.params()[name].data.shape
                # a read-only view of one zero, biases and gains included
                assert not p.data.flags.writeable and not any(p.data.strides), name
            assert all(p.requires_grad and p.grad is None
                       for p in drawn.params().values())

    def test_init_is_seed_deterministic(self):
        a = nn.Conv1d(8, 8, 3, np.random.default_rng(42))
        b = nn.Conv1d(8, 8, 3, np.random.default_rng(42))
        c = nn.Conv1d(8, 8, 3, np.random.default_rng(43))
        assert np.array_equal(a.weight.data, b.weight.data)
        assert not np.array_equal(a.weight.data, c.weight.data)

    def test_init_ranges(self):
        rng = np.random.default_rng(9)
        conv = nn.Conv1d(16, 4, 3, rng)
        lim = np.sqrt(1.0 / (16 * 3))
        assert np.all(np.abs(conv.weight.data) <= lim)
        assert np.all(conv.bias.data == 0.0)
        emb = nn.Embedding(1000, 8, rng)
        assert abs(emb.table.data.std() - 0.02) < 0.002
        ln = nn.LayerNorm(5, rng)
        assert np.all(ln.gain.data == 1.0) and np.all(ln.bias.data == 0.0)


class TestParamCount:
    def test_empty_model_is_zero(self):
        assert nn.param_count(nn.Module()) == 0

    def test_counts_layers_and_modules_from_their_parameters(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv1d(192, 280, 3, rng)
        assert nn.param_count(conv) == 280 * 192 * 3 + 280
        # a module counts its sub-layers: the time MLP is 64 -> 256 -> 64
        assert nn.param_count(nn.TimeEmbedding(64, rng)) == 64 * 256 + 256 + 256 * 64 + 64


class TestCastCopy:
    def test_copy_holds_float32_and_leaves_the_original(self):
        model = nn.TimeEmbedding(8, np.random.default_rng(3))
        copy = nn.cast_copy(model, np.float32)
        assert list(copy.params()) == list(model.params())
        for name, p in copy.params().items():
            original = model.params()[name]
            assert p.data.dtype == np.float32 and original.data.dtype == np.float64
            assert np.array_equal(p.data, original.data.astype(np.float32))
            assert p is not original and not p.requires_grad
        t = np.array([0.0, 0.5])
        assert np.allclose(copy(t).data, model(t).data, atol=1e-5)

    def test_copy_does_not_follow_the_original(self):
        layer = nn.Conv1d(2, 3, 3, np.random.default_rng(4))
        copy = nn.cast_copy(layer, np.float32)
        layer.weight.data[...] += 1.0
        assert np.array_equal(copy.weight.data, (layer.weight.data - 1.0).astype(np.float32))


class TestCheckpoint:
    def test_written_at_the_given_name(self, tmp_path):
        path = tmp_path / "bare"
        nn.save_params(path, {"w": np.ones(3)}, {})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bare"]
        assert np.array_equal(nn.load_params(path)[0]["w"], np.ones(3))

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        arrays = {
            "enc.embed.table": rng.normal(size=(24, 192)),
            "pred.conv1.weight": rng.normal(size=(280, 192, 3)) * 1e-7,
            "pred.conv1.bias": rng.normal(size=(280,)) * 1e300,
        }
        meta = {"kind": "det", "vocab_size": 24, "layers": [["conv1d", 192, 280, 3]]}
        path = tmp_path / "model.npz"
        nn.save_params(path, arrays, meta)
        loaded, got_meta = nn.load_params(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == np.float64
        assert got_meta["kind"] == "det"
        assert got_meta["layers"] == [["conv1d", 192, 280, 3]]
        assert got_meta["checkpoint_version"] == 1

    def test_tensor_values_accepted(self, tmp_path):
        p = parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        path = tmp_path / "t.npz"
        nn.save_params(path, {"w": p}, {})
        loaded, _ = nn.load_params(path)
        assert np.array_equal(loaded["w"], p.data)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        nn.save_params(path, {"w": np.ones(3)}, {})
        # rewrite the archive with a tampered version stamp
        import json as js
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        meta = js.loads(bytes(payload["__meta__"]).decode())
        meta["checkpoint_version"] = 99
        payload["__meta__"] = np.frombuffer(js.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **payload)
        with pytest.raises(nn.CheckpointFormatError, match="version 99"):
            nn.load_params(path)

    @pytest.mark.parametrize("damage", ["truncated", "plain-npy", "no-meta", "meta-list",
                                        "not-json"])
    def test_malformed_file_raises_checkpoint_format_error(self, tmp_path, damage):
        path = tmp_path / "bad.npz"
        nn.save_params(path, {"w": np.ones(3)}, {})
        content = path.read_bytes()
        meta = {"meta-list": b"[1]", "not-json": b"{"}.get(damage)
        if damage == "truncated":
            path.write_bytes(content[:len(content) // 2])
        elif damage == "plain-npy":
            with open(path, "wb") as fh:
                np.save(fh, np.ones(3))
        else:
            members = {} if damage == "no-meta" else {
                "__meta__": np.frombuffer(meta, dtype=np.uint8)}
            with open(path, "wb") as fh:
                np.savez(fh, w=np.ones(3), **members)
        with pytest.raises(nn.CheckpointFormatError, match="bad.npz"):
            nn.load_params(path)
        assert issubclass(nn.CheckpointFormatError, ValueError)
