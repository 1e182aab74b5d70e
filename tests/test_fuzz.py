"""Damaged checkpoint and corpus files at the command line.

Each example truncates a valid tiny file, flips one byte of it, drops
one of its keys, or gives one value inside a corpus header's params
JSON a value of another JSON type, and runs ``durflow sample`` on the
result. The command must exit 0 with nothing on stderr, or 1 or 2 with
exactly one ``error:`` line; it never raises, warns or prints a
traceback. A file that no longer loads must fail with an error naming
it (for a checkpoint, a CheckpointFormatError). A truncated checkpoint,
a file missing a key and a corpus with a mistyped header value must
fail.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from durflow import nn
from durflow.cli import main
from durflow.data import CorpusSpec, generate, load, save
from durflow.duration import DurationModel, load_model, save_model

FUZZ = settings(max_examples=50, deadline=None, derandomize=True)
CORPUS_HEADER_KEYS = ("style", "vocab", "seed", "split", "params")
# one value of each JSON type: null, boolean, number, string, array, object
JSON_VALUES = (None, True, 3, "x", [1, 2], {"k": 1})


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory holding a tiny fm checkpoint and a corpus it can sample."""
    directory = tmp_path_factory.mktemp("fuzz")
    spec = CorpusSpec(style="spont", seed=1, num_sentences=3, min_phones=2, max_phones=3)
    model = DurationModel("fm", spec.vocab_size, seed=0, encoder_dim=4, hidden=4,
                          noise_dim=2, time_dim=4)
    model.trained_steps = 1
    save_model(model, directory / "model.npz")
    save(generate(spec, "val"), directory / "val.durcorpus")
    return str(directory)


def read_files(directory) -> dict:
    return {name: pathlib.Path(directory, name).read_bytes()
            for name in ("model.npz", "val.durcorpus")}


def sample_on(files: dict):
    """Write ``files`` to a fresh directory and run durflow sample on them.
    Returns (exit code, stderr lines, warnings, loads) where ``loads``
    maps each file name to whether its reader accepts it."""
    with tempfile.TemporaryDirectory() as directory:
        for name, content in files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(content)
        checkpoint = os.path.join(directory, "model.npz")
        corpus = os.path.join(directory, "val.durcorpus")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["sample", "--checkpoint", checkpoint, "--corpus", corpus,
                         "--nfe", "1", "--reps", "1",
                         "--out", os.path.join(directory, "out")])
        loads = {}
        for name, reader, error in (("model.npz", load_model, nn.CheckpointFormatError),
                                    ("val.durcorpus", load, ValueError)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    reader(os.path.join(directory, name))
                loads[name] = True
            except error:
                loads[name] = False
    return code, err.getvalue().split("\n")[:-1], caught, loads


def check_outcome(code, lines, caught, loads, damaged):
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert lines == [] and loads[damaged]
        return
    assert code in (1, 2)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if not loads[damaged]:
        assert damaged in lines[0]


def rewrite_checkpoint(content: bytes, drop: str) -> bytes:
    """The checkpoint without archive member ``drop``, or without the
    metadata key ``meta.<key>``."""
    with np.load(io.BytesIO(content)) as archive:
        members = {k: archive[k] for k in archive.files}
    if drop.startswith("meta."):
        meta = json.loads(bytes(members["__meta__"]).decode("utf-8"))
        del meta[drop[len("meta."):]]
        members["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    else:
        del members[drop]
    out = io.BytesIO()
    np.savez(out, **members)
    return out.getvalue()


def checkpoint_keys(content: bytes) -> list:
    with np.load(io.BytesIO(content)) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        return sorted(archive.files) + sorted(f"meta.{k}" for k in meta)


def drop_corpus_key(content: bytes, key: str) -> bytes:
    """The corpus without header key ``key``, or without ``params.<key>``."""
    header, rest = content.decode("utf-8").split("\n", 1)
    tokens = header.split(" ")
    if key.startswith("params."):
        i = next(i for i, t in enumerate(tokens) if t.startswith("params="))
        params = json.loads(tokens[i][len("params="):])
        del params[key[len("params."):]]
        tokens[i] = "params=" + json.dumps(params, separators=(",", ":"))
    else:
        tokens = [t for t in tokens if not t.startswith(f"{key}=")]
    return (" ".join(tokens) + "\n" + rest).encode("utf-8")


def corpus_keys(content: bytes) -> list:
    header = content.decode("utf-8").split("\n", 1)[0]
    params = json.loads(header.split(" params=", 1)[1])
    return list(CORPUS_HEADER_KEYS) + sorted(f"params.{k}" for k in params)


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def value_paths(node, path=()):
    """The key path of every value inside a JSON document but the root."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


def mistype_header_value(content: bytes, where: float, choice: int) -> bytes:
    """The corpus with one value inside its header's params JSON (a law
    or a field of one, a probability, a count) replaced by the value of
    another JSON type that ``choice`` picks."""
    header, rest = content.decode("utf-8").split("\n", 1)
    head, blob = header.split(" params=", 1)
    params = json.loads(blob)
    paths = list(value_paths(params))
    path = paths[int(where * len(paths))]
    node = params
    for key in path[:-1]:
        node = node[key]
    others = [v for v in JSON_VALUES if json_type(v) != json_type(node[path[-1]])]
    node[path[-1]] = others[choice]
    blob = json.dumps(params, separators=(",", ":"))
    return f"{head} params={blob}\n{rest}".encode("utf-8")


mutations = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                         st.integers(1, 255))),
    st.tuples(st.just("drop"), st.floats(0.0, 1.0, exclude_max=True)),
)


def mutate(content: bytes, mutation, keys, drop) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return content[:int(arg * len(content))]
    if kind == "flip":
        where, mask = arg
        i = int(where * len(content))
        return content[:i] + bytes([content[i] ^ mask]) + content[i + 1:]
    return drop(content, keys[int(arg * len(keys))])


@FUZZ
@given(mutation=mutations)
def test_damaged_checkpoint(valid_files, mutation):
    files = read_files(valid_files)
    content = files["model.npz"]
    files["model.npz"] = mutate(content, mutation, checkpoint_keys(content),
                                rewrite_checkpoint)
    code, lines, caught, loads = sample_on(files)
    check_outcome(code, lines, caught, loads, "model.npz")
    if mutation[0] == "truncate":
        assert code == 2
    if mutation[0] == "drop":
        dropped = checkpoint_keys(content)[int(mutation[1] * len(checkpoint_keys(content)))]
        assert code == 2 or dropped == "meta.layers"


@FUZZ
@given(mutation=mutations)
def test_damaged_corpus(valid_files, mutation):
    files = read_files(valid_files)
    content = files["val.durcorpus"]
    files["val.durcorpus"] = mutate(content, mutation, corpus_keys(content),
                                    drop_corpus_key)
    code, lines, caught, loads = sample_on(files)
    check_outcome(code, lines, caught, loads, "val.durcorpus")
    if mutation[0] == "drop":
        assert code == 2


@FUZZ
@given(where=st.floats(0.0, 1.0, exclude_max=True),
       choice=st.integers(0, len(JSON_VALUES) - 2))
def test_mistyped_corpus_header(valid_files, where, choice):
    files = read_files(valid_files)
    files["val.durcorpus"] = mistype_header_value(files["val.durcorpus"], where, choice)
    code, lines, caught, loads = sample_on(files)
    check_outcome(code, lines, caught, loads, "val.durcorpus")
    assert code == 2


def test_undamaged_files_sample(valid_files):
    code, lines, caught, loads = sample_on(read_files(valid_files))
    assert (code, lines, caught) == (0, [], [])
    assert all(loads.values())
