"""Atomic replacement of written artifacts: a failed writer leaves the
previous file, or none, and no temporary file."""

import os

import numpy as np
import pytest

from durflow import files, nn
from durflow.data import CorpusSpec, generate, load, save
from durflow.evaluation import ResidualCurve, write_report
from durflow.files import atomic_write


class Midway(RuntimeError):
    pass


@pytest.mark.parametrize("old", [None, "old contents\n"])
def test_writer_raising_midway_leaves_the_old_file(tmp_path, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_text(old)
    with pytest.raises(Midway):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            fh.flush()
            raise Midway()
    assert os.listdir(tmp_path) == ([] if old is None else ["out.txt"])
    if old is not None:
        assert path.read_text() == old


def test_clean_exit_replaces_the_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_write(path, binary=True) as fh:
        fh.write(b"new\r\n")
    assert path.read_bytes() == b"new\r\n"
    with atomic_write(path) as fh:
        fh.write("text\n")
    assert path.read_bytes() == b"text\n"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_new_file_gets_the_permissions_open_gives(tmp_path):
    with open(tmp_path / "plain", "w") as fh:
        fh.write("x")
    with atomic_write(tmp_path / "atomic") as fh:
        fh.write("x")
    assert (os.stat(tmp_path / "atomic").st_mode
            == os.stat(tmp_path / "plain").st_mode)


def _corpus():
    return generate(CorpusSpec(style="read", seed=1, num_sentences=4, min_phones=2,
                               max_phones=3))


WRITERS = {
    "corpus": ("c.durcorpus", lambda path: save(_corpus(), path)),
    "checkpoint": ("m.npz", lambda path: nn.save_params(path, {"w": np.ones(2)}, {})),
    "report": ("residual.csv",
               lambda path: write_report(ResidualCurve((1,)), {}, [], os.path.dirname(path))),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_keep_the_old_file_when_the_write_fails(tmp_path, monkeypatch, writer):
    name, write = WRITERS[writer]
    path = tmp_path / name
    path.write_bytes(b"old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(files.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write(str(path))
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == [name]


def test_writers_replace_the_old_file(tmp_path):
    for name, write in WRITERS.values():
        (tmp_path / name).write_bytes(b"old")
        write(str(tmp_path / name))
    assert load(tmp_path / "c.durcorpus") == _corpus()
    assert np.array_equal(nn.load_params(tmp_path / "m.npz")[0]["w"], np.ones(2))
    assert (tmp_path / "residual.csv").read_text() == "model,corpus,nfe,mean_residual\n"
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
