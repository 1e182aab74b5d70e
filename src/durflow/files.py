"""Writing artifacts so that a reader never sees half a file.

Every file durflow writes (checkpoints, corpora, ``durations.txt``,
the report CSVs, the loss log) goes through :func:`atomic_write`:
the content goes to a temporary file in the target's directory, which
``os.replace`` then renames over the target. A writer that fails or is
interrupted part-way leaves the previous file, or no file, and removes
its temporary file. This guards against failures of the process, not
of the machine: nothing is fsynced.
"""

from __future__ import annotations

import contextlib
import os
import uuid

import numpy as np


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a temporary file beside ``path`` for writing; on a clean exit
    it replaces ``path``, on an exception it is removed.

    Text mode writes UTF-8 and translates no newlines. The temporary
    file is created like ``open(path, "w")`` creates a file, with the
    umask's permissions.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    mode = "xb" if binary else "x"
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def plain_number(value):
    """``json.dumps``'s ``default`` for corpus headers and checkpoints:
    the validators accept numpy numbers, stored as given, which json
    cannot write; each becomes the Python number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
