"""Atomic, durable file writes shared by the crash-safe paths.

Two subsystems must never leave a torn file behind a crash: the
content-addressed store's disk tier (:mod:`repro.store`, under the
result cache — a torn entry would at best cost a rebuild,
and a killed sweep resumes by replaying these files), and the
Chrome-trace export (a truncated JSON file looks empty to Perfetto,
which reads as "the run produced no events").

All of them use the same POSIX recipe, extracted here so it is written
once and tested once:

1. create a unique temp file *in the destination directory* (same
   filesystem, so the final rename cannot degrade to a copy);
2. write the payload and ``fsync`` the file descriptor, so the data is
   on the platter before the name exists;
3. ``os.replace`` onto the destination — atomic on POSIX, so readers
   see either the old complete file or the new complete file, never a
   prefix.

``fsync=False`` skips step 2 for throwaway artifacts (tests, tmpfs)
where durability across power loss is not worth the flush.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_pickle",
]


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + rename).

    The destination directory is created on demand.  On any failure the
    temp file is removed and the original ``path`` (if it existed) is
    left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)  # atomic under POSIX
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, fsync: bool = True,
                      encoding: str = "utf-8") -> None:
    """:func:`atomic_write_bytes` for str payloads."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_pickle(path: str, value: Any, fsync: bool = True) -> None:
    """Atomically pickle ``value`` to ``path``.

    The pickle happens *before* the temp file exists, so an unpicklable
    value raises without leaving any file behind.
    """
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, data, fsync=fsync)
