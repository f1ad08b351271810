"""Durable, atomic persistence for ``BENCH_*.json`` trajectories.

The committed baselines (``BENCH_kv_scaling.json`` and friends) are
append-only trajectories that CI gates on, so a half-written file is a
broken build for everyone downstream.  All writes therefore go through
:func:`atomic_write_json`: serialize to a temp file *in the same
directory*, ``flush`` + ``fsync`` it, then ``os.replace`` over the
target and fsync the directory entry.  An interruption at any point
leaves either the old complete file or the new complete file - never a
truncated hybrid.  ``repro exp run`` appends through
:func:`append_document`; nothing else writes a ``BENCH_*.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, List

__all__ = ["load_payload", "append_document"]


def atomic_write_json(path: str, payload: Any) -> None:
    """Write *payload* as JSON such that *path* is never seen partial."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # Durability of the rename itself: fsync the directory so a crash
    # cannot roll the entry back to the old file *after* we reported
    # success.  Some filesystems refuse O_RDONLY fsync on directories;
    # the rename is still atomic without it.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def load_payload(path: str) -> Any:
    """Read a ``BENCH_*.json`` payload; ``None`` if the file is absent."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def append_document(path: str, document: dict) -> List[Any]:
    """Append *document* to the trajectory at *path*, atomically.

    A missing file starts a fresh trajectory; an existing single
    document is promoted to a one-element trajectory first (the shape
    ``repro exp validate`` accepts either way).  Returns the full
    trajectory as written.
    """
    payload = load_payload(path)
    if payload is None:
        trajectory: List[Any] = []
    elif isinstance(payload, list):
        trajectory = payload
    else:
        trajectory = [payload]
    trajectory.append(document)
    atomic_write_json(path, trajectory)
    return trajectory
