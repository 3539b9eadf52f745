"""Persist regenerated artifacts, and what the harness' journals share.

This module writes the harness' table/figure data to JSON with an
environment stamp. It also holds the one JSON normalizer that artifacts,
sweep journals and ``RunResult.to_dict`` use, the crash-safe write, and
the one append-only :class:`Journal` the sweep and job journals share.
"""

from __future__ import annotations

import json
import math
import os
import platform
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from ..errors import ReproError


def _jsonable(value):
    """Recursively convert harness outputs (numpy arrays and scalars
    etc.) to JSON."""
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "tolist"):        # numpy array or scalar
        return _jsonable(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None                      # NaN and +/-inf -> null
    return value


def atomic_write_text(path, text: str) -> Path:
    """Crash-safe file replacement: temp file in the same dir + os.replace.

    A crash (or Ctrl-C) mid-write leaves either the old file or the new
    one, never a truncated hybrid; the temp file is cleaned up on any
    failure. The temp file lives next to the target because
    ``os.replace`` is only atomic within one filesystem.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


class Journal:
    """One append-only JSONL file; the sweep and job journals share it.

    A crash mid-append tears at most the last line (cut short, or whole
    but for its newline), so :meth:`read` drops a torn tail and refuses
    any other line that is not a JSON object. :meth:`open` restores the
    intact lines (or what :meth:`retain` kept) with one
    :func:`atomic_write_text`, so no record lands on a fragment.
    :meth:`append` is one ``O_APPEND`` ``os.write`` per record, which
    never interleaves with another, then ``os.fsync`` if ``fsync``.
    """

    def __init__(self, path, fsync: bool):
        self.path = Path(path)
        self.fsync = fsync
        self._fd = None
        self._lines = []          # the intact lines read() found
        self._rewrite = False     # must open() restore them first?

    def read(self) -> list:
        """Every intact line, parsed; the torn tail is left out."""
        text = self.path.read_text()
        lines = [line for line in text.split("\n") if line.strip()]
        entries = []
        for index, line in enumerate(lines, start=1):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines):
                    break                 # the torn tail
                entry = None
            if not isinstance(entry, dict):
                raise ReproError(
                    f"{self.path}:{index} is corrupt mid-journal; "
                    "refusing to resume from it")
            entries.append(entry)
        self._lines = lines[:len(entries)]
        self._rewrite = len(entries) < len(lines) \
            or (bool(lines) and not text.endswith("\n"))
        return entries

    def retain(self, count: int) -> None:
        """Keep only the first ``count`` lines :meth:`read` returned."""
        self._lines = self._lines[:count]
        self._rewrite = True

    def open(self, header: dict = None) -> None:
        """Start appending; a new file begins with ``header``."""
        if not self.path.exists():
            if header is not None:
                atomic_write_text(self.path, json.dumps(header) + "\n")
        elif self._rewrite:
            atomic_write_text(self.path,
                              "".join(line + "\n" for line in self._lines))
        self._lines, self._rewrite = [], False
        self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                           0o644)

    def append(self, entry: dict) -> None:
        if self._fd is None:
            self.open()
        os.write(self._fd, (json.dumps(entry, sort_keys=True) + "\n").encode())
        if self.fsync:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def save_artifact(path, name: str, data, metadata: dict = None) -> Path:
    """Write one artifact (e.g. table5 output) with an environment stamp.

    The write is atomic (see :func:`atomic_write_text`): an interrupted
    save never corrupts a previously saved artifact.
    """
    payload = {
        "artifact": name,
        "created": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "metadata": _jsonable(metadata or {}),
        "data": _jsonable(data),
    }
    return atomic_write_text(path, json.dumps(payload, indent=2,
                                              sort_keys=True))


def load_artifact(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no saved artifact at {path}")
    payload = json.loads(path.read_text())
    for key in ("artifact", "data"):
        if key not in payload:
            raise ReproError(f"{path} is not a saved artifact (missing {key})")
    return payload
