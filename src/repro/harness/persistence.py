"""Persist regenerated artifacts, and what the harness' journals share.

This module writes the harness' table/figure data to JSON with an
environment stamp. It also holds the one JSON normalizer that artifacts,
sweep journals and ``RunResult.to_dict`` use, and the crash-safe write
and journal-read primitives.
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


def read_jsonl(path) -> tuple:
    """Parse an append-only JSONL journal -> ``(entries, intact_prefix)``.

    A crash mid-append tears at most the final line: it is cut short, or
    complete but for its newline. When that happened, ``intact_prefix``
    is the text of the complete lines — what the file must be rewritten
    to (:func:`atomic_write_text`) before the next append, or that
    record would land *on* the fragment; otherwise it is ``None``.
    Garbage anywhere but the tail is not a crash signature and is
    refused.
    """
    path = Path(path)
    text = path.read_text()
    lines = [line for line in text.split("\n") if line.strip()]
    entries = []
    for index, line in enumerate(lines, start=1):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            if index < len(lines):
                raise ReproError(
                    f"{path}:{index} is corrupt mid-journal; "
                    "refusing to resume from it") from None
            # The last line: the torn tail, left out of the prefix below.
    if len(entries) == len(lines) and (text.endswith("\n") or not lines):
        return entries, None
    return entries, "".join(line + "\n" for line in lines[:len(entries)])


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
