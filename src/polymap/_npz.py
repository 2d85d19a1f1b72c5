"""Deterministic ``.npz`` reading and writing, and the one way to write an artifact.

``numpy.savez`` stamps zip members with the current time, so two saves
of the same model differ at the byte level.  Model, map-set and corpus
files all go through this writer instead, which pins the timestamp and
sorts the members, making every artifact reproducible byte for byte.
Every file the package writes, binary or text, is opened by
:func:`open_artifact`, so a write that fails names its file.
"""

from __future__ import annotations

import tokenize
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO

import numpy as np

from .errors import ArtifactError

_FIXED_DATE = (1980, 1, 1, 0, 0, 0)


@contextmanager
def open_artifact(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """``path`` open for writing in ``mode`` (``"w"`` text, ``"wb"`` binary),
    its parent directory made first.  An ``OSError`` while making, opening,
    writing or closing it becomes :class:`ArtifactError` naming the file."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, mode) as f:
            yield f
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc}") from exc


def write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    with open_artifact(path, "wb") as f, zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            info = zipfile.ZipInfo(name + ".npy", date_time=_FIXED_DATE)
            # Streamed straight into the archive, not built in memory first.
            # Like writestr, give a member too large for a plain zip header
            # zip64 extensions.
            large = array.nbytes * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(info, "w", force_zip64=large) as dest:
                np.lib.format.write_array(dest, array, allow_pickle=False)


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """All members of an ``.npz`` archive; :class:`ArtifactError` naming
    the path if it is missing, a directory, truncated, damaged or not an archive."""
    if not zipfile.is_zipfile(path):
        found = Path(path)
        problem = ("is a directory" if found.is_dir() else
                   "truncated or not an .npz archive" if found.exists() else "no such file")
        raise ArtifactError(f"cannot read {path}: {problem}")
    try:
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in data.files}
    # zipfile raises NotImplementedError for an unknown compression method or
    # zip version and RuntimeError for a member flagged as encrypted.  numpy
    # raises TokenError for a member header with unbalanced brackets and
    # SyntaxError for a dtype string that does not parse.
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, NotImplementedError,
            RuntimeError, SyntaxError, tokenize.TokenError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
