"""Deterministic ``.npz`` reading and writing.

``numpy.savez`` stamps zip members with the current time, so two saves
of the same model differ at the byte level.  Model, map-set and corpus
files all go through this writer instead, which pins the timestamp and
sorts the members, making every artifact reproducible byte for byte.
"""

from __future__ import annotations

import io
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .errors import ArtifactError

_FIXED_DATE = (1980, 1, 1, 0, 0, 0)


def write_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_FIXED_DATE)
            zf.writestr(info, buf.getvalue())


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """All members of an ``.npz`` archive; :class:`ArtifactError` naming
    the path if the file is missing, truncated, damaged or not an archive."""
    if not zipfile.is_zipfile(path):
        problem = "truncated or not an .npz archive" if Path(path).exists() else "no such file"
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
