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
# Bytes of a member read at a time by read_into, or written at a time by write_npz.
_CHUNK_BYTES = 1 << 16


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
    """Write ``arrays`` as an uncompressed ``.npz`` archive, streaming each
    member in; a plain C-contiguous array's bytes go uncopied."""
    with open_artifact(path, "wb") as f, zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            array = np.asarray(arrays[name])
            info = zipfile.ZipInfo(name + ".npy", date_time=_FIXED_DATE)
            # Like writestr, give a member too large for a plain zip header
            # zip64 extensions.
            large = array.nbytes * 1.05 > zipfile.ZIP64_LIMIT
            with zf.open(info, "w", force_zip64=large) as dest:
                if not (array.flags.c_contiguous and array.dtype.kind in "biufcSU"):
                    np.lib.format.write_array(dest, array, allow_pickle=False)
                    continue
                # numpy writes a plain dtype's header in version 1.0
                header = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(dest, header)
                data = memoryview(array.reshape(-1).view(np.uint8))
                for at in range(0, len(data), _CHUNK_BYTES):
                    dest.write(data[at : at + _CHUNK_BYTES])


@contextmanager
def reading_npz(path: str | Path) -> Iterator[np.lib.npyio.NpzFile]:
    """The ``.npz`` archive ``path``, open; :class:`ArtifactError` naming the
    path if it is missing, a directory, truncated, damaged or not an
    archive, or if reading a member of it within the block fails so."""
    if not zipfile.is_zipfile(path):
        found = Path(path)
        problem = ("is a directory" if found.is_dir() else
                   "truncated or not an .npz archive" if found.exists() else "no such file")
        raise ArtifactError(f"cannot read {path}: {problem}")
    try:
        # Opened here, not by np.load, which leaves the file open if the
        # archive's central directory does not parse.
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as data:
            yield data
    # zipfile raises NotImplementedError for an unknown compression method or
    # zip version and RuntimeError for a member flagged as encrypted.  numpy
    # raises TokenError for a member header with unbalanced brackets and
    # SyntaxError for a dtype string that does not parse.
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, NotImplementedError,
            RuntimeError, SyntaxError, tokenize.TokenError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """All members of an ``.npz`` archive; :class:`ArtifactError` as
    :func:`reading_npz` raises it."""
    with reading_npz(path) as data:
        return {name: data[name] for name in data.files}


def read_into(data: np.lib.npyio.NpzFile, name: str, out: np.ndarray) -> None:
    """Read the member ``name`` of an open archive into ``out``, a C-contiguous
    array of the member's shape and dtype, a chunk at a time and to the
    member's end, where zipfile checks its CRC; ``ValueError`` if the member
    is not such an array, ``KeyError`` if there is none."""
    with data.zip.open(name + ".npy") as f:
        # Versions 2.0 and 3.0 differ only in the header text's encoding.
        version = np.lib.format.read_magic(f)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        if read_header(f) != (out.shape, False, out.dtype):
            raise ValueError(f"member {name} is not a {out.dtype} array of shape {out.shape}")
        view = out.reshape(-1).view(np.uint8)
        chunks = range(0, len(view), _CHUNK_BYTES)
        if sum(f.readinto(view[at : at + _CHUNK_BYTES]) for at in chunks) < len(view) or f.read(1):
            raise ValueError(f"member {name} does not hold {len(view)} bytes of values")
