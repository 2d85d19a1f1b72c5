"""Containers for frame-labeled data and label inventories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteTableError, InventoryError, ShapeError

LABEL_KINDS = ("senone", "phone")


@dataclass(frozen=True)
class LabelInventory:
    """A task's label space; valid ids are ``0 .. size-1``."""

    task_id: str
    size: int
    kind: str = "senone"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InventoryError(f"inventory size must be >= 1, got {self.size}")
        if self.kind not in LABEL_KINDS:
            raise InventoryError(f"unknown label kind {self.kind!r}")


@dataclass(frozen=True)
class SenoneToPhoneTable:
    """Total collapse function from a task's senones to its phones."""

    task_id: str
    table: np.ndarray
    num_phones: int | None = None

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.int64)
        if table.ndim != 1 or table.size == 0:
            raise IncompleteTableError("senone-to-phone table must be a non-empty 1-d array")
        if (table < 0).any():
            raise IncompleteTableError("senone-to-phone table contains negative phone ids")
        object.__setattr__(self, "table", table)
        num_phones = self.num_phones
        if num_phones is None:
            num_phones = int(table.max()) + 1
        elif int(table.max()) >= num_phones:
            raise IncompleteTableError(
                f"table maps to phone {int(table.max())} but declares only {num_phones} phones"
            )
        object.__setattr__(self, "num_phones", int(num_phones))

    @property
    def num_senones(self) -> int:
        return int(self.table.size)


class FrameSet:
    """Column-oriented batch of frames from a single language.

    Labels and utterance ids are arrays of their own.  The feature rows are
    rows of one 2-d float64 ``array``: all of them, in order, where ``rows``
    is None, else the rows ``rows`` indexes.  ``FrameSet(language, features,
    labels, utterance_ids)`` holds one whole array; :meth:`view` reads rows
    of an array held elsewhere, such as a corpus's, without copying them.
    Training and scoring read the rows through ``array`` and ``rows``.
    """

    def __init__(
        self, language: str, features: np.ndarray, labels: np.ndarray, utterance_ids: np.ndarray
    ) -> None:
        self._set(language, np.asarray(features, dtype=np.float64), None, labels, utterance_ids)

    @classmethod
    def view(
        cls, language: str, array: np.ndarray, rows: np.ndarray | None,
        labels: np.ndarray, utterance_ids: np.ndarray,
    ) -> FrameSet:
        """The frames whose features are the rows ``rows`` of ``array`` (all
        of its rows where ``rows`` is None)."""
        fs = cls.__new__(cls)
        fs._set(language, array, rows, labels, utterance_ids)
        return fs

    def _set(self, language: str, array: np.ndarray, rows, labels, utterance_ids) -> None:
        self.language = language
        self.array = array
        self.rows = None if rows is None else np.asarray(rows, np.intp)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.utterance_ids = np.asarray(utterance_ids, dtype=np.int64)
        if array.ndim != 2 or array.dtype != np.float64:
            raise ShapeError(f"features must be 2-d float64, got shape {array.shape}")
        if self.rows is not None and (
            self.rows.ndim != 1
            or self.rows.size and not 0 <= self.rows.min() <= self.rows.max() < len(array)
        ):
            raise ShapeError(f"feature rows must be a 1-d index into {len(array)} rows")
        n = len(array if self.rows is None else self.rows)
        if self.labels.shape != (n,) or self.utterance_ids.shape != (n,):
            raise ShapeError("features, labels and utterance_ids must have matching lengths")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.array.shape[1])

    @property
    def features(self) -> np.ndarray:
        """The feature rows as one array: the array itself for a whole-array
        set, else a copy."""
        return self.array if self.rows is None else self.feature_rows(slice(0, len(self)))

    def feature_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The features of the frames ``rows.start:rows.stop``: the rows of a
        whole array as they are, else a copy, written into the first rows of
        ``out`` if it is given."""
        if self.rows is None:
            return self.array[rows]
        index = self.rows[rows]
        copy = np.empty((index.size, self.feature_dim)) if out is None else out[: index.size]
        # Every index is in range; mode "clip" only skips take's output copy.
        return self.array.take(index, axis=0, out=copy, mode="clip")

    def relabeled(self, language: str, labels: np.ndarray) -> FrameSet:
        """These frames' features and utterance ids, of ``language``, with ``labels``."""
        return FrameSet.view(language, self.array, self.rows, labels, self.utterance_ids)


def joined(pieces: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(pieces)``, or, where the pieces are one array or
    consecutive row blocks of one array that they make up whole, that
    array itself: no copy."""
    whole = pieces[0] if len(pieces) == 1 or pieces[0].base is None else pieces[0].base
    stops = np.cumsum([0] + [len(piece) for piece in pieces]).tolist()
    if isinstance(whole, np.ndarray) and len(whole) == stops[-1] and all(
        piece.__array_interface__ == whole[start:stop].__array_interface__
        for piece, start, stop in zip(pieces, stops, stops[1:])
    ):
        return whole
    return np.concatenate(pieces)
