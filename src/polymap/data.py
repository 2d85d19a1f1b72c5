"""Containers for frame-labeled data and label inventories."""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True, eq=False, repr=False)
class FrameSet:
    """Column-oriented batch of frames from a single language.

    Labels and utterance ids are int64 arrays of their own.  The feature
    rows are all rows of one 2-d float64 ``array``, in order, or, given an
    ``intp`` index ``rows``, the rows it holds, so a set reads an array held
    elsewhere, such as a corpus's, in place.  Construction converts each
    field to its type, keeping an array that has it, and checks the shapes.
    """

    language: str
    array: np.ndarray
    labels: np.ndarray
    utterance_ids: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "array", np.asarray(self.array, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "utterance_ids", np.asarray(self.utterance_ids, dtype=np.int64))
        if self.rows is not None:
            object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.intp))
        array, rows = self.array, self.rows
        if array.ndim != 2:
            raise ShapeError(f"features must be 2-d float64, got shape {array.shape}")
        if rows is not None and (
            rows.ndim != 1 or rows.size and not 0 <= rows.min() <= rows.max() < len(array)
        ):
            raise ShapeError(f"feature rows must be a 1-d index into {len(array)} rows")
        n = len(array if rows is None else rows)
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
        return replace(self, language=language, labels=labels)


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
