"""Containers for frame-labeled data and label inventories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    read from one or more feature arrays: ``parts`` lists ``(array, rows)``
    pairs in frame order, where ``rows`` indexes the array's rows, or is
    None for all of them.  ``FrameSet(language, features, labels,
    utterance_ids)`` holds one whole array; :meth:`view` reads rows of
    arrays held elsewhere, such as a corpus's, without copying them.
    Training and scoring read the rows through ``parts``.
    """

    def __init__(
        self, language: str, features: np.ndarray, labels: np.ndarray, utterance_ids: np.ndarray
    ) -> None:
        self._set(language, [(np.asarray(features, dtype=np.float64), None)], labels, utterance_ids)

    @classmethod
    def view(
        cls, language: str, parts: Sequence[tuple[np.ndarray, np.ndarray | None]],
        labels: np.ndarray, utterance_ids: np.ndarray,
    ) -> FrameSet:
        """The frames whose features are, in order, the rows ``rows`` of each
        ``(array, rows)`` of ``parts`` (all rows where ``rows`` is None)."""
        fs = cls.__new__(cls)
        fs._set(language, parts, labels, utterance_ids)
        return fs

    def _set(self, language: str, parts, labels: np.ndarray, utterance_ids: np.ndarray) -> None:
        self.language = language
        self.parts = [(a, None if rows is None else np.asarray(rows, np.intp)) for a, rows in parts]
        self.labels = np.asarray(labels, dtype=np.int64)
        self.utterance_ids = np.asarray(utterance_ids, dtype=np.int64)
        if not self.parts:
            raise ShapeError("a frame set needs at least one feature array")
        for a, rows in self.parts:
            if a.ndim != 2 or a.dtype != np.float64 or a.shape[1] != self.feature_dim:
                raise ShapeError(f"features must be 2-d float64 of one width, got shape {a.shape}")
            if rows is not None and (
                rows.ndim != 1 or rows.size and not 0 <= rows.min() <= rows.max() < len(a)
            ):
                raise ShapeError(f"feature rows must be a 1-d index into {len(a)} rows")
        n = sum(len(a if rows is None else rows) for a, rows in self.parts)
        if self.labels.shape != (n,) or self.utterance_ids.shape != (n,):
            raise ShapeError("features, labels and utterance_ids must have matching lengths")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.parts[0][0].shape[1])

    @property
    def features(self) -> np.ndarray:
        """The feature rows as one array: the array itself for a whole-array
        set, else a copy."""
        return self.feature_rows(slice(0, len(self)))

    def feature_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The features of the frames ``rows.start:rows.stop``: the rows of a
        whole array as they are, else a copy, written into the first rows of
        ``out`` if it is given."""
        pieces, start = [], 0
        for a, index in self.parts:
            stop = start + len(a if index is None else index)
            lo, hi = max(rows.start, start) - start, min(rows.stop, stop) - start
            if lo < hi:
                pieces.append((a, index, lo, hi))
            start = stop
        if len(pieces) == 1 and pieces[0][1] is None:
            a, _, lo, hi = pieces[0]
            return a if hi - lo == len(a) else a[lo:hi]
        size = sum(hi - lo for *_, lo, hi in pieces)
        copy = np.empty((size, self.feature_dim)) if out is None else out[:size]
        at = 0
        for a, index, lo, hi in pieces:
            if index is None:
                copy[at : at + hi - lo] = a[lo:hi]
            else:
                a.take(index[lo:hi], axis=0, out=copy[at : at + hi - lo], mode="clip")
            at += hi - lo
        return copy

    def relabeled(self, language: str, labels: np.ndarray) -> FrameSet:
        """These frames' features and utterance ids, of ``language``, with ``labels``."""
        return FrameSet.view(language, self.parts, labels, self.utterance_ids)
