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


@dataclass
class FrameSet:
    """Column-oriented batch of frames from a single language.

    Feature rows, labels and utterance ids are parallel arrays, so
    training and mapping code stays vectorized.
    """

    language: str
    features: np.ndarray
    labels: np.ndarray
    utterance_ids: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.utterance_ids = np.asarray(self.utterance_ids, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-d, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.utterance_ids.shape != (n,):
            raise ShapeError("features, labels and utterance_ids must have matching lengths")

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def join_rows(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``parts`` joined along their first axis.  One part is returned as it
    is, and parts that are consecutive row slices of one C-contiguous array,
    in order, join as a view of that array; any others are concatenated into
    a new one."""
    if len(parts) == 1:
        return parts[0]
    first, full = parts[0], [part for part in parts if part.size]
    base = full[0].base if full else None
    if not (isinstance(base, np.ndarray) and base.flags.c_contiguous):
        return np.concatenate(parts)
    start = end = full[0].ctypes.data
    for part in parts:
        fits = part.dtype == first.dtype and part.shape[1:] == first.shape[1:]
        if fits and part.size:  # an empty slice may point anywhere
            fits = part.base is base and part.flags.c_contiguous and part.ctypes.data == end
            end += part.nbytes
        if not fits:
            return np.concatenate(parts)
    shape = (sum(len(part) for part in parts), *first.shape[1:])
    return np.ndarray(shape, first.dtype, base, start - base.ctypes.data)
