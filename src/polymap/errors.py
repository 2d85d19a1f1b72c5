"""Exception hierarchy used across the package."""


class PolymapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArchitectureError(PolymapError):
    """Network layer specification is unusable (too few layers, bad sizes)."""


class ShapeError(PolymapError):
    """An array has the wrong dimensionality or size for the operation."""


class LabelRangeError(PolymapError):
    """A label id falls outside the inventory it is used against."""


class RangeError(PolymapError):
    """A scalar argument (epoch index, head id) is out of range."""


class EmptyDataError(PolymapError):
    """An operation that needs at least one frame received none."""


class IncompleteTableError(PolymapError):
    """A senone-to-phone table does not cover the relevant inventory."""


class IncompleteMapError(PolymapError):
    """A label map leaves some source label undefined."""


class DuplicateEntryError(PolymapError):
    """A label map file defines the same source label twice."""


class MapFormatError(PolymapError):
    """A label map file line cannot be parsed."""


class IncompleteMapSetError(PolymapError):
    """A cross-task map set is missing a required language pair."""


class UnknownLanguageError(PolymapError):
    """A frame or head refers to a language the model does not know."""


class InventoryError(PolymapError):
    """Label inventories disagree between two objects being combined."""


class FractionError(PolymapError):
    """Split fractions are negative or do not sum to one."""


class SynthSpecError(PolymapError):
    """A synthetic corpus specification violates its own constraints."""


class MissingBaselineError(PolymapError):
    """A results table cannot compute improvements without a baseline row."""


class ConfigError(PolymapError):
    """An experiment configuration failed validation."""


class ArtifactError(PolymapError):
    """A file the pipeline reads back is missing, truncated or not of its format."""


class StaleArtifactError(ArtifactError):
    """A cached artifact was made for another config or seed than this run's."""


class NonFiniteLossError(PolymapError):
    """Training diverged: an epoch's loss is not a finite number."""
