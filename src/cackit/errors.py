"""Exception types shared across the toolkit."""


class CackitError(Exception):
    """Base class for all errors raised by cackit."""


# --- dataset handling ---

class InvalidDataset(CackitError):
    """A dataset violates a structural invariant (shape, label range, finiteness)."""


class MissingColumn(CackitError):
    """The requested label column is not present in the file."""


class ParseError(CackitError):
    """A CSV cell could not be parsed as a finite real number."""

    def __init__(self, row: int, col: int, message: str = "could not parse cell"):
        self.row = row
        self.col = col
        super().__init__(f"{message} (data row {row}, column {col})")


class NonFiniteValue(CackitError):
    """A feature cell parsed to NaN or infinity."""

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value (data row {row}, column {col})")


class TooFewRows(CackitError):
    """The operation needs more rows than the dataset has."""


class EmptySplit(CackitError):
    """A requested split would leave train, validation or test empty."""


class InvalidSpec(CackitError):
    """A generator or split specification is out of range."""


# --- clustering ---

class KTooLarge(CackitError):
    """Requested more clusters than there are data points."""


class DimensionMismatch(CackitError):
    """Centroid and data dimensionalities disagree."""


class OneCluster(CackitError):
    """Silhouette needs at least two non-empty clusters."""


class EmptyCluster(CackitError):
    """The referenced cluster has no members."""


class NotBinary(CackitError):
    """The operation requires binary 0/1 labels with both classes present."""


class InfeasibleInit(CackitError):
    """No feasible initial clustering exists for the requested k."""


class IllegalMove(CackitError):
    """The requested point move violates a guard condition."""


class UntrainedModel(CackitError):
    """The model has no trained per-cluster classifiers yet."""


# --- classifiers / metrics ---

class OneClassOnly(CackitError):
    """Both classes are required but only one is present."""


class NoPositives(CackitError):
    """The metric is undefined without positive labels."""


# --- neural nets ---

class ShapeMismatch(CackitError):
    """Inputs disagree with the network or head dimensions."""


class TrainingDiverged(CackitError):
    """A training stage's loss, or the embedding the stage ends with, became non-finite."""

    def __init__(self, stage: str, epoch: int):
        self.stage = stage
        self.epoch = epoch
        super().__init__(f"{stage} loss is non-finite at epoch {epoch}")


# --- configuration ---

class ConfigInvalid(CackitError):
    """An experiment configuration failed validation."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"config field '{field}': {reason}")


class SchemaMismatch(CackitError):
    """Report files do not share the expected metric schema."""
