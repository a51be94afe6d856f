"""Exception types shared across the toolkit."""


class CackitError(Exception):
    """Base class for all errors raised by cackit."""


# --- dataset handling ---

class InvalidDataset(CackitError):
    """A dataset violates a structural invariant (shape, labels, finiteness, a
    missing column, too few rows) or a split of it would be empty."""


class ParseError(CackitError):
    """A CSV cell could not be parsed as a finite real number, or a row has the wrong width."""

    def __init__(self, row: int, col: int, message: str = "could not parse cell"):
        self.row = row
        self.col = col
        super().__init__(f"{message} (data row {row}, column {col})")


class InvalidSpec(CackitError):
    """A generator, split, classifier or training setting is out of range."""


# --- clustering ---

class DimensionMismatch(CackitError):
    """Array widths or batch sizes disagree (data, centroids, weights, layers, heads)."""


class OneCluster(CackitError):
    """Silhouette needs at least two non-empty clusters."""


class EmptyCluster(CackitError):
    """The referenced cluster has no members."""


class NotBinary(CackitError):
    """The operation requires binary 0/1 labels, or a two-class head."""


class InfeasibleInit(CackitError):
    """k is outside [1, n], or no feasible initial clustering exists for it."""


class IllegalMove(CackitError):
    """The requested point move violates a guard condition."""


class UntrainedModel(CackitError):
    """The model has no trained per-cluster classifiers yet."""


# --- classifiers / metrics ---

class OneClassOnly(CackitError):
    """A class the operation needs is absent from the labels."""


# --- neural nets ---

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
    """A report or model file is not in the expected schema."""
