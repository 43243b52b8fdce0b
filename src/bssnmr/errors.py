"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary invalid-argument conditions; the
classes below mark conditions that callers need to tell apart.  The CLI
exits 3 on any ``ValueError``, these subclasses included, and 4 on the two
``RuntimeError`` classes, which the benchmark keeps as failed records.
"""


class DataFormatError(ValueError):
    """A file or payload does not match the expected on-disk format."""


class DegenerateRowError(ValueError):
    """A spectrum row is identically zero where a normalization needs it."""


class DegenerateFitError(ValueError):
    """The reference spectrum is constant, so the affine fit is undefined."""


class UndefinedStatistic(ValueError):
    """An aggregate was requested over an empty or all-zero input."""


class NumericalFailure(RuntimeError):
    """An iterative kernel exceeded its iteration cap without converging."""


class TechniqueFailure(RuntimeError):
    """A decomposition technique could not produce any output at all."""
