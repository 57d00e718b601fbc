"""Exception types shared across the library, and ``optional_import`` for optional packages.

Every error raised by library code derives from :class:`ManirepError`, so
callers (and the CLI) can convert any domain failure into a structured
report without catching bare exceptions.
"""

import importlib


class ManirepError(Exception):
    """Base class for all library errors."""


class SizeMismatch(ManirepError):
    """Matrix dimensions are incompatible with the operation."""


class NotSymmetric(ManirepError):
    """Input was required to be (complex) symmetric but is not."""


class NotSkew(ManirepError):
    """Input was required to be skew-symmetric but is not."""


class ConvergenceFailure(ManirepError):
    """An iterative refinement failed to reach the requested accuracy."""


class InvalidInput(ManirepError):
    """An input file cannot be read or does not hold a matrix object."""


class NonFinite(ManirepError):
    """A matrix or a result holds NaN or an infinity."""


class RankAmbiguous(ManirepError):
    """A singular value sits inside the rank-cutoff band.

    Block sizes derived from numerical rank are discrete quantities; rather
    than guessing, operations raise this error and let the caller tighten
    tolerances or perturb the input.
    """


class InvalidDescriptor(ManirepError):
    """A group or module descriptor violates its invariants."""


class NotInGroup(ManirepError):
    """A matrix fails the defining relations of the group acting on it."""


class InvalidSpectrum(ManirepError):
    """Diagonal spectrum parameters violate the constraints of the family."""


class UnsupportedGroup(ManirepError):
    """The group family is outside the supported classification range."""


class WitnessNotInModule(ManirepError):
    """A stabilizer witness does not belong to its declared module."""


class IllConditioned(ManirepError):
    """Numeric similarity structure is ambiguous within tolerance."""


class NoConstantFactor(ManirepError):
    """No constant right factor relates the two embeddings being compared."""


class NotMinimalFamily(ManirepError):
    """A manifold family's target dimension differs from its closed form."""


class MissingDependency(ManirepError):
    """An optional package that the request needs is not installed."""


def optional_import(name: str):
    """The module ``name``, imported on first use; :class:`MissingDependency` without it."""
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise MissingDependency(f"this request needs {name}, which is not installed") from exc
