"""Exception types shared across the package.

Every domain error raised by this package derives from :class:`QselciError`,
so callers (including the CLI) can distinguish expected failure modes from
bugs.  Parse-stage errors carry the 1-based line number of the offending
input line.
"""


class QselciError(Exception):
    """Base class for all domain errors; a ``line_no`` prefixes ``line N: ``."""

    def __init__(self, message="", line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------- integrals

class MalformedHeader(QselciError):
    pass


class IndexOutOfRange(QselciError):
    pass


class NonNumericValue(QselciError):
    pass


class EmptyInput(QselciError):
    pass


class UndecodableInput(QselciError):
    """The integral file is not text in the expected encoding."""


# ------------------------------------------------------------- determinants

class TooLarge(QselciError):
    """A requested space or matrix exceeds the configured size cap."""


# -------------------------------------------------------------- hamiltonian

class DuplicateDeterminant(QselciError):
    pass


class MalformedWavefunction(QselciError):
    """A wavefunction file is not a normalized determinant expansion, or
    does not match the integral table it is used with."""


class NoConvergence(QselciError):
    """Iterative eigensolver ran out of iterations.

    Carries the best iterate found so far as ``(energy, vector)``.
    """

    def __init__(self, message, energy=None, vector=None, iterations=None):
        super().__init__(message)
        self.energy = energy
        self.vector = vector
        self.iterations = iterations


# ----------------------------------------------------------------- circuits

class EmptySelection(QselciError):
    pass


class ZeroRank(QselciError):
    """Reference and target are the same determinant."""


class ShapeMismatch(QselciError):
    pass


class TooManyQubits(QselciError):
    """A register past the 64-qubit limit, or a statevector past the
    amplitude cap."""


class ParamCountMismatch(QselciError):
    """Parameter vector length does not match the circuit's parameter count."""


# ----------------------------------------------------------------- sampling

class EmptySubspace(QselciError):
    pass


# ------------------------------------------------------------------- bounds

class FullDepolarization(QselciError):
    pass


class ZeroGap(QselciError):
    pass


# --------------------------------------------------------------------- cli

class UnknownFixture(QselciError):
    pass


class ConfigParseError(QselciError):
    """Bad key-value config file; carries the offending line number."""
