"""Exception types raised by the kernel and the matrix builders."""


class LaxkitError(Exception):
    """Base class for all laxkit errors."""


class NotAtomFactorable(LaxkitError):
    """A factor is not a unit times monomial content times at most one atom.

    factor_atoms splits nothing else: a product of two or more atoms,
    such as (z - 1)*(z - p[1,1]), raises it.  The closed formulas hand
    every factor over on its own (factored.Factored.of), so from them it
    signals a construction bug; from a matrix file it is malformed input.
    """


class PoleAtExpansionPoint(LaxkitError):
    """Series expansion requested in a direction where the leading
    denominator coefficient is not invertible."""


class DivergesAtInfinity(LaxkitError):
    """limit_leading called on a function whose numerator degree exceeds
    its denominator degree; usually a missing column scaling."""


class NotAdmissible(LaxkitError):
    """Divisor data does not solve the coroot equation in non-negative
    integers; the divisor is rejected at construction.  Also raised for a
    divisor that a command does not take (wrong mode, unsupported rank)."""


class SizeMismatch(LaxkitError):
    """Data with inconsistent sizes: Young diagrams, the number of
    operands a command was given, or a series order below the deepest
    mode a check reads."""


class BadDiagram(LaxkitError):
    """Invalid (pseudo) Young diagram for the requested operation."""


class SignatureMismatch(LaxkitError):
    """Operands live over different algebra signatures."""


class NotPolynomial(LaxkitError):
    """A matrix entry kept a spectral-parameter denominator after
    normalization; falsifies the regularity claim as implemented."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NotScalar(LaxkitError):
    """Shift monomials survived in a quantity that must be central."""


class NotLinearCase(LaxkitError):
    """Divisor outside the degree-1 fast-path hypotheses."""


class NonIntegerShift(LaxkitError):
    """Gauge conjugation would require a non-integer Gamma shift."""


class NegativeEpsPower(LaxkitError):
    """Degeneration produced a pole in the deformation parameter;
    wrong power bookkeeping."""


class MismatchWithRational(LaxkitError):
    """Degenerated matrix disagrees with the rational builder."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SingularLeadingMode(LaxkitError):
    """Series Gauss decomposition hit a non-invertible leading diagonal mode."""


class ParseError(LaxkitError):
    """Canonical text form could not be parsed."""
