"""Exception hierarchy shared across modules.

Validation errors (bad mathematical input) are distinct from malformed
input (bad JSON / CLI usage, raised at the CLI layer) and from unstable
scan certificates; the CLI maps each class to its own exit code.
"""


def int_text(n: int) -> str:
    """n in decimal for an error message, or, past 2000 bits, its sign and
    bit length: str() refuses an int longer than the interpreter's digit
    limit (4300 digits by default, never set below 640), which would turn
    the typed error into a bare ValueError."""
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


class ValidationError(ValueError):
    """Mathematically inconsistent input (CLI exit code 2)."""


class NegativeBettiError(ValidationError):
    """A derived middle Betti number came out negative.

    Since each entry of the derived vector is the middle Betti number of
    an iterated hyperplane section when the input data is geometric,
    negativity proves the (b, c) pair cannot come from an actual smooth
    projective variety with a very ample polarization.
    """

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"derived Betti entry d_{index} = {int_text(value)} is negative")


class NonGeometricInvariantsError(ValidationError):
    """Betti numbers or derived entries that no smooth projective variety
    has: the message names the first necessary condition that fails."""


class DimensionTooSmallError(ValidationError):
    """Hyperplane descent requested on a curve (dimension 1)."""


class SingularInputError(ValidationError):
    """Matrix operation requiring invertibility got det = 0."""


class PreconditionViolatedError(ValidationError):
    """Operation called outside its stated domain (e.g. trace criterion
    on a matrix that is not quasi-unipotent)."""


class ZeroTauError(ValidationError):
    """The scaling parameter of a Weil-Deligne pair must be nonzero."""


class NotUnipotentError(ValidationError):
    """nilpotent_log received a matrix M with (M - I) not nilpotent."""


class NotNilpotentError(ValidationError):
    """nilpotent_exp received a non-nilpotent matrix."""


class UnstableCertificateError(RuntimeError):
    """A prime scan did not certify stabilization of the gcd; the value
    cannot be reported as the true infinite gcd (CLI exit code 3)."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__("prime scan certificate is not stable; increase scan depth")


class UndecidedCofactorError(RuntimeError):
    """factorize can neither certify a cofactor at or above 2^64 prime
    nor split it within Pollard rho's cap: the input is valid, but its
    factorization is undecided (CLI exit code 5)."""


class InvariantViolationError(RuntimeError):
    """A guaranteed mathematical invariant failed: a defect in monobound,
    not bad input.  Unlike assert, the check survives python -O."""
