"""Exception types shared across the package.

Each class names one failure condition of the public API, and each is one
of three kinds: an InputError (CLI exit code 2), SearchExhausted (exit
code 3) or an InternalError, which signals a fault in the program rather
than in its input (exit code 4). The three kinds cover every class, so the
CLI maps them and nothing else.
"""


class EllmasseyError(Exception):
    """Base class for all package errors."""


class InputError(EllmasseyError):
    """Invalid input data or arguments (CLI exit code 2)."""


class InternalError(EllmasseyError):
    """Internal consistency check failed: a program fault (CLI exit code 4)."""


class NotPrime(InputError):
    pass


class DegreeTooLarge(InputError):
    pass


class ZeroPolynomial(InputError):
    pass


class FieldTooLarge(InputError):
    pass


class UnsupportedField(InputError):
    """Operation not supported over this field: root finding, factoring and
    square roots in characteristic 2."""


class SingularCurve(InputError):
    pass


class BadCharacteristic(InputError):
    pass


class FieldMismatch(InputError):
    pass


class UnsupportedLevel(InputError):
    pass


class NotTorsion(InputError):
    pass


class NotInSpan(InternalError):
    """Internal inconsistency: Frobenius image not in the torsion span."""


class ModulusMismatch(InputError):
    pass


class GroupMismatch(InputError):
    pass


class CaseMismatch(InternalError):
    """Galois-case normalization did not produce the expected matrix shape."""


class UnsoundLift(InternalError):
    """Internal inconsistency: a lift found by the oracle fails a relation."""


class WrongPrime(InputError):
    pass


class InvalidData(InputError):
    pass


class NotCongruentIdentity(InvalidData):
    pass


class NotInvertible(InvalidData):
    pass


class SearchExhausted(EllmasseyError):
    """Curve search found no match within bounds (CLI exit code 3)."""
