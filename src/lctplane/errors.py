"""Exception taxonomy for the lctplane library.

Every error raised by the public API on its input is a subclass of
:class:`LctError`; a ``ValueError`` means misuse: lambda <= 0 in
``resolution.log_pullback_coefficients``, an unknown export format or
selftest scope, or a ``BPoly`` given a negative or non-integral
exponent, a negative power or an unknown variable.  Each class carries
its CLI exit code as the class attribute ``exit_code``, which subclasses
inherit: parse errors exit 2, precondition violations and
unclassifiable germs 3, irrational blowup centers 4, the blowup cap 5
and any other error 1.  The input limits of ``parse`` are precondition
violations: :class:`ExponentTooLarge`, :class:`TooManyTerms` and
:class:`CoefficientTooLarge`.  So is a ``lambda_set`` (and with it
``construct_witness`` and ``reducibility_hint``) degree above 1000,
:class:`DegreeOutOfRange`, and a non-positive weight of
``weighted_lct_upper_bound``."""


class LctError(Exception):
    """Base class for all library errors."""
    exit_code = 1


class ParseError(LctError):
    """Input text does not conform to the polynomial grammar."""
    exit_code = 2

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NonPolynomial(ParseError):
    """Syntactically valid expression that is not a polynomial
    (negative exponent, division by a variable, ...)."""


class PreconditionError(LctError):
    """A documented precondition of an operation was violated."""
    exit_code = 3


class ExponentTooLarge(PreconditionError):
    """A power in the input text exceeds ``parse.MAX_EXPONENT``, either by
    its exponent or by the degree of its expansion."""


class TooManyTerms(PreconditionError):
    """A power or product in the input text could expand to more than
    ``parse.MAX_TERMS`` terms."""


class CoefficientTooLarge(PreconditionError):
    """A power in the input text, or the shift of the input to ``--point``,
    is charged more than ``parse.MAX_COEFF_BITS`` coefficient bits."""


class ZeroPolynomial(PreconditionError):
    pass


class NotThroughOrigin(PreconditionError):
    pass


class BothZero(PreconditionError):
    pass


class DivisorZero(PreconditionError):
    """``poly.divides`` was asked whether the zero polynomial divides."""


class NotSquareFree(PreconditionError):
    pass


class WrongMultiplicity(PreconditionError):
    pass


class DegreeTooSmall(PreconditionError):
    pass


class DegreeOutOfRange(PreconditionError):
    pass


class TargetNotRealizable(PreconditionError):
    pass


class NotInLambdaSet(PreconditionError):
    pass


class NotSingular(PreconditionError):
    pass


class NotClassifiable(LctError):
    """No classification table row has the germ's resolution ledger; or,
    for a germ with an irrational blowup center, none has its
    (multiplicity, tangent-cone pattern, Milnor number) triple.  Never
    silently guessed."""
    exit_code = 3


class IrrationalCenter(LctError):
    """A blowup center with non-rational coordinates is required.

    Carries the irreducible univariate polynomial whose root the center is.
    """
    exit_code = 4

    def __init__(self, minimal_polynomial):
        self.minimal_polynomial = minimal_polynomial
        super().__init__(
            "blowup center is a root of the irreducible polynomial "
            f"{minimal_polynomial}"
        )


class ResolutionCap(LctError):
    """More blowups than the configured cap; signals a bug or pathological
    input, since embedded resolution of plane curves terminates."""
    exit_code = 5


class SelfTestFailure(LctError):
    pass
