"""Exception taxonomy for the lctplane library.

Every error raised by the public API is a subclass of :class:`LctError`.
The CLI maps these onto exit codes: parse errors exit 2, precondition
violations exit 3, irrational blowup centers exit 4 and the internal
blowup cap exit 5.  Input text with an exponent above
``parse.MAX_EXPONENT`` (1000) is refused as the precondition violation
:class:`ExponentTooLarge`, and a power or product that could expand to
more than ``parse.MAX_TERMS`` (10000) terms as :class:`TooManyTerms`, so
both exit 3.  ``lambda_set`` (and with it ``construct_witness`` and
``reducibility_hint``) refuses a degree above the same limit with
:class:`DegreeOutOfRange`, also exit 3.
"""


class LctError(Exception):
    """Base class for all library errors."""


class ParseError(LctError):
    """Input text does not conform to the polynomial grammar."""

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


class ExponentTooLarge(PreconditionError):
    """A power in the input text exceeds ``parse.MAX_EXPONENT``, either by
    its exponent or by the degree of its expansion."""


class TooManyTerms(PreconditionError):
    """A power or product in the input text could expand to more than
    ``parse.MAX_TERMS`` terms."""


class ZeroPolynomial(PreconditionError):
    pass


class NotThroughOrigin(PreconditionError):
    pass


class BothZero(PreconditionError):
    pass


class NotDivisible(PreconditionError):
    pass


class DivisorZero(PreconditionError):
    pass


class SingularMatrix(PreconditionError):
    pass


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
    """The (multiplicity, tangent-cone pattern, Milnor number) triple does
    not match any classification table row.  Never silently guessed."""


class IrrationalCenter(LctError):
    """A blowup center with non-rational coordinates is required.

    Carries the irreducible univariate polynomial whose root the center is.
    """

    def __init__(self, minimal_polynomial):
        self.minimal_polynomial = minimal_polynomial
        super().__init__(
            "blowup center is a root of the irreducible polynomial "
            f"{minimal_polynomial}"
        )


class ResolutionCap(LctError):
    """More blowups than the configured cap; signals a bug or pathological
    input, since embedded resolution of plane curves terminates."""


class IncompleteTree(LctError):
    pass


class SelfTestFailure(LctError):
    pass
