"""Exception hierarchy shared across the toolkit."""


class LiesymError(Exception):
    """Base class for all toolkit errors."""


class DegenerateExpression(LiesymError):
    """Raised when an operation would divide by the constant zero or take
    the logarithm of zero."""


class UnknownSymbol(LiesymError):
    """Raised when a symbol is used outside the declared scope."""


class _NamesExpressions(LiesymError):
    """An error whose message names expressions.

    ``exprs`` are the expressions, and ``template`` marks their places in
    the message with ``{}``.  The message shows their ``repr`` until
    :meth:`printed` is given a printer that knows the declared names.
    """

    def __init__(self, template: str, *exprs, texts=None):
        self.template = template
        self.exprs = exprs
        if exprs:
            template = template.format(*(map(repr, exprs) if texts is None
                                         else texts))
        super().__init__(template)

    def printed(self, printer):
        """The same error, each expression written by ``printer(expr)``."""
        if not self.exprs:
            return self
        return type(self)(self.template, *self.exprs,
                          texts=[printer(e) for e in self.exprs])


class NotPolynomial(_NamesExpressions):
    """Raised when an expression is not polynomial in the requested variables.

    ``expr``, when given, is the offending expression.
    """

    @property
    def expr(self):
        return self.exprs[0] if self.exprs else None


class ArityError(LiesymError):
    """Raised on tuple-length mismatches (currents, characteristics, ...)."""


class OrderError(LiesymError):
    """Raised when a jet order exceeds what an operation supports."""


class OrderCapExceeded(_NamesExpressions):
    """Raised when reduction modulo a system needs prolongations beyond the cap."""


class NotASymmetry(LiesymError):
    """Raised when a conserved current is requested for a non-symmetry."""


class DegenerateDenominator(LiesymError):
    """Raised when a derived-invariant denominator vanishes identically."""


class NotSolvedForm(_NamesExpressions):
    """Raised for systems that cannot be oriented as lead = rhs rewrite rules."""


class EvaluationError(LiesymError):
    """Raised when an expression cannot be evaluated to an exact rational."""


class SimplificationIncomplete(LiesymError):
    """Raised when expansion reaches no fixed point within its round limit,
    so a zero test cannot be confirmed either way."""


class ParseError(LiesymError):
    """Syntax or resolution error with source position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
