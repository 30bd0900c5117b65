"""Exception types shared by the library and the CLI.

Everything derives from ValueError so callers can catch bad-input
conditions with one handler; the CLI maps any ValueError to exit code 2.
Each value is checked once, by the type or function that builds it, and
the error names the rule it breaks; ``UsageError`` is left for faults of
the command line and of the payload's JSON shape.
"""


class SideMismatch(ValueError):
    """A base field is not R or C, or operands live over different ones."""


class LabelMismatch(ValueError):
    """Point coordinate labels are not slot labels, or not the component's."""


class InvalidN(ValueError):
    """A size is out of range: n below 1 (a component, parameter or sum with
    nothing in it), a negative sign count, or an isotropy factor below 2."""


class InvalidTruncation(ValueError):
    """The label truncation is out of range for the requested enumeration."""


class DegreeMismatch(ValueError):
    """A K-theory degree is not the expected one (degrees are 0 or 1)."""


class InvalidLabel(ValueError):
    """A label is out of range: a discrete-series label below 1, or a sign twist not 0 or 1."""


class UnknownGenerator(ValueError):
    """A K-class term refers to a component outside the group's generator list."""


class RingMismatch(ValueError):
    """A representation-ring element names an unknown ring, a label outside
    its ring, or belongs to the wrong ring."""


class UsageError(ValueError):
    """Bad command line, malformed payload document, or a result too long to print."""


class BudgetExceeded(UsageError):
    """A listing would have more rows than the command line's row budget."""
