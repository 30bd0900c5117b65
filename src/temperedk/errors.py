"""Exception types shared by the library and the CLI.

Everything derives from ValueError so callers can catch bad-input
conditions with one handler; the CLI maps any ValueError to exit code 2.
"""


class SideMismatch(ValueError):
    """Operands live over different base fields (R vs C)."""


class LabelMismatch(ValueError):
    """Point coordinates do not match the component's slot labels."""


class InvalidN(ValueError):
    """The group size n is out of range (n >= 1 required)."""


class InvalidTruncation(ValueError):
    """The label truncation is out of range for the requested enumeration."""


class DegreeMismatch(ValueError):
    """A K-theory degree is not the expected one (degrees are 0 or 1)."""


class InvalidLabel(ValueError):
    """A label is out of range: a discrete-series label below 1, or a sign twist not 0 or 1."""


class UnknownGenerator(ValueError):
    """A K-class term refers to a component outside the group's generator list."""


class RingMismatch(ValueError):
    """A representation-ring element belongs to the wrong ring."""


class UsageError(ValueError):
    """Bad command line or malformed payload document."""


class BudgetExceeded(UsageError):
    """A listing would have more rows than the command line's row budget."""
