"""Exception types shared across the package, and the ring an element names."""


class CurveCountError(Exception):
    """Base class for all package-specific errors."""


class RingMismatchError(CurveCountError, ValueError):
    """Operands live in incompatible ambient rings."""


class PreconditionError(CurveCountError, ValueError):
    """A mathematical precondition fails (bad box, rank != dim, ...)."""


class InternalCheckError(CurveCountError, RuntimeError):
    """An internal consistency assertion fails; indicates a bug, not bad input."""


def ring_of(x, what: str):
    """The ring that the element `x` names or, for a packed polynomial, which
    names only its variable count, "a ring in n variables".

    Raises RingMismatchError for a value that is neither, naming it `what`.
    """
    try:
        return x.ring
    except AttributeError:
        pass
    try:
        return f"a ring in {x.nvars} variables"
    except AttributeError:
        raise RingMismatchError(f"{what} is of type {type(x).__name__}, not an element of a ring") from None


def not_in(x, there, what: str = "factor") -> RingMismatchError:
    """The error for `x`, which is not an element of `there`; raised at once
    when `x` is not an element of any ring."""
    return RingMismatchError(f"{what} lives in {ring_of(x, what)}, not in {there}")
