"""Exception types shared across the toolkit."""

from __future__ import annotations


class RingError(Exception):
    """Base class for every toolkit error."""


class AxiomViolation(RingError):
    """A ring axiom failed on concrete elements.

    `kind` is a short tag ("mul-associativity", "add-commutativity", ...);
    `witness` holds the element indices of the first failing instance.
    """

    def __init__(self, kind: str, witness: tuple = (), message: str = ""):
        self.kind = kind
        self.witness = tuple(int(w) for w in witness)
        super().__init__(message or f"{kind} fails at {self.witness}")


class MalformedRing(RingError, ValueError):
    """Ring data has the wrong shape, type or range: a table that is not a
    square grid of integer indices below its order, a non-integer identity,
    or a dump that is not a JSON object with those fields.  Also a
    `ValueError`, so callers that caught the older plain errors still work."""


class HomViolation(RingError):
    """A map is not a unital ring homomorphism; carries the failing pair."""

    def __init__(self, kind: str, witness: tuple = (), message: str = ""):
        self.kind = kind
        self.witness = tuple(int(w) for w in witness)
        super().__init__(message or f"{kind} fails at {self.witness}")


class NotAnIdeal(RingError):
    """The given element set is not a two-sided ideal."""


class NotIdempotent(RingError):
    """Corner rings require a nonzero idempotent."""


class NotCentral(RingError):
    """Scaled matrix constructions require a central scalar."""


class InvalidBimodule(RingError):
    """Bimodule tables violate a module axiom, or the wrong rings act."""


class InvalidEndomorphism(RingError):
    """The supplied map is not an endomorphism of the expected ring."""


class OrderGuardExceeded(RingError):
    """A construction would exceed the configured order guard."""


class InternalInconsistency(RingError):
    """A postcondition that must hold mathematically failed; this signals a bug."""


class UnsupportedField(RingError):
    """GF(q) is only built in for a fixed list of prime powers."""


class UnknownName(RingError):
    """Expression references a name outside the catalog grammar."""


class BadArity(RingError):
    """Constructor applied to the wrong number or kind of arguments."""


class ExprSyntaxError(RingError):
    """Ring-expression parse error with a deterministic position."""

    def __init__(self, position: int, expected: str, message: str = ""):
        self.position = int(position)
        self.expected = expected
        super().__init__(message or f"syntax error at position {self.position}: expected {expected}")


class UnknownCheckId(RingError):
    """Theorem-harness check id is not registered."""


class UnknownClass(RingError):
    """Ring-class name is not registered with the predicates module."""
