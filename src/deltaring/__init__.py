"""deltaring: exact computational algebra for finite unital rings."""

from .core import (
    DEFAULT_ORDER_GUARD,
    FiniteRing,
    RingHom,
    center,
    corner_ring,
    ideal_generated,
    induced_subring,
    is_ideal,
    quotient_ring,
    ring_from_dict,
    ring_from_json,
    ring_to_json,
    subring_generated,
    validate_hom,
    validate_ring,
)
# `harness` is imported on first use (`from deltaring import harness`), so the
# `info`, `check` and `classes` commands do not load the theorem suite
from . import constructions, dsl, errors, predicates, subsets
from .report import CheckReport, Witness

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DEFAULT_ORDER_GUARD",
    "FiniteRing",
    "RingHom",
    "Witness",
    "center",
    "constructions",
    "corner_ring",
    "dsl",
    "errors",
    "harness",
    "ideal_generated",
    "induced_subring",
    "is_ideal",
    "predicates",
    "quotient_ring",
    "ring_from_dict",
    "ring_from_json",
    "ring_to_json",
    "subring_generated",
    "subsets",
    "validate_hom",
    "validate_ring",
]
