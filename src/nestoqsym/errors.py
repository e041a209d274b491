"""Shared exception types and the one table of size limits.

The CLI maps the exceptions onto exit codes.  Every route is a sum over an
exponentially large structure, so each runs only up to a limit on its size;
LIMITS holds every such limit with what it caps and why it sits there, and
check_limit is the one place that raises CapacityError.  check_int refuses
the non-integers (floats, bools, strings) a public constructor is handed.
"""

from typing import NamedTuple


class InputError(ValueError):
    """Semantically invalid input (bad composition, vertex out of range, ...)."""


class ParseError(InputError):
    """Malformed textual input; carries a best-effort position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotABuildingSetError(InputError):
    """Union-closure (or singleton) violation; names the offending pair."""


class CapacityError(RuntimeError):
    """A limit of LIMITS was exceeded; names the limit, the value and why."""


def check_int(value, what: str) -> int:
    """value itself if it is an int; anything else, bools too, is an InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


class Limit(NamedTuple):
    limit: int
    what: str  # what is capped
    why: str  # the growth law behind the limit
    size: str = "n"  # the capped quantity


LIMITS = {
    # graphs
    "ground": Limit(32, "ground set", "vertex sets are bit masks"),
    "independence": Limit(16, "independence enumeration", "2^n vertex subsets"),
    "canonical": Limit(10, "canonical form", "matchings cost ~16x more per two vertices"),
    "enumeration": Limit(8, "class enumeration", "274,668 classes at n = 9"),
    "graph6": Limit(62, "graph6 writer", "the size is one character"),
    # building sets
    "graphical": Limit(16, "graphical building set", "2^n connectivity tests"),
    "coproduct": Limit(12, "coproduct", "2^n coproduct terms"),
    "takeuchi": Limit(6, "Takeuchi antipode", "one chain per ordered set partition"),
    # quasisymmetric functions
    "weight": Limit(4096, "composition weight", "the L-basis antipode writes w letters", "w"),
    "refinements": Limit(16, "refinements of a term", "2^(w - l) per term", "w - l"),
    "coarsenings": Limit(16, "coarsenings of a term", "2^(l - 1) per term", "l - 1"),
    # nested sets and trees
    "nested": Limit(8, "nested-set enumeration", "one visit per nested set, 545,835 on K8"),
    "realization": Limit(7, "realization check", "n! (2^n - 2) facet tests on K_n"),
    "tree shapes": Limit(9, "tree shapes", "rooted trees grow about 2.96^n"),
    "extensions": Limit(9, "linear extensions", "up to n! orderings"),
    # routes and checks
    "zeta": Limit(9, "zeta enumeration", "3^n block tests"),
    "splitting": Limit(8, "splitting-chain route", "3^n block tests"),
    "splitting chains": Limit(8, "splitting chains", "as many as ordered set partitions"),
    "tree enumerators": Limit(12, "tree enumerators", "2^(n - 1) terms per enumerator"),
    "colorings": Limit(8, "ordered-coloring route", "one walk step per ordered coloring"),
    "chromatic": Limit(8, "chromatic enumeration", "3^n block tests"),
    "recurrence": Limit(11, "recurrence route", "2^n vertex masks in the memo"),
    "fundamental": Limit(7, "fundamental route", "one word per B-tree linear extension"),
    "thm72": Limit(7, "coefficient checks", "C(n, q) separator sets per q"),
    "family": Limit(10, "family recurrences", "2^(n - 1) terms per enumerator"),
    "family check": Limit(9, "family recurrence checks", "runs the recurrence route too"),
    "kernel": Limit(7, "kernel computation", "tree shapes times 2^(n - 1) compositions"),
    "hopf": Limit(5, "Hopf checks", "Takeuchi antipode and coproduct of b"),
    "collide": Limit(7, "collision search", "12,346 classes at n = 8"),
    "collide connected": Limit(7, "connected collision search", "11,117 classes at n = 8"),
}


def check_limit(name: str, value: int):
    """Raise CapacityError when value exceeds the limit of LIMITS[name]."""
    row = LIMITS[name]
    if value > row.limit:
        raise CapacityError(
            f"{row.what} capped at {row.size} <= {row.limit}, got {value} ({row.why})"
        )
