"""Shared exception types and the one table of size limits.

The CLI maps the exceptions onto exit codes.  Every route is a sum over an
exponentially large structure, so each runs only up to a limit on its size;
LIMITS holds every such limit with what it caps and why, and check_limit is
the one place that raises CapacityError; a check or route that runs a
capped walk is refused by the walk's row.  check_int refuses a float, bool
or string; load_json and json_int raise ParseError on JSON that does not
parse.
"""

import json
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


def load_json(text: str):
    """json.loads whose every failure is a ParseError: malformed text, nesting
    too deep for the decoder, integers past the interpreter's digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from e
    except ValueError as e:
        raise ParseError("invalid JSON: an integer has too many digits", 0) from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply", 0) from e


def json_int(value, what: str, position) -> int:
    """A JSON count or vertex: strings, fractions, booleans and negatives fail."""
    if type(value) is not int or value < 0:
        raise ParseError(
            f"{what} must be a non-negative integer, got {json.dumps(value)}", position
        )
    return value


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
    "takeuchi": Limit(9, "Takeuchi antipode", "3^n (covered set, step) factors"),
    # quasisymmetric functions
    "weight": Limit(4096, "composition weight", "a term's code is a (w - 1)-bit mask", "w"),
    "refinements": Limit(16, "refinements of a term", "2^(w - l) per term", "w - l"),
    "coarsenings": Limit(16, "coarsenings of a term", "2^(l - 1) per term", "l - 1"),
    # nested sets and trees
    "nested": Limit(8, "nested-set enumeration", "one visit per nested set, 545,835 on K8"),
    "tree shapes": Limit(14, "tree shapes", "rooted trees grow about 2.96^n"),
    "extensions": Limit(9, "linear extensions", "up to n! orderings"),
    # routes and checks
    "splitting": Limit(
        11, "splitting-chain route", "blocks meet each component at most once, 3^n if discrete"
    ),
    "tree enumerators": Limit(15, "tree enumerators", "2^(n - 1) terms per enumerator"),
    "colorings": Limit(
        11, "ordered-coloring route", "independent blocks per remaining set, 3^n only if edgeless"
    ),
    "chromatic": Limit(11, "chromatic enumeration", "3^n block tests"),
    "recurrence": Limit(14, "recurrence route", "2^n vertex masks in the memo"),
    "family": Limit(13, "family recurrences", "2^(n - 1) terms per enumerator"),
    "kernel": Limit(9, "kernel computation", "tree shapes times 2^(n - 1) compositions"),
}


def check_limit(name: str, value: int):
    """Raise CapacityError when value exceeds the limit of LIMITS[name]."""
    row = LIMITS[name]
    if value > row.limit:
        raise CapacityError(
            f"{row.what} capped at {row.size} <= {row.limit}, got {value} ({row.why})"
        )
