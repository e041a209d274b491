"""Batch command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 capacity
or overflow.  Output is deterministic: every collection is emitted in a
canonical order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import qsym
from .bitsets import bits
from .buildset import (
    BuildingSet,
    from_graph,
    is_connected as bs_connected,
    parse_building_set,
    restriction,
    contraction,
    serialize_building_set,
)
from .errors import CapacityError, InputError
from .graphs import FAMILIES, FAMILY_KINDS, family, parse_graph, serialize_graph
from .invariants import (
    ROUTES,
    F_graph_recurrence,
    chromatic_symmetric,
    collision_search,
    family_F,
    family_graph,
    tree_matrix_kernel,
)
from .nestopoly import _all_coordinates, enumerate_tree_shapes, nested_sets_by_size
from .qsym import (
    antipode,
    from_fundamental,
    principal_specialization,
    render,
    to_fundamental,
    to_json,
    vertex_count,
)
from .verify import run_suite


def _file_text(spec: str):
    """The text of the file named by spec, or None when spec names no file."""
    path = Path(spec)
    try:
        if not path.is_file():
            return None
    except OSError:  # e.g. a name too long for the OS: inline text
        return None
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {spec!r}: {e}") from e


def _natural(text: str, what: str) -> int:
    """A non-negative decimal integer typed on the command line."""
    if not (text.isascii() and text.isdigit()) or len(text) > 9:
        raise InputError(f"{what} {text!r} is not a non-negative integer below 10^9")
    return int(text)


def _load_graphs(spec: str) -> list:
    """Resolve --graph input: 'kind:n' shorthand, JSON literal, or a file.

    Files hold either one JSON object or one graph6 code per line.
    """
    spec = spec.strip()
    head = spec.split(":", 1)[0]
    if head in FAMILY_KINDS:
        kind, _, num = spec.partition(":")
        return [family(kind, _natural(num, f"inline {kind} size"))]
    if spec.startswith("{"):
        return [parse_graph(spec)]
    text = _file_text(spec)
    if text is None:
        raise InputError(
            f"graph input {spec!r} is neither kind:n, JSON, nor an existing file"
        )
    text = text.strip()
    if text.startswith("{"):
        return [parse_graph(text)]
    return [parse_graph(line) for line in text.splitlines() if line.strip()]


def _load_building_set(spec: str, add_singletons: bool) -> BuildingSet:
    spec = spec.strip()
    if spec.startswith("{"):
        return parse_building_set(spec, add_singletons=add_singletons)
    text = _file_text(spec)
    if text is None:
        raise InputError(
            f"building-set input {spec!r} is neither JSON nor an existing file"
        )
    return parse_building_set(text, add_singletons=add_singletons)


def _parse_vertex_list(text: str, n: int) -> int:
    """The mask of a comma-separated list of distinct vertices of 1..n; an
    empty token or a repeat is refused, not dropped."""
    mask = 0
    for tok in text.split(","):
        v = _natural(tok.strip(), "vertex")
        if not 1 <= v <= n:
            raise InputError(f"vertex {v} out of range 1..{n}")
        if mask >> v - 1 & 1:
            raise InputError(f"vertex {v} is listed twice in {text!r}")
        mask |= 1 << v - 1
    return mask


def _emit(args, text_lines, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def cmd_invariant(args) -> int:
    graphs = _load_graphs(args.graph)
    routes = list(ROUTES) if args.route == "all" else [args.route]
    for g in graphs:
        lines, results = [], {}
        if len(graphs) > 1:
            lines.append(f"# graph {serialize_graph(g)}")
        values = {name: ROUTES[name](g) for name in routes}
        for name, F in values.items():
            shown = to_fundamental(F) if args.basis == "L" else F
            results[name] = json.loads(to_json(shown))
            lines.append(f"{name}: {render(shown)}")
        payload = {"graph": json.loads(serialize_graph(g)), "routes": results}
        if args.chi is not None:
            chi = principal_specialization(values[routes[0]], args.chi)
            lines.append(f"chi({args.chi}) = {chi}")
            payload["chi"] = {"m": args.chi, "value": chi}
        _emit(args, lines, payload)
    return 0


def cmd_buildset(args) -> int:
    b = _load_building_set(args.sets, args.auto_singletons)
    lines = []
    payload = {"input": json.loads(serialize_building_set(b))}
    if args.validate:
        lines.append(f"valid building set on [1..{b.n}] with {b.mu} members")
        payload["valid"] = True
    for op, flag in (("restrict", args.restrict), ("contract", args.contract)):
        if flag is None:
            continue
        mask = _parse_vertex_list(flag, b.n)
        kept = [v + 1 for v in bits(mask if op == "restrict" else b.full_mask() & ~mask)]
        b = restriction(b, mask) if op == "restrict" else contraction(b, mask)
        lines.append(f"{op} -> kept original vertices {kept}, relabeled 1..{b.n}")
        payload[op] = {"kept": kept, "result": json.loads(serialize_building_set(b))}
    lines.append(serialize_building_set(b))
    payload["result"] = json.loads(serialize_building_set(b))
    _emit(args, lines, payload)
    return 0


def cmd_polytope(args) -> int:
    kind = args.family
    n = args.n
    lines, payload = [], {"family": kind, "n": n}
    mode = "coords" if args.coords else "fvector" if args.fvector else "vertices"
    if mode == "vertices":
        v = vertex_count(family_F(kind, n), n)
        lines.append(str(v))
        payload["vertices"] = v
    else:
        b = from_graph(family_graph(kind, n))
        if mode == "fvector":
            fv = nested_sets_by_size(b)
            lines.append(" ".join(map(str, fv)))
            payload["nested_set_counts"] = list(fv)
        else:
            coords = sorted(_all_coordinates(b))
            for x in coords:
                lines.append(" ".join(map(str, x)))
            payload["coordinates"] = [list(x) for x in coords]
    _emit(args, lines, payload)
    return 0


def cmd_chromatic(args) -> int:
    for g in _load_graphs(args.graph):
        X = chromatic_symmetric(g)
        payload = {
            "graph": json.loads(serialize_graph(g)),
            "terms": [{"mu": list(mu), "coeff": c} for mu, c in zip(X.keys, X.coeffs)],
        }
        _emit(args, [str(X)], payload)
    return 0


def cmd_antipode(args) -> int:
    if args.qsym is not None:
        text = _file_text(args.qsym)
        S = antipode(qsym.parse(args.qsym if text is None else text))  # keeps its basis
        if args.basis is not None and args.basis != S.basis:
            S = to_fundamental(S) if args.basis == "L" else from_fundamental(S)
        _emit(args, [render(S)], json.loads(to_json(S)))
        return 0
    for g in _load_graphs(args.graph):
        F = F_graph_recurrence(g)
        S = antipode(F if args.basis == "M" else to_fundamental(F))
        payload = {"graph": json.loads(serialize_graph(g))}
        payload.update(json.loads(to_json(S)))
        _emit(args, [render(S)], payload)
    return 0


def cmd_fvector(args) -> int:
    if args.sets is not None:
        b = _load_building_set(args.sets, True)
        source = {"building_set": json.loads(serialize_building_set(b))}
    else:
        graphs = _load_graphs(args.graph)
        if len(graphs) != 1:
            raise InputError("fvector expects a single graph")
        b = from_graph(graphs[0])
        source = {"graph": json.loads(serialize_graph(graphs[0]))}
    fv = nested_sets_by_size(b)
    lines = [" ".join(map(str, fv))]
    payload = dict(source, nested_set_counts=list(fv))
    if bs_connected(b) and b.n >= 1:
        lines.append(f"vertices: {fv[-1]}")
        lines.append(f"facets: {b.mu - 1}")
        payload["vertices"] = fv[-1]
        payload["facets"] = b.mu - 1
    _emit(args, lines, payload)
    return 0


def cmd_collide(args) -> int:
    report = collision_search(args.n, args.invariant, args.connected)
    lines = [
        f"classes: {report.class_count}",
        f"distinct values: {report.value_count}",
        f"collision groups: {len(report.collisions)}",
    ]
    for grp in report.collisions:
        lines.append("  " + " ".join(grp))
    if report.f_separates is not None:
        lines.append(f"F separates all X collisions: {report.f_separates}")
    payload = {
        "n": report.n,
        "invariant": report.invariant,
        "connected_only": report.connected_only,
        "classes": report.class_count,
        "values": report.value_count,
        "collisions": [list(grp) for grp in report.collisions],
        "f_separates": report.f_separates,
    }
    _emit(args, lines, payload)
    return 0


def cmd_verify(args) -> int:
    numbers = set(args.criterion) if args.criterion else None
    ok = run_suite(numbers)
    return 0 if ok else 1


def cmd_trees(args) -> int:
    shapes = enumerate_tree_shapes(args.n)
    lines = [sh.code for sh in shapes]
    payload = {"n": args.n, "shapes": [sh.code for sh in shapes]}
    if args.kernel:
        rank, kernel = tree_matrix_kernel(args.n)
        lines.append(f"rank: {rank}")
        lines.append(f"kernel dimension: {len(kernel)}")
        for rel in kernel:
            terms = [
                f"{c:+d}*{sh.code}" for c, sh in zip(rel, shapes) if c
            ]
            lines.append("relation: " + " ".join(terms))
        payload["rank"] = rank
        payload["kernel"] = [list(rel) for rel in kernel]
    _emit(args, lines, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nestoqsym",
        description=(
            "Quasisymmetric lattice-point enumerators of nestohedra and "
            "graph-associahedra. Graphs are given as path:N, cycle:N, "
            "complete:N, star:N shorthand, as JSON {\"n\":..,\"edges\":[[1,2],..]} "
            "(1-based), as graph6, or as a file holding either."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sp = sub.add_parser("invariant", help="the enumerator of a graph, by any route")
    sp.add_argument("--graph", required=True)
    sp.add_argument(
        "--route",
        choices=(*ROUTES, "all"),
        default="recurrence",
    )
    sp.add_argument("--basis", choices=("M", "L"), default="M")
    sp.add_argument("--chi", type=int, help="also print the specialization at m")
    add_json(sp)
    sp.set_defaults(fn=cmd_invariant)

    sp = sub.add_parser("buildset", help="validate / restrict / contract a building set")
    sp.add_argument("--sets", required=True, help="JSON or a file with JSON")
    sp.add_argument("--restrict", metavar="I", help="comma-separated vertices, 1-based")
    sp.add_argument("--contract", metavar="I", help="comma-separated vertices, 1-based")
    sp.add_argument("--validate", action="store_true")
    sp.add_argument(
        "--auto-singletons",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="insert missing singletons instead of rejecting",
    )
    add_json(sp)
    sp.set_defaults(fn=cmd_buildset)

    aliases = tuple(f.alias for f in FAMILIES)
    sp = sub.add_parser("polytope", help="classical families: " + ", ".join(aliases))
    sp.add_argument("--family", required=True, choices=aliases)
    sp.add_argument("--n", required=True, type=int)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--vertices", action="store_true", help="vertex count (default)")
    mode.add_argument("--fvector", action="store_true", help="nested-set counts by size")
    mode.add_argument("--coords", action="store_true", help="all vertex coordinates")
    add_json(sp)
    sp.set_defaults(fn=cmd_polytope)

    sp = sub.add_parser("chromatic", help="chromatic symmetric function of a graph")
    sp.add_argument("--graph", required=True)
    add_json(sp)
    sp.set_defaults(fn=cmd_chromatic)

    sp = sub.add_parser("antipode", help="antipode image of an enumerator or element")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--qsym", help="quasisymmetric element, text or JSON or file")
    sp.add_argument(
        "--basis",
        choices=("M", "L"),
        help="output basis (graph input defaults to L, element input to its own)",
    )
    add_json(sp)
    sp.set_defaults(fn=cmd_antipode)

    sp = sub.add_parser("fvector", help="nested-set complex counts by cardinality")
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--sets")
    add_json(sp)
    sp.set_defaults(fn=cmd_fvector)

    sp = sub.add_parser("collide", help="group isomorphism classes by invariant value")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--invariant", choices=("F", "X"), default="F")
    sp.add_argument("--connected", action="store_true")
    add_json(sp)
    sp.set_defaults(fn=cmd_collide)

    sp = sub.add_parser("verify", help="run the pinned verification suite")
    sp.add_argument("--suite", required=True, choices=("paper",))
    sp.add_argument(
        "--criterion",
        type=int,
        action="append",
        help="run only the given criterion (repeatable)",
    )
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("trees", help="unlabeled rooted trees and their enumerator kernel")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--kernel", action="store_true")
    add_json(sp)
    sp.set_defaults(fn=cmd_trees)

    return p


def guarded(fn, *args) -> int:
    """fn(*args), an error reported as one line on stderr and exit 2 or 3."""
    try:
        return fn(*args)
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 3
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        print(f"overflow: {e}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
