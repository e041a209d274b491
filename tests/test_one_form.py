"""The canonical form of an integer combination is defined in one place.

QSym elements, coproduct tensors, symmetric functions and words of building
sets share qsym.Combination: only it may define as_dict or scale, or sort
the terms of a dict.  A second copy of any of them is a second definition
of what "canonical" and "equal" mean.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nestoqsym"


def _is_sort(call: ast.Call) -> bool:
    f = call.func
    return (isinstance(f, ast.Name) and f.id == "sorted") or (
        isinstance(f, ast.Attribute) and f.attr == "sort"
    )


def _sorts_terms(call: ast.Call) -> bool:
    """A sort that filters a dict's items (dropping zeros), or that orders
    pairs by a lambda reading their first item."""
    for arg in call.args:
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and any(
            gen.ifs and ".items()" in ast.unparse(gen.iter) for gen in arg.generators
        ):
            return True
    return any(
        kw.arg == "key"
        and isinstance(kw.value, ast.Lambda)
        and "[0]" in ast.unparse(kw.value.body)
        for kw in call.keywords
    )


def _sites() -> list:
    """(module, enclosing class, what) for each such definition or sort."""
    out = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.FunctionDef) and child.name in ("as_dict", "scale"):
                    out.append((path.name, owner, f"def {child.name}"))
                if isinstance(child, ast.Call) and _is_sort(child) and _sorts_terms(child):
                    out.append((path.name, owner, "term sort"))
                visit(child, owner)

        visit(ast.parse(path.read_text()), "<module>")
    return sorted(out)


def test_one_canonical_form():
    assert _sites() == [
        ("qsym.py", "Combination", "def as_dict"),
        ("qsym.py", "Combination", "def scale"),
        ("qsym.py", "Combination", "term sort"),
    ]


# ---------------------------------------------------------------------------
# one walk over ordered set partitions

WALKS = {"submasks", "nonempty_submasks"}


def _walks() -> list:
    """(module, top-level function) for each function whose body loops over
    submasks(...) or nonempty_submasks(...), directly or through a parameter
    that defaults to one of them."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = fn.args.args[len(fn.args.args) - len(fn.args.defaults) :]
            names = WALKS | {
                a.arg
                for a, d in zip(params, fn.args.defaults)
                if isinstance(d, ast.Name) and d.id in WALKS
            }
            loops = [
                node.iter
                for node in ast.walk(fn)
                if isinstance(node, (ast.For, ast.comprehension))
            ]
            if any(
                isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id in names
                for it in loops
            ):
                out.append((path.stem, fn.name))
    return sorted(out)


def test_one_flag_walk():
    assert _walks() == [
        # The Takeuchi antipode keeps its own submask loop, one sum per
        # distinct contraction of the covered mask, shared by every covered
        # mask with that contraction: its words are sorted multisets of
        # per-call factor ids, which a packed count cannot hold, and each
        # factor is read from the remainders listed once per mask.
        ("buildset", "takeuchi_antipode"),
        # X walks unordered partitions; on the ordered listing walk it took
        # 0.31 s over the 853 connected 7-vertex classes, against 0.13 s by
        # its own walk (chromatic_symmetric reads the counts of this one).
        ("invariants", "_block_counts"),
        # The counting walk of route 1, zeta, route 3 and the ordered
        # colorings: one packed integer per covered set (a 64-bit slot per
        # composition code), not a list of key sequences.  Each route hands
        # it the last blocks of each covered set, and it walks the submasks
        # of their free part: route 1's blocks meet each component of B|U
        # (BuildingSet.lowest) at most once, so it tests no block and
        # reaches 3^n terms only on the discrete set (star:11 4.3 -> 0.02 s,
        # and discrete:11 0.126 -> 0.088 s, against a member scan tested on
        # every block).  Route 3 reads a coloring from its last class, so
        # its covered set is the remaining set, whose independent sets in
        # the contracted graph are the last blocks (edgeless:8 0.68-0.89 ->
        # 0.004 s against its recursion over ordered colorings, which the
        # tests keep as walk_colorings).  No route lists anything:
        # splitting chains are listed by the tests' oracles alone, and the
        # fundamental route counts descent sets on a table of placed sets
        # (_descents), of which linear_extensions, called by no route, is
        # the oracle.
        ("invariants", "_flag_counts"),
        # Not a walk over set partitions: _nested's root-block decomposition
        # (whose blocks come in as a parameter), counting sizes instead of
        # listing nested sets.  Listing them put `fvector --graph complete:8`
        # at 112 MiB peak RSS; counting, at 17 MiB.
        ("nestopoly", "nested_sets_by_size"),
        # Not a walk over set partitions: one pass over the subsets of a
        # composition's cut positions, the partial-sum code of qsym.
        ("qsym", "coarsenings"),
    ]


# ---------------------------------------------------------------------------
# tables filled in order, recursions only where states are skipped


def _recursive_closures() -> list:
    """(module, "outer.inner") for each function defined inside another
    function that calls itself by name."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == inner.name
                    for node in ast.walk(inner)
                ):
                    out.append((path.stem, f"{outer.name}.{inner.name}"))
    return sorted(out)


def test_recursive_closures_skip_states():
    # A memoized closure that calls itself is a reference cycle, so its call
    # breaks the cycle when done (`del rec`), or the memo waits for the
    # cycle collector (test_invariants::test_routes_leave_no_cyclic_garbage).
    # Where every state is needed, a loop fills the table in dependency
    # order instead (_nested, nested_sets_by_size and
    # takeuchi_antipode by covered or member mask, enumerate_tree_shapes by
    # node count, _descents and linear_extensions by placed set).  Each
    # recursion left has a reason:
    assert _recursive_closures() == [
        # A hit in the shared memo of induced subgraphs skips a whole
        # subtree: a warm `classes` job computes about 8 of 128 masks.
        ("invariants", "_block_counts.rest"),
        ("invariants", "_recurrence.rec"),
        # Walks down one tree, each vertex once, with no memo.
        ("nestopoly", "forest_shapes.code"),
    ]


# ---------------------------------------------------------------------------
# one arithmetic for enumerators

ELEMENT_ARITHMETIC = {"mul", "shift1", "_mul_d", "element"}


def _name(node) -> str | None:
    """The name a decorator or call is made with: f, f(...), mod.f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _element_arithmetic_callers(module: str) -> list:
    """(top-level function, callee) for each call of mul, shift1, _mul_d or
    element, by name or as an attribute (qsym.element)."""
    out = []
    for fn in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and _name(node) in ELEMENT_ARITHMETIC:
                    out.append((fn.name, _name(node)))
    return sorted(set(out))


def test_enumerators_are_packed():
    # Every enumerator in invariants is a packed integer combined by
    # _product, _shift and integer arithmetic, and read out through _terms,
    # never built term by term through qsym.element; only _product
    # multiplies terms, and hopf_morphism_check checks the public product.
    assert _element_arithmetic_callers("invariants") == [
        ("_product", "_mul_d"),
        ("hopf_morphism_check", "mul"),
    ]


# ---------------------------------------------------------------------------
# one renderer for combinations


def _callers(callee: str) -> list:
    """(module, top-level function or class) for each call of callee, by
    name or as an attribute."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _name(node) == callee:
                    out.append((path.stem, getattr(top, "name", "<module>")))
    return sorted(out)


def test_one_renderer():
    # QSym elements and symmetric functions print through qsym.render alone
    assert _callers("_body") == [("qsym", "render")]


# ---------------------------------------------------------------------------
# no route lists linear extensions


def test_linear_extensions_stay_an_oracle():
    # The fundamental route counts descent sets without listing
    # (invariants._descents); linear_extensions lists the words its tests
    # compare against, so no library function may call it.
    assert _callers("linear_extensions") == []


# ---------------------------------------------------------------------------
# every module-level memo has a stated bound

MEMO_MAKERS = {"lru_cache", "cache", "_gated_memo"}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "add", "move_to_end"}


def _memos() -> list:
    """(module, name) for each module-level memo: a function decorated with
    lru_cache or _gated_memo, an lru_cache(...)(fn) assignment, and a
    module-level container that the module binds twice or that a function
    writes into (item assignment or a mutating method)."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = []
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and any(
                _name(d) in MEMO_MAKERS for d in top.decorator_list
            ):
                out.add((path.stem, top.name))
            if isinstance(top, ast.Assign) and len(top.targets) == 1:
                target = top.targets[0]
                if isinstance(target, ast.Name):
                    value = top.value
                    if isinstance(value, ast.Call) and _name(value.func) in MEMO_MAKERS:
                        out.add((path.stem, target.id))
                    bound.append(target.id)
        out |= {(path.stem, name) for name in bound if bound.count(name) > 1}
        written = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                    written |= {
                        t.value.id
                        for t in targets
                        if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                    }
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                    and isinstance(node.func.value, ast.Name)
                ):
                    written.add(node.func.value.id)
        out |= {(path.stem, name) for name in written & set(bound)}
    return sorted(out)


# Each module-level memo with its bound: an entry count (its lru_cache
# maxsize, the cap it evicts past, or the length of a table filled at
# import), or the errors.LIMITS row that bounds its keys.
MEMOS = {
    ("bitsets", "_SHARED_TABLES"): 64,  # compress_tables for n <= 6, read only
    ("graphs", "_pairs_within"): "recurrence",
    ("invariants", "_SUBGRAPHS"): 8192,
    ("invariants", "_descents"): "nested",
    ("invariants", "_f_shape"): "tree enumerators",
    ("invariants", "_factor_F"): 1024,
    ("invariants", "_partitions"): "chromatic",
    ("invariants", "_product"): 1024,
    ("invariants", "_splitting"): 1024,
    ("qsym", "_body"): 1024,
    ("qsym", "_coarsenings"): 256,
    ("qsym", "_deconcatenations"): 1024,
    # Keyed on pairs of compositions: the four family recurrence checks at
    # 13 fill 10,583 entries, star:14 8,192, path:14 5,558 and each seed-1
    # benchmark workload a few hundred, so no README measurement evicts;
    # a maxsize of 256 made F_graph_recurrence(path:14) 1.8 times as slow.
    ("qsym", "_quasi_shuffle"): 16384,
    ("qsym", "_refinements"): 256,
    ("qsym", "code_table"): "refinements",
}


def test_module_memos_are_listed():
    import importlib

    from nestoqsym.errors import LIMITS

    assert _memos() == sorted(MEMOS)
    for (module, name), bound in MEMOS.items():
        mod = importlib.import_module(f"nestoqsym.{module}")
        memo = getattr(mod, name)
        if hasattr(memo, "cache_info"):
            maxsize = memo.cache_info().maxsize
            assert maxsize == (None if type(bound) is str else bound), (module, name)
            assert type(bound) is not str or bound in LIMITS
        elif isinstance(memo, dict):
            assert getattr(mod, f"{name}_MAXSIZE") == bound
        else:
            assert len(memo) == bound


# ---------------------------------------------------------------------------
# the QSym kernel stands on bit sets and errors alone


def _package_imports(module: str) -> set:
    """The modules of the package that module imports, relatively or by name."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "nestoqsym" if node.level else ""
            names = [".".join(filter(None, (base, node.module, a.name))) for a in node.names]
        else:
            continue
        out |= {name.split(".")[1] for name in names if name.startswith("nestoqsym.")}
    return out


def test_qsym_imports_only_bitsets_and_errors():
    # qsym imported graphs for its two JSON helpers, now in errors
    assert _package_imports("qsym") == {"bitsets", "errors"}
