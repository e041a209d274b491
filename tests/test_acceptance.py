"""The pinned verification criteria, one test each, with their time budgets.

Criterion 2 pins the Hopf antipode image of the 3-associahedron enumerator.
The antipode is unique: the axiom, the Takeuchi intertwining of criterion 8
and the property suite of criterion 9 all force the pinned value, and
tests/test_qsym.py checks it against the M-basis formula of
Malvenuto-Reutenauer and Ehrenborg.
"""

import dataclasses
import time

import pytest

from nestoqsym import cli, invariants, nestopoly, verify
from nestoqsym.buildset import discrete_building_set
from nestoqsym.graphs import to_graph6
from nestoqsym.qsym import QSymTensor, monomial, render
from nestoqsym.verify import CRITERIA, EXAMPLE_54, EXAMPLE_62_L

_BY_NUMBER = {num: (name, fn, budget) for num, name, fn, budget in CRITERIA}


def _run(num):
    name, fn, budget = _BY_NUMBER[num]
    t0 = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - t0
    print(f"{'PASS' if passed else 'FAIL'}  {num:2d}  {name} [{elapsed:.2f}s] -- {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_four_routes_pinned_expansion():
    _run(1)


def test_criteria_01_and_04_fail_on_a_wrong_route(monkeypatch, capsys):
    # Both criteria read their routes from invariants.ROUTES, so one wrong
    # entry there (the recurrence plus M[n]) reaches both.
    recurrence = invariants.ROUTES["recurrence"]
    monkeypatch.setitem(
        invariants.ROUTES, "recurrence", lambda g: recurrence(g) + monomial((g.n,))
    )
    wrong = render(EXAMPLE_54 + monomial((4,)))
    detail_1 = f"routes disagree with {render(EXAMPLE_54)}: {{'recurrence': '{wrong}'}}"
    assert _BY_NUMBER[1][1]() == (False, detail_1)
    passed, detail_4 = _BY_NUMBER[4][1]()
    assert not passed and detail_4.startswith("route mismatch on n=4 graph ")
    assert cli.main(["verify", "--suite", "paper", "--criterion", "1", "--criterion", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:9] for line in lines] == ["FAIL   1 ", "FAIL   4 "]
    assert lines[0].endswith(f"-- {detail_1}") and lines[1].endswith(f"-- {detail_4}")


def test_a_criterion_that_raises_fails_the_suite(monkeypatch, capsys):
    def raises(g):
        raise ZeroDivisionError("planted")

    monkeypatch.setitem(invariants.ROUTES, "trees", raises)
    assert cli.main(["verify", "--suite", "paper", "--criterion", "1"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL   1  four routes, 4-path, pinned expansion [")
    assert line.endswith("] -- exception: ZeroDivisionError('planted')")


def test_criterion_02_fundamental_and_pinned_antipode():
    # S(F) = 14*L[4] + 6*L[3,1] + 4*L[2,2].  The descent-complement image
    # 14*L[4] + 6*L[1,3] + 4*L[2,2] complements each descent set without
    # reversing it; that map is not an antipode (see
    # tests/test_qsym.py::test_descent_complement_is_not_an_antipode).
    _run(2)


def test_criterion_02_fails_on_a_wrong_fundamental_route(monkeypatch):
    # One slot dropped from every shape's descent counts: route 1's basis
    # change is untouched, so only the fundamental route can see it.
    counts = invariants._descents

    def dropped(code):
        value = counts(code)
        slot = ((value & -value).bit_length() - 1) // 64
        return value & ~((1 << 64) - 1 << 64 * slot)

    monkeypatch.setattr(invariants, "_descents", dropped)
    passed, detail = _BY_NUMBER[2][1]()
    assert not passed
    assert detail.startswith(f"F in L = {render(EXAMPLE_62_L)}; antipode = ")
    assert "; fundamental route = 4*L[2,1,1] + 6*L[1,1,1,1]; expected " in detail


def test_criterion_03_family_vertex_counts_three_ways():
    _run(3)


def test_criterion_03_fails_on_a_dropped_maximal_nested_set(monkeypatch, capsys):
    # One vertex of each 7-vertex nestohedron missing from the listing: the
    # closed form, chi and the recurrence still agree, so only the count of
    # maximal nested sets can see it, at the last n the criterion reaches.
    listing = verify.maximal_nested_sets

    def dropped(b):
        fams = listing(b)
        return fams[1:] if b.n == 7 else fams

    monkeypatch.setattr(verify, "maximal_nested_sets", dropped)
    assert not verify.run_suite([3])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL   3  family vertex counts n=1..7, three ways [")
    assert line.endswith(
        "] -- permutohedron n=7: closed 5040, chi 5040, nested 5039, recurrence 5040"
    )


def test_criterion_04_four_route_equality_all_classes():
    _run(4)


def test_criterion_05_collision_search_n5():
    _run(5)


def test_criterion_06_building_set_pair():
    _run(6)


def test_criterion_07_tree_matrix_kernel():
    _run(7)


def test_criterion_08_hopf_morphism():
    _run(8)


def test_criterion_08_fails_on_a_wrong_takeuchi_sign(monkeypatch):
    # Every Takeuchi term's sign flipped: the first set, the point, fails
    # on the antipode alone.
    takeuchi = invariants.takeuchi_antipode

    def flipped(b):
        return takeuchi(b).scale(-1)

    monkeypatch.setattr(invariants, "takeuchi_antipode", flipped)
    passed, detail = _BY_NUMBER[8][1]()
    assert not passed
    assert detail.startswith(
        "failed on (1,): {'product': True, 'coproduct': True, 'antipode': False"
    )


def test_criterion_09_qsym_property_suite():
    _run(9)


def test_criterion_10_coefficient_properties():
    _run(10)


def test_criterion_11_realization():
    _run(11)


def test_criterion_11_fails_on_swapped_b_tree_parents(monkeypatch, capsys):
    # The first and last labels trade parents in every B-tree: the coordinates
    # still sum to mu(B), so the facet system has to catch it, first on the
    # 2-vertex complete graph (n = 1 has one label, and nothing to swap).
    vertex = nestopoly._vertex

    def swapped(b, family):
        tree, member = vertex(b, family)
        parent = list(tree.parent)
        parent[0], parent[-1] = parent[-1], parent[0]
        return nestopoly.BTree(tree.n, tuple(parent)), member

    monkeypatch.setattr(nestopoly, "_vertex", swapped)
    assert not verify.run_suite([11])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL  11  vertex-coordinate realization [")
    assert line.endswith("] -- realization failed for complete n=2")


def _separates_nothing(search):
    def planted(n, invariant="F", **kw):
        report = search(n, invariant, **kw)
        return dataclasses.replace(report, f_separates=False) if invariant == "X" else report

    return planted


def _without_empty_right(cop):
    def planted(F):
        t = cop(F)
        return QSymTensor.of({k: c for k, c in zip(t.keys, t.coeffs) if k[1]})

    return planted


# One planted fault per verdict of criteria 5, 6, 7, 9 and 10, each on the
# name the criterion reads: (criterion, module, name, original -> fault,
# the start of the detail its FAIL line must carry).
PLANTED = {
    "5 F read as the edge count": (
        5, invariants, "_packed_F", lambda f: lambda g: len(g.edges()),
        "F collisions at n=5: CollisionReport(n=5, invariant='F', connected_only=False, "
        "class_count=34, value_count=11, collisions=(('Do?', 'DK?'), ",
    ),
    "5 X read as the class": (
        5, invariants, "chromatic_symmetric", lambda f: to_graph6,
        "expected at least one chromatic collision at n=5",
    ),
    "5 F splits no X group": (
        5, verify, "collision_search", _separates_nothing,
        "F fails to separate an X collision: (('Dz_', 'Dto'),)",
    ),
    "6 one face more on {1,2,3}": (
        6, verify, "nested_sets_by_size",
        lambda f: lambda b: f(b)[:-1] + (f(b)[-1] + (0b0111 in b.sets),),
        "face counts differ: (1, 4, 5) vs (1, 4, 4)",
    ),
    "6 F read off the vertex count": (
        6, verify, "F_splitting", lambda f: lambda b: f(discrete_building_set(b.n)),
        "enumerators unexpectedly equal",
    ),
    "7 elimination without the last shape": (
        7, invariants, "_integer_kernel", lambda f: lambda rows: f(rows[:-1]),
        "n=5: rank 7, kernel [(0, 1, -2, 0, 1, -1, 1, 0)]; n=4: rank 3; 9 shapes at n=5",
    ),
    "9 basis change doubled": (
        9, verify, "from_fundamental", lambda f: lambda F: f(F).scale(2),
        "basis round trip failed on 2*M[] - 4*M[2] + 4*M[1,2,1]",
    ),
    "9 product plus its left factor": (
        9, verify, "mul", lambda f: lambda A, B: f(A, B) + A,
        "quasi-shuffle associativity/commutativity failed",
    ),
    "9 product zero": (
        9, verify, "mul", lambda f: lambda A, B: f(A, B).scale(0), "unit failed",
    ),
    "9 coproduct without its empty right parts": (
        9, verify, "coproduct", _without_empty_right, "coassociativity failed on -2*M[1]",
    ),
    "9 antipode negated": (
        9, verify, "antipode", lambda f: lambda F: f(F).scale(-1),
        "antipode axiom failed on M[]",
    ),
    "9 specialization plus one": (
        9, verify, "principal_specialization", lambda f: lambda F, m: f(F, m) + 1,
        "ps_-2 not multiplicative",
    ),
    "10 one independent set more": (
        10, invariants, "independence_fvector", lambda f: lambda g: f(g)[:-1] + (f(g)[-1] + 1,),
        "coefficient checks failed on []: {'a': {'holds': False, "
        "'cases': [{'k': 1, 'zeta': 1, 'expected': 2}]}, ",
    ),
}


@pytest.mark.parametrize("fault", PLANTED)
def test_criteria_fail_on_a_planted_fault(monkeypatch, capsys, fault):
    num, module, name, plant, detail = PLANTED[fault]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert not verify.run_suite([num])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"FAIL  {num:2d}  {_BY_NUMBER[num][0]} [")
    assert line.split("] -- ", 1)[1].startswith(detail)
