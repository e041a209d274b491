"""The pinned verification criteria, one test each, with their time budgets.

Criterion 2 pins the Hopf antipode image of the 3-associahedron enumerator.
The antipode is unique: the axiom, the Takeuchi intertwining of criterion 8
and the property suite of criterion 9 all force the pinned value, and
tests/test_qsym.py checks it against the M-basis formula of
Malvenuto-Reutenauer and Ehrenborg.
"""

import time

from nestoqsym import invariants
from nestoqsym.qsym import render
from nestoqsym.verify import CRITERIA, EXAMPLE_62_L

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


def test_criterion_09_qsym_property_suite():
    _run(9)


def test_criterion_10_coefficient_properties():
    _run(10)


def test_criterion_11_realization():
    _run(11)
