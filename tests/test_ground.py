import math

import pytest
from hypothesis import given, strategies as st

from sigmaprod.ground import (
    EMPTY,
    OMEGA,
    BudgetExceeded,
    Point,
    ProductDescriptor,
    ProductPoint,
    TauSequence,
    format_descriptor,
    format_tau,
    i_of,
    is_omega,
    j_of,
    materialize,
    parse_descriptor,
    parse_point,
    parse_tau,
    sigma_point_count,
)

tau_values = st.one_of(st.integers(0, 4), st.just(OMEGA))
taus = st.builds(
    TauSequence.from_values,
    st.lists(tau_values, max_size=5),
    tail=tau_values,
)


def test_omega_ordering():
    assert OMEGA > 10**9
    assert not OMEGA < 5
    assert 5 < OMEGA
    assert OMEGA == OMEGA
    assert OMEGA >= OMEGA and OMEGA <= OMEGA
    assert OMEGA + 7 == OMEGA
    assert 7 + OMEGA == OMEGA
    assert min(OMEGA, 4) == 4 and max(OMEGA, 4) == OMEGA
    assert sorted([OMEGA, 3, 1]) == [1, 3, OMEGA]


def test_point_canonicalization():
    assert tuple(Point((3, 1, 1, 3))) == (1, 3)
    assert Point.of(2, 0) == Point.of(0, 2)
    assert str(Point.of(0, 3, 7)) == "{0,3,7}"
    assert parse_point("{0,3,7}") == Point.of(0, 3, 7)
    assert parse_point("{}") == EMPTY


def test_point_set_operations():
    a, b = Point.of(0, 1), Point.of(1, 2)
    assert a | b == Point.of(0, 1, 2)
    assert a & b == Point.of(1)
    assert a - b == Point.of(0)
    assert a.issubset(Point.of(0, 1, 2))
    assert Point.of(0).isdisjoint(Point.of(1))
    assert 1 in a and 5 not in a


element_sets = st.frozensets(st.integers(-3, 12), max_size=6)


@given(element_sets, element_sets)
def test_point_matches_the_frozenset_oracle(a, b):
    p, q = Point(a), Point(b)
    assert tuple(p) == tuple(sorted(a)) and str(p) == "{" + ",".join(map(str, sorted(a))) + "}"
    assert len(p) == len(a) and all(e in p for e in a) and 13 not in p
    for got, want in [(p | q, a | b), (p & q, a & b), (p - q, a - b)]:
        assert type(got) is Point and got == Point(want) and tuple(got) == tuple(sorted(want))
    assert p.isdisjoint(q) == a.isdisjoint(b)
    assert p.issubset(q) == (a <= b)
    shuffled = Point(reversed(sorted(a)))
    assert shuffled == p and hash(shuffled) == hash(p)
    assert (p == q) == (a == b)


def test_descriptor_rejects_bad_bounds():
    for factors, tail, bad in [((2, -1), None, "-1"), ((), -1, "-1"), ((1.5,), 2, "1.5"),
                               (("2",), None, "'2'"), ((1,), 2.0, "2.0")]:
        with pytest.raises(ValueError) as info:
            ProductDescriptor(factors, tail)
        assert str(info.value) == f"factor bound must be a non-negative integer, got {bad}"
    with pytest.raises(ValueError, match=r"^factor bound must be a non-negative integer, got -1$"):
        parse_descriptor("-1^w")


def test_i_of_examples():
    assert i_of(TauSequence.from_values([OMEGA, OMEGA, 0, 0])) == 2
    assert i_of(TauSequence.from_values([5, 3, 0])) == 0
    assert is_omega(i_of(TauSequence((), OMEGA)))


def test_j_of_examples():
    assert j_of(TauSequence.from_values([5, 3, 0])) == 2
    # omega then zero, constant 1 from index 3 on: positive cofinally
    assert is_omega(j_of(TauSequence(((1, OMEGA), (2, 0)), tail=1)))
    assert j_of(TauSequence()) == 0


@given(taus)
def test_canonicalization_idempotent(tau):
    assert TauSequence(tau.entries, tau.tail) == tau


@given(taus)
def test_i_at_most_j(tau):
    assert i_of(tau) <= j_of(tau)


def test_tau_text_round_trip():
    tau = parse_tau("w,w,2 tail=0")
    assert tau.value_at(1) == OMEGA and tau.value_at(3) == 2
    assert parse_tau(format_tau(tau)) == tau
    assert parse_tau("") == TauSequence()
    assert parse_tau("tail=w") == TauSequence((), OMEGA)
    assert parse_tau("5,w").value_at(2) == OMEGA
    with pytest.raises(ValueError):
        parse_tau("w,x")


def test_tau_canonical_drops_tail_entries():
    assert TauSequence(((1, 2), (2, 0), (3, 0)), tail=0).entries == ((1, 2),)
    assert TauSequence(((1, OMEGA), (2, OMEGA)), tail=OMEGA).entries == ()


def test_descriptor_canonical_form():
    tail = 1
    a = ProductDescriptor((2, 1), tail)
    b = ProductDescriptor((2,), tail)
    assert a == b
    assert a.bound_at(0) == 2 and a.bound_at(7) == 1
    with pytest.raises(IndexError):
        ProductDescriptor.single(2).bound_at(1)
    assert parse_descriptor(format_descriptor(a)) == a
    assert parse_descriptor("()") == ProductDescriptor()


def test_product_point_tail_convention():
    x = ProductPoint((Point.of(0), EMPTY, EMPTY))
    assert x.prefix == (Point.of(0),)
    assert x.coordinate(0) == Point.of(0)
    assert x.coordinate(99) == EMPTY
    constant = ProductPoint((Point.of(1),), Point.of(1))
    assert constant.prefix == ()


def test_materialize_single_factor():
    points = materialize(ProductDescriptor.single(1), 2)
    assert len(points) == 3
    coords = {p.coordinate(0) for p in points}
    assert coords == {EMPTY, Point.of(0), Point.of(1)}


def test_materialize_sigma2_count():
    # oracle: number of subsets of a 3-element set of size at most 2
    expected = sum(math.comb(3, m) for m in range(3))
    assert expected == 7
    assert len(materialize(ProductDescriptor.single(2), 3)) == expected


def test_materialize_empty_product():
    assert materialize(ProductDescriptor(), 2) == [ProductPoint()]


def test_materialize_counts_match_binomial_products():
    for g in range(1, 6):
        for n in range(5):
            for coords in range(4):
                desc = ProductDescriptor.power(n, coords)
                got = len(materialize(desc, g))
                assert got == sigma_point_count(n, g) ** coords


def test_materialize_omega_tail_depth():
    desc = ProductDescriptor.omega_power(1)
    points = materialize(desc, 2, depth=2)
    assert len(points) == 9
    assert all(p.tail_value == EMPTY for p in points)
    with pytest.raises(ValueError):
        materialize(ProductDescriptor.power(1, 3), 2, depth=2)


def test_materialize_budget_guard():
    with pytest.raises(BudgetExceeded):
        materialize(ProductDescriptor.power(3, 3), 5, budget=10)
