import inspect
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sigmaprod.ground import (
    EMPTY,
    OMEGA,
    Budget,
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
    point_in_ambient,
    read_int,
    sigma_point_count,
)
from sigmaprod.averaging import build_operator
from sigmaprod.classification import decompose_classif_k
from sigmaprod.clopen import BasicBox, box_contains

SRC = Path(__file__).resolve().parents[1] / "src" / "sigmaprod"

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
    # every comparison, from either side, as if OMEGA were an int above all others
    big = 10**100
    for a, b in [(OMEGA, 5), (5, OMEGA), (OMEGA, OMEGA), (OMEGA, -big), (True, OMEGA)]:
        x, y = (big + 1 if is_omega(v) else v for v in (a, b))
        assert [a < b, a <= b, a > b, a >= b, a == b, a != b] == \
            [x < y, x <= y, x > y, x >= y, x == y, x != y], (a, b)
    for other in (1.5, "w", None):
        assert OMEGA != other
        for compare in (lambda: OMEGA < other, lambda: OMEGA <= other,
                        lambda: OMEGA > other, lambda: OMEGA >= other):
            with pytest.raises(TypeError):
                compare()


def test_tau_sequence_refuses_bool():
    # True passed as 1 and was printed as True in verdict texts
    for entries, tail in [(((True, 2),), 0), (((1, True),), 0), ((), True), (((1, False),), 1)]:
        with pytest.raises(ValueError):
            TauSequence(entries, tail)


@pytest.mark.parametrize("parse, text", [
    (parse_tau, "\u00b2"), (parse_tau, "\u0661"), (parse_tau, "+1"), (parse_tau, "1_0"),
    (parse_tau, "-1"), (parse_descriptor, "\u00b2"), (parse_descriptor, "\u0661"),
    (parse_descriptor, "2x ^w"), (parse_descriptor, "+1^w"), (parse_descriptor, "-1"),
    (parse_point, "{\u0661}"), (parse_point, "{+1}"), (parse_point, "{1_0}"),
    (parse_point, "{--1}"), (parse_point, "{" + "9" * 5000 + "}"),
    (parse_tau, "9" * 5000),
    (parse_descriptor, "9" * 5000), (parse_descriptor, "9" * 5000 + "^w"),
])
def test_inline_integers_are_ascii_digits(parse, text):
    # int() read other scripts' digits, "+" and "_", or failed with its own
    # message naming neither the flag nor the text
    message = {parse_tau: f"bad tau entry {text!r}",
               parse_descriptor: f"malformed descriptor {text!r}",
               parse_point: f"malformed point {text!r}: elements must be integers"}[parse]
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value).startswith(message)


def test_read_int_is_the_one_reader_of_inline_integers():
    limit = sys.get_int_max_str_digits()
    assert read_int("12") == 12 and read_int("-3") == -3 and read_int("007") == 7
    assert read_int("9" * limit) == 10 ** limit - 1
    for token in ("-3", "\u00b2", "+1", "1_0", " 1", "", "-", "9" * (limit + 1)):
        assert read_int(token, signed=False) is None
    for token in ("--3", "\u0661", "9" * (limit + 1), "-" + "9" * (limit + 1)):
        assert read_int(token) is None


def test_inline_integers_keep_their_signs_where_they_had_them():
    assert parse_point("{ -1, 2 }") == Point.of(-1, 2)
    assert parse_descriptor(" 2 x 3 ^w ") == ProductDescriptor((2,), 3)
    assert parse_tau(" 1 , w tail= 2 ") == TauSequence.from_values([1, OMEGA], 2)


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
                               (("2",), None, "'2'"), ((1,), 2.0, "2.0"),
                               ((True,), None, "True"), ((), False, "False")]:
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


def test_format_tau_agrees_with_the_per_index_form():
    # format_tau walks the entries once; the form it replaced read value_at
    # at every index, a linear scan each, so writing a tau was quadratic
    rng = random.Random(15)
    values = (0, 1, 2, 7, OMEGA)
    for _ in range(300):
        indices = sorted(rng.sample(range(1, 40), rng.randint(0, 8)))
        tau = TauSequence(tuple((idx, rng.choice(values)) for idx in indices),
                          rng.choice(values))
        text = ",".join("w" if is_omega(tau.value_at(n)) else str(tau.value_at(n))
                        for n in range(1, tau.max_index + 1))
        tail = "w" if is_omega(tau.tail) else str(tau.tail)
        assert format_tau(tau) == (text + " " if text else "") + f"tail={tail}"
        assert parse_tau(format_tau(tau)) == tau


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


def test_point_in_ambient_matches_the_per_coordinate_bounds():
    def oracle(desc, x):
        if desc.omega_tail is None:
            if x.tail_value != EMPTY or len(x.prefix) > len(desc.factors):
                return False
        elif len(x.tail_value) > desc.omega_tail:
            return False
        # every coordinate up to the last explicit factor, the tail value
        # included where the prefix stops short of it
        width = max(len(x.prefix), len(desc.factors))
        return all(len(x.coordinate(s)) <= desc.bound_at(s) for s in range(width))

    rng = random.Random(4)
    values = [Point(rng.sample(range(5), rng.randint(0, 4))) for _ in range(20)]
    answers = set()
    for _trial in range(4000):
        desc = ProductDescriptor(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3))),
                                 rng.choice((None, 0, 1, 2, 4)))
        x = ProductPoint(tuple(rng.choice(values) for _ in range(rng.randint(0, 5))),
                         rng.choice(values[:6]))
        answer = point_in_ambient(desc, x)
        assert answer == oracle(desc, x)
        answers.add(answer)
    assert answers == {True, False}


def test_an_explicit_coordinate_past_the_prefix_is_bounded_by_its_own_factor():
    # coordinate 0 holds the tail value {0, 1} against the bound 1
    desc = ProductDescriptor((1,), 2)
    outside = ProductPoint((), Point.of(0, 1))
    assert not point_in_ambient(desc, outside)
    with pytest.raises(ValueError, match=r"^point .* outside ambient"):
        box_contains(BasicBox.full(desc), outside)
    assert point_in_ambient(desc, ProductPoint((Point.of(0),), Point.of(0, 1)))
    assert point_in_ambient(desc, ProductPoint((), Point.of(1)))
    assert not point_in_ambient(ProductDescriptor((2, 0, 3), 2),
                                ProductPoint((Point.of(0, 1),), Point.of(1)))


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


def test_budget_charges_a_running_total():
    b = Budget(10)
    b.charge(4)
    b.charge(6)
    assert b.spent == 10
    with pytest.raises(BudgetExceeded) as info:
        b.charge(1)
    assert (info.value.needed, info.value.budget) == (11, 10)
    # a failed charge charges nothing
    assert b.spent == 10
    assert Budget.of(b) is b
    assert Budget.of(7).limit == 7 and Budget.of(7).spent == 0


def test_charge_power_stops_past_the_room():
    b = Budget(100)
    b.charge_power(3, 4)
    assert b.spent == 81
    with pytest.raises(BudgetExceeded) as info:
        b.charge_power(10, 10 ** 9)  # a billion-digit power is never built
    # 10^2 is the first partial power past the 19 units left
    assert info.value.needed == 81 + 100 and b.spent == 81
    b.charge_power(1, 10 ** 9)
    b.charge_power(0, 5)
    assert b.spent == 82


def test_a_count_too_long_to_write_is_left_out_of_the_error():
    limit = sys.get_int_max_str_digits()
    b = Budget(10)
    with pytest.raises(BudgetExceeded) as info:
        b.charge(10 ** limit)  # limit + 1 digits
    assert info.value.needed is None and info.value.budget == 10
    assert str(info.value) == f"enumeration of size over {limit} digits exceeds budget 10"
    with pytest.raises(BudgetExceeded) as info:
        b.charge(10 ** limit - 1)  # the longest count that can be written
    assert info.value.needed == 10 ** limit - 1


def test_one_budget_spans_library_calls():
    b = Budget(100)
    decompose_classif_k(0, 6, budget=b)
    # the pieces' constraints, 1 + 2 + ... + 6, and the 2 elements of their
    # distinct points, then the domain (3 + 1)^2
    build_operator(2, 3, budget=b)
    assert b.spent == 21 + 2 + 16
    with pytest.raises(BudgetExceeded) as info:
        build_operator(2, 8, budget=b)
    assert info.value.needed == 21 + 2 + 16 + 81 and b.spent == 39


def test_only_the_budget_raises_budget_exceeded():
    # every enumeration charges the one meter instead of checking on its own
    raises = {path.name: path.read_text().count("raise BudgetExceeded")
              for path in SRC.glob("*.py")}
    assert sum(raises.values()) == 1
    assert "raise BudgetExceeded" in inspect.getsource(Budget.charge)
