import copy
import dataclasses
import functools
import gc
import pickle
import random
import re
import tracemalloc
from itertools import product as iter_product

import pytest
from hypothesis import given, strategies as st

from sigmaprod.classification import (
    ABSORPTION_NORMAL_FORM,
    COUNTABLE_INFINITE_PRODUCT,
    COUNTABLE_VERSUS_PERFECT,
    FINITE_SUPPORT_INVARIANTS,
    HOMEOMORPHIC,
    NOT_HOMEOMORPHIC,
    OMEGA_SATURATED,
    OPEN,
    OPEN_QUESTION,
    OPEN_QUESTION_ONE_SATURATED,
    OPEN_VERDICT,
    OPEN_VERDICT_ONE_SATURATED,
    UPPER_EXPONENTS,
    ClassificationVerdict,
    DecompositionPiece,
    NormalForm,
    _SATURATED,
    _Invariants,
    _values_differ,
    cb_invariants,
    check_limit_cofinite,
    check_pairwise_disjoint,
    check_sample_membership,
    classify,
    decompose_absorb_small,
    decompose_classif_k,
    decompose_countable,
    embed_product_into_sigma,
    embeddability_profile,
    limit_neighborhood_boxes,
    max_power_embeddable,
    normal_form,
    piece_for_point,
    recover_tau,
    retract_witness,
    split_tagged_point,
)
from sigmaprod import classification
from sigmaprod.clopen import BasicBox, box_contains, box_is_empty, box_reduce, box_subset
from sigmaprod.ground import (
    EMPTY,
    OMEGA,
    Budget,
    BudgetExceeded,
    Point,
    ProductDescriptor,
    ProductPoint,
    TauSequence,
    i_of,
    is_omega,
    j_of,
    materialize,
    parse_tau,
    type_signature,
)
from sigmaprod.encode import value as value_to_json


def tau(*values, tail=0):
    return TauSequence.from_values(values, tail)


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_examples():
    nf = normal_form(tau(5, OMEGA, 2))
    assert nf.i == 2 and nf.upper_entries == ((3, 2),) and nf.upper_tail == 0

    nf = normal_form(TauSequence((), OMEGA))
    assert is_omega(nf.i) and nf.upper_entries == ()

    nf = normal_form(tau(0, 0, 4))
    assert nf.i == 0 and nf.upper_entries == ((3, 4),)


def test_normal_form_keeps_positive_tail():
    nf = normal_form(TauSequence(((1, OMEGA), (2, 0)), tail=1))
    assert nf.i == 1 and nf.upper_tail == 1 and nf.upper_entries == ((2, 0),)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalForm(OMEGA, ((3, 1),))
    with pytest.raises(ValueError):
        NormalForm(2, ((2, 1),))
    with pytest.raises(ValueError):
        NormalForm(1, ((2, OMEGA),))
    for upper, tail in [(((1, True),), 0), ((), True), (((1, 2),), False)]:
        with pytest.raises(ValueError):
            NormalForm(0, upper, tail)
    # each constructed, and encode.normal_form wrote the index True as true
    for i, upper in [(True, ()), (False, ()), ("x", ()), (-1, ()), (1.0, ()),
                     (None, ()), (0, ((True, 1),)), (0, ((2.0, 1),)), (0, (("2", 1),))]:
        with pytest.raises(ValueError):
            NormalForm(i, upper)


# ---------------------------------------------------------------------------
# classification


def test_classify_spec_examples():
    v = classify(tau(OMEGA, OMEGA), tau(5, OMEGA))
    assert v.outcome == HOMEOMORPHIC

    v = classify(tau(2, 3), tau(7, 3))
    assert v.outcome == NOT_HOMEOMORPHIC

    v = classify(TauSequence(((1, OMEGA),), tail=1),
                 TauSequence(((1, OMEGA), (2, 2)), tail=1))
    assert v.outcome == OPEN
    assert "open question" in v.detail

    v = classify(tau(0, 1), tau(2), gamma="countable")
    assert v.outcome == HOMEOMORPHIC   # derivation index 3 on both sides


def test_classify_open_with_one_side_omega_saturated():
    v = classify(parse_tau("tail=w"), parse_tau("tail=1"))
    assert v.outcome == OPEN and v.rule == "open-question"
    assert "open question" in v.detail
    assert "omega-saturated" in v.detail
    assert "both sequences" not in v.detail
    assert classify(parse_tau("tail=1"), parse_tau("tail=w")).detail == v.detail


def test_classify_omega_saturated():
    v = classify(TauSequence((), OMEGA), TauSequence(((1, 0), (4, 5)), tail=OMEGA))
    assert v.outcome == HOMEOMORPHIC and v.rule == "omega-saturated"


def test_classify_j_invariance():
    v = classify(tau(1), TauSequence((), tail=1))
    assert v.outcome == NOT_HOMEOMORPHIC and v.rule == "largest-embeddable-bound"
    v = classify(tau(1, 1), tau(1))
    assert v.outcome == NOT_HOMEOMORPHIC


def test_classify_open_only_in_the_undecided_regime():
    rng = random.Random(8)
    values = [0, 1, 2, OMEGA]
    tails = [0, 1, 2, OMEGA]
    seqs = [TauSequence.from_values([rng.choice(values) for _ in range(rng.randint(0, 3))],
                                    rng.choice(tails))
            for _ in range(60)]
    from sigmaprod.ground import i_of, j_of
    for a in seqs:
        for b in seqs:
            v = classify(a, b)
            if v.outcome == OPEN:
                assert is_omega(j_of(a)) and is_omega(j_of(b))
                assert not (is_omega(i_of(a)) and is_omega(i_of(b)))


def test_classify_countable_cases():
    assert classify(tau(2), tau(0, 1), gamma="countable").outcome == HOMEOMORPHIC
    assert classify(tau(2), tau(3), gamma="countable").outcome == NOT_HOMEOMORPHIC
    v = classify(TauSequence((), tail=1), TauSequence((), OMEGA), gamma="countable")
    assert v.outcome == HOMEOMORPHIC and v.rule == "countable-infinite-product"
    v = classify(tau(2), TauSequence((), tail=1), gamma="countable")
    assert v.outcome == NOT_HOMEOMORPHIC and v.rule == "countable-versus-perfect"
    with pytest.raises(ValueError):
        classify(tau(1), tau(1), gamma="finite")


def test_classify_zero_sequence_reflexive():
    v = classify(TauSequence(), TauSequence())
    assert v.outcome == HOMEOMORPHIC


def test_classify_reflexive_symmetric_transitive():
    rng = random.Random(11)
    values = [0, 1, 2, OMEGA]
    seqs = [
        TauSequence.from_values([rng.choice(values) for _ in range(rng.randint(0, 4))],
                                rng.choice([0, 1, OMEGA]))
        for _ in range(25)
    ]
    for a in seqs:
        assert classify(a, a).outcome == HOMEOMORPHIC
    for a in seqs:
        for b in seqs:
            assert classify(a, b).outcome == classify(b, a).outcome
    hom = {(a, b) for a in seqs for b in seqs
           if classify(a, b).outcome == HOMEOMORPHIC}
    for a in seqs:
        for b in seqs:
            for c in seqs:
                if (a, b) in hom and (b, c) in hom:
                    assert (a, c) in hom


# ---------------------------------------------------------------------------
# classify against the verdict-by-verdict classifier it replaced


def oracle_classify(tau, tau2, gamma="uncountable"):
    """The classifier that recomputed every invariant and verdict per call."""
    if gamma not in ("uncountable", "countable"):
        raise ValueError(f"gamma must be 'uncountable' or 'countable', got {gamma!r}")
    if gamma == "countable":
        return oracle_classify_countable(tau, tau2)
    nf1, nf2 = normal_form(tau), normal_form(tau2)
    j1, j2 = j_of(tau), j_of(tau2)
    if nf1 == nf2:
        if is_omega(nf1.i):
            return ClassificationVerdict(
                HOMEOMORPHIC, "omega-saturated",
                "every bound occurs omega-many times after absorption; all such "
                "products are homeomorphic")
        if not is_omega(j1):
            return ClassificationVerdict(
                HOMEOMORPHIC, "finite-support-invariants",
                "complete classification for finitely supported sequences: "
                "equal omega-thresholds and identical exponents above them")
        return ClassificationVerdict(
            HOMEOMORPHIC, "absorption-normal-form",
            "equal omega-thresholds and identical exponents above them; the "
            "lower factors are absorbed")
    if j1 != j2:
        return ClassificationVerdict(
            NOT_HOMEOMORPHIC, "largest-embeddable-bound",
            f"the largest n whose space embeds differs: {value_to_json(j1)} "
            f"versus {value_to_json(j2)}")
    if not is_omega(j1):
        if nf1.i != nf2.i:
            return ClassificationVerdict(
                NOT_HOMEOMORPHIC, "omega-threshold",
                f"omega-thresholds differ: {value_to_json(nf1.i)} versus "
                f"{value_to_json(nf2.i)} (largest bound embeddable into every "
                "clopen set)")
        return ClassificationVerdict(
            NOT_HOMEOMORPHIC, "upper-exponents",
            "some exponent above the common omega-threshold differs; it is "
            "recoverable from maximal embeddable powers inside clopen sets")
    if is_omega(nf1.i) or is_omega(nf2.i):
        return ClassificationVerdict(OPEN, "open-question", OPEN_QUESTION_ONE_SATURATED)
    return ClassificationVerdict(OPEN, "open-question", OPEN_QUESTION)


def oracle_classify_countable(tau, tau2):
    def finite(t):
        return t.tail == 0 and all(not is_omega(v) for _n, v in t.entries)

    fin1, fin2 = finite(tau), finite(tau2)
    if fin1 and fin2:
        inv1 = 1 + sum(n * v for n, v in tau.entries)
        inv2 = 1 + sum(n * v for n, v in tau2.entries)
        if inv1 == inv2:
            return ClassificationVerdict(
                HOMEOMORPHIC, "countable-derivation-index",
                f"both countable compacta have derivation index {inv1} and a "
                "single point at the last stage")
        return ClassificationVerdict(
            NOT_HOMEOMORPHIC, "countable-derivation-index",
            f"derivation indices differ: {inv1} versus {inv2}")
    if not fin1 and not fin2:
        return ClassificationVerdict(
            HOMEOMORPHIC, "countable-infinite-product",
            "both are perfect totally disconnected metrizable compacta; all "
            "infinite products over a countable ground set are homeomorphic")
    return ClassificationVerdict(
        NOT_HOMEOMORPHIC, "countable-versus-perfect",
        "a countable compactum cannot be homeomorphic to a perfect one")


def seeded_taus(count=160, seed=29):
    """Seeded sequences: empty ones, omega tails, and groups that differ only
    at or below their omega-threshold, so absorbed prefixes meet."""
    rng = random.Random(seed)
    values = (0, 0, 1, 2, 3, OMEGA)
    seqs = [TauSequence(), TauSequence((), OMEGA), TauSequence((), 1), tau(OMEGA)]
    while len(seqs) < count:
        vals = [rng.choice(values) for _ in range(rng.randint(0, 6))]
        tail = rng.choice((0, 0, 1, 2, OMEGA))
        seqs.append(TauSequence.from_values(vals, tail))
        if OMEGA in vals:
            i = len(vals) - vals[::-1].index(OMEGA)
            for _ in range(2):
                absorbed = [rng.choice(values) for _ in range(i - 1)] + vals[i - 1:]
                seqs.append(TauSequence.from_values(absorbed, tail))
    return seqs[:count]


def test_classify_matches_the_oracle_on_every_pair():
    seqs = seeded_taus()
    rules = set()
    open_details = set()
    for gamma in ("uncountable", "countable"):
        for a in seqs:
            for b in seqs:
                v = classify(a, b, gamma)
                assert v == oracle_classify(a, b, gamma), (a, b, gamma)
                assert type(v) is ClassificationVerdict
                rules.add(v.rule)
                if v.outcome == OPEN:
                    open_details.add(v.detail)
    # every verdict occurs, both open-question texts included
    assert open_details == {OPEN_QUESTION, OPEN_QUESTION_ONE_SATURATED}
    assert len(rules) == 10
    with pytest.raises(ValueError) as exc:
        classify(seqs[0], seqs[1], "finite")
    with pytest.raises(ValueError) as expected:
        oracle_classify(seqs[0], seqs[1], "finite")
    assert str(exc.value) == str(expected.value)


def test_classify_keeps_the_invariants_on_each_sequence_object():
    a, b = parse_tau("1,w,2"), parse_tau("3 tail=1")
    classify(a, b)
    normal_form.cache_clear()
    classify(a, b)
    classify(b, a, gamma="countable")
    assert normal_form.cache_info().misses == 0
    # an equal but new object computes its own, without normal_form
    assert classify(parse_tau("1,w,2"), b) == classify(a, b)
    assert normal_form.cache_info().misses == 0


def test_a_sequence_keeps_its_invariants_in_a_declared_slot():
    for text in ("1,w,2", "3 tail=w"):
        tau = parse_tau(text)
        assert not hasattr(tau, "__dict__")
        for computed in (False, True):
            if computed:
                classify(tau, tau)
            # a copy is built through the constructor: it takes the memo's
            # pairs and computes its own invariants, or shares _SATURATED
            copies = pickle.loads(pickle.dumps(tau)), copy.deepcopy(tau), copy.copy(tau)
            assert all(c._invariants is None for c in copies)
            assert all(c.entries[0] is tau.entries[0] for c in copies)
            # a new equal sequence has none yet: the comparisons ignore them
            for other in (parse_tau(text), *copies):
                assert other == tau and hash(other) == hash(tau) and repr(other) == repr(tau)
                assert classify(other, tau) == classify(tau, tau)
                assert (other._invariants is _SATURATED) == is_omega(tau.tail)
    # the text the dataclass wrote when the invariants were a class attribute
    assert repr(tau) == "TauSequence(entries=((1, 3),), tail=w)"
    assert repr(parse_tau("1,w,2")) == "TauSequence(entries=((1, 1), (2, w), (3, 2)), tail=0)"


def test_every_omega_tail_sequence_shares_one_invariants_object():
    for text in ("tail=w", "1,2 tail=w", "w,0,3 tail=w"):
        tau = parse_tau(text)
        classify(tau, tau)
        assert tau._invariants is _SATURATED
    assert parse_tau("w,w")._invariants is None
    classify(tau, parse_tau("w,w"))
    assert _SATURATED.saturated and _SATURATED.i == _SATURATED.j == "w"


def distinct_taus(rng, count):
    """``count`` distinct sequences: at most 6 entries in {0, 1, 2, 3, w}
    over a tail in {0, 1, 2, w}."""
    values, seen, taus = (0, 1, 2, 3, OMEGA), set(), []
    while len(taus) < count:
        tau = TauSequence.from_values([rng.choice(values) for _ in range(rng.randint(0, 6))],
                                      rng.choice((0, 1, 2, OMEGA)))
        if tau not in seen:
            seen.add(tau)
            taus.append(tau)
    return taus


def test_a_classified_sequence_keeps_few_bytes():
    # each kept sequence held about 519 bytes when it built its own
    # (index, value) pairs, kept an instance dict and, over an omega tail,
    # invariants of its own; the memos are filled before the count starts
    def classify_all(taus):
        for previous, tau in zip(taus[-1:] + taus, taus):
            for gamma in ("uncountable", "countable"):
                classify(previous, tau, gamma)

    classify_all(distinct_taus(random.Random(42), 2_000))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = distinct_taus(random.Random(43), 20_000)
        classify_all(kept)
        gc.collect()
        per_sequence = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_sequence <= 300, per_sequence


def test_classify_keeps_nothing_in_the_normal_form_cache():
    # every sequence classify saw used to stay alive in normal_form's cache
    rng = random.Random(11)
    values = (0, 1, 2, 3, OMEGA)
    normal_form.cache_clear()
    first = TauSequence()
    for k in range(10_000):
        vals = [rng.choice(values) for _ in range(rng.randint(0, 6))] + [k + 1]
        fresh = TauSequence.from_values(vals, rng.choice((0, 1, OMEGA)))
        for gamma in ("uncountable", "countable"):
            classify(first, fresh, gamma)
    info = normal_form.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_normal_form_keeps_nothing():
    # every sequence passed to normal_form used to stay alive in its cache,
    # and an equal sequence was answered with the first one's form
    rng = random.Random(12)
    values = (0, 1, 2, 3, OMEGA)
    normal_form.cache_clear()
    for k in range(10_000):
        vals = [rng.choice(values) for _ in range(rng.randint(0, 6))] + [k + 1]
        sequence = TauSequence.from_values(vals, rng.choice((0, 1, OMEGA)))
        assert normal_form(sequence) == normal_form.__wrapped__(sequence)
    info = normal_form.cache_info()
    assert (info.hits, info.currsize) == (0, 0)


# exponents as TauSequence accepts them: omega, zero and positive
tau_values = st.one_of(st.just(OMEGA), st.just(0), st.integers(1, 4))


@st.composite
def sparse_taus(draw):
    """Sequences with gaps between their indices over omega, zero and positive tails."""
    gaps = draw(st.lists(st.integers(1, 3), max_size=7))
    values = draw(st.lists(tau_values, min_size=len(gaps), max_size=len(gaps)))
    indices = [sum(gaps[:k + 1]) for k in range(len(gaps))]
    return TauSequence(tuple(zip(indices, values)), draw(tau_values))


def oracle_invariants(tau):
    """(i, j, upper, tail, index) from i_of, j_of and the entries above i."""
    i, j = i_of(tau), j_of(tau)
    finite = tau.tail == 0 and not any(is_omega(v) for _n, v in tau.entries)
    index = 1 + sum(n * v for n, v in tau.entries) if finite else None
    if is_omega(i):
        return i, j, (), 0, index
    return i, j, tuple((n, v) for n, v in tau.entries if n > i), tau.tail, index


@given(sparse_taus())
def test_invariants_match_i_of_and_j_of(tau):
    inv = _Invariants(tau)
    i, j, upper, tail, index = oracle_invariants(tau)
    assert (inv.i, inv.j) == (str(i), str(j))
    assert (inv.threshold, inv.upper, inv.tail, inv.index) == (i, upper, tail, index)
    assert inv.saturated == is_omega(i) and inv.j_finite == (not is_omega(j))
    assert normal_form(tau) == NormalForm(i, upper, tail)


def constructed_verdict(tau1, tau2, gamma):
    """Oracle: the verdict built afresh from the invariants on every call, as
    ``classify`` built it before its memo."""
    a, b = _Invariants(tau1), _Invariants(tau2)
    if gamma == "uncountable":
        if a.j != b.j:
            return ClassificationVerdict(
                NOT_HOMEOMORPHIC, "largest-embeddable-bound",
                f"the largest n whose space embeds differs: {a.j} versus {b.j}")
        if a.i == b.i and a.upper == b.upper and a.tail == b.tail:
            if a.saturated:
                return OMEGA_SATURATED
            return FINITE_SUPPORT_INVARIANTS if a.j_finite else ABSORPTION_NORMAL_FORM
        if a.j_finite:
            if a.i != b.i:
                return ClassificationVerdict(
                    NOT_HOMEOMORPHIC, "omega-threshold",
                    f"omega-thresholds differ: {a.i} versus {b.i} (largest bound "
                    "embeddable into every clopen set)")
            return UPPER_EXPONENTS
        return OPEN_VERDICT_ONE_SATURATED if a.saturated or b.saturated else OPEN_VERDICT
    if a.index is not None and b.index is not None:
        if a.index == b.index:
            return ClassificationVerdict(
                HOMEOMORPHIC, "countable-derivation-index",
                f"both countable compacta have derivation index {a.index} "
                "and a single point at the last stage")
        return ClassificationVerdict(
            NOT_HOMEOMORPHIC, "countable-derivation-index",
            f"derivation indices differ: {a.index} versus {b.index}")
    if a.index is None and b.index is None:
        return COUNTABLE_INFINITE_PRODUCT
    return COUNTABLE_VERSUS_PERFECT


@st.composite
def tau_pairs(draw):
    """Two sequences; half the time the second keeps the first's indices and
    last entry and redraws the values before it, so the support bounds agree
    and the thresholds decide."""
    tau1 = draw(sparse_taus())
    if not tau1.entries or draw(st.booleans()):
        return tau1, draw(sparse_taus())
    *head, last = tau1.entries
    values = draw(st.lists(tau_values, min_size=len(head), max_size=len(head)))
    return tau1, TauSequence(tuple((n, v) for (n, _v), v in zip(head, values)) + (last,),
                             tau1.tail)


@given(tau_pairs(), st.sampled_from(["uncountable", "countable"]))
def test_verdicts_match_the_construction_and_repeat(pair, gamma):
    tau1, tau2 = pair
    verdict = classify(tau1, tau2, gamma)
    assert verdict == constructed_verdict(tau1, tau2, gamma)
    assert type(verdict) is ClassificationVerdict
    again = classify(tau1, tau2, gamma)
    assert again == verdict
    if verdict.rule in ("largest-embeddable-bound", "omega-threshold"):
        assert again is verdict  # the memo's shared object


def test_the_verdict_memo_stays_bounded():
    maxsize = _values_differ.cache_parameters()["maxsize"]
    assert maxsize is not None
    for n in range(1, maxsize + 100):
        verdict = classify(TauSequence(((n, 1),)), TauSequence(((n + 1, 1),)))
        assert verdict.detail == f"the largest n whose space embeds differs: {n} versus {n + 1}"
        assert _values_differ.cache_info().currsize <= maxsize


def test_verdicts_name_values_of_hundreds_of_digits():
    big = 10 ** 300
    verdict = classify(TauSequence(((big, 1),)), TauSequence(((big + 1, 1),)))
    assert verdict == constructed_verdict(TauSequence(((big, 1),)),
                                          TauSequence(((big + 1, 1),)), "uncountable")
    assert verdict.detail == f"the largest n whose space embeds differs: {big} versus {big + 1}"
    a = TauSequence(((big, OMEGA), (big + 1, 1)))
    b = TauSequence(((3, OMEGA), (big + 1, 1)))
    verdict = classify(a, b)
    assert verdict.rule == "omega-threshold" and verdict == constructed_verdict(a, b, "uncountable")
    assert verdict.detail.startswith(f"omega-thresholds differ: {big} versus 3 (")


def test_verdicts_are_named_tuples():
    verdict = classify(parse_tau("1"), parse_tau("2"))
    assert isinstance(verdict, tuple)
    assert verdict._fields == ("outcome", "rule", "detail")
    assert verdict == ClassificationVerdict(*verdict)
    # a shared verdict, and the countable index verdicts built through tuple.__new__
    for gamma, pair in [("uncountable", ("1", "2")), ("countable", ("1", "2")),
                        ("countable", ("2", "0,1"))]:
        verdict = classify(*map(parse_tau, pair), gamma)
        assert type(verdict) is ClassificationVerdict and verdict.outcome == verdict[0]
        assert pickle.loads(pickle.dumps(verdict)) == verdict == copy.deepcopy(verdict)
        assert repr(verdict) == (f"ClassificationVerdict(outcome={verdict[0]!r}, "
                                 f"rule={verdict[1]!r}, detail={verdict[2]!r})")


# ---------------------------------------------------------------------------
# derivation index over a countable ground set


def test_cb_invariants_examples():
    assert cb_invariants((2, 3)) == (6, 1)
    assert cb_invariants((0,)) == (1, 1)
    assert cb_invariants((1, 1, 1)) == (4, 1)
    with pytest.raises(ValueError):
        cb_invariants(())
    # a bool bound read as 0 or 1: (True, 2) answered (4, 1)
    for ks in [(True, 2), (2, False)]:
        with pytest.raises(ValueError, match="factor bounds must be non-negative integers"):
            cb_invariants(ks)


def piece_level(piece) -> int:
    """The element a of the piece P(a, S): each of its constraints holds 0, ..., a."""
    _s, f, g = piece.own[0]
    return max(f + g)


@functools.lru_cache(maxsize=None)
def _partition_invariants(signature: tuple) -> tuple:
    dec = decompose_countable(signature, 2)
    top = {}  # level -> the largest derivation index of its pieces' types
    for piece in dec.pieces:
        index, _count = partition_invariants(piece.claimed_type.factors)
        top[piece_level(piece)] = max(top.get(piece_level(piece), 0), index)
    # every level holds a piece of the largest index, so over the whole ground
    # set infinitely many such pieces keep points at the stage before last,
    # and they accumulate only at the all-empty point, which every R_a holds
    assert len(set(top.values())) <= 1 and (not top or len(top) == 2), (signature, top)
    return 1 + max(top.values(), default=0), 1


def partition_invariants(ks) -> tuple:
    """By induction on sum(ks) over the pieces of ``decompose_countable``: the
    derivation index of the product of the sigma_k over a countable ground
    set, 1 + the largest index of a piece's type, and the point count of its
    last stage.  A type counts up to zero factors and the order of its
    factors (``type_signature``), so each one is decomposed once."""
    signature = type_signature(ProductDescriptor(tuple(ks))).factors
    return _partition_invariants(signature or (0,))


def test_cb_invariants_match_closed_form():
    for ks in [(1,), (4,), (2, 2), (1, 2, 3), (0, 5), (2, 0, 2)]:
        assert partition_invariants(ks) == cb_invariants(ks) == (1 + sum(ks), 1)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_engine_closed_form_and_classify_agree_on_the_derivation_index(ks):
    # t(n) copies of sigma_n for each n >= 1: the product of the factors ks
    t = TauSequence.from_values([ks.count(n) for n in range(1, max(ks) + 1)])
    verdict = classify(t, t, "countable")
    index = int(re.search(r"derivation index (\d+) ", verdict.detail).group(1))
    assert partition_invariants(ks) == cb_invariants(ks) == (index, 1)


def test_cb_invariants_charge_one_unit_per_factor():
    for ks in [(0,), (2, 3), (1, 2, 3), (12,) * 5]:
        budget = Budget(len(ks))
        assert cb_invariants(ks, budget) == (1 + sum(ks), 1)
        assert budget.spent == len(ks)
        with pytest.raises(BudgetExceeded) as info:
            cb_invariants(ks, budget=len(ks) - 1)
        assert info.value.needed == len(ks)


def bounds_up_to(total: int, factors: int):
    """Every tuple of 1 .. ``factors`` non-negative bounds summing to at most ``total``."""
    for length in range(1, factors + 1):
        for ks in iter_product(range(total + 1), repeat=length):
            if sum(ks) <= total:
                yield ks


def least_element(x: ProductPoint):
    """The least element over all coordinates of a point of a finite product,
    None at the all-empty point."""
    return min((min(c) for c in x.prefix if c), default=None)


def test_countable_partition_matches_brute_force():
    window = 4
    for ks in bounds_up_to(6, 3):
        dec = decompose_countable(ks, window)
        n, positive = len(ks), [s for s, k in enumerate(ks) if k]
        assert len(dec.pieces) == window * (2 ** len(positive) - 1), ks
        assert dec.limit_point == ProductPoint() and dec.ambient == ProductDescriptor(ks)
        assert check_pairwise_disjoint(dec) == []
        hit = set()
        for x in materialize(dec.ambient, 6):
            a = least_element(x)
            found = piece_for_point(dec, x)
            if a is None:
                assert found == "limit"
            elif a >= window:
                assert found is None, (ks, x)
            else:
                held = Point(s for s in range(n) if a in x.coordinate(s))
                assert found == f"P({a},{held})", (ks, x, found)
                hit.add(found)
        # every piece holds a point no other piece holds
        assert hit == {piece.label for piece in dec.pieces}, ks
        for piece in dec.pieces:
            a, held = piece_level(piece), [s for s, f, _g in piece.own if f]
            claimed = tuple(k - (s in held) for s, k in enumerate(ks))
            assert piece.claimed_type == ProductDescriptor(claimed) and held, (ks, piece)
            # R_b, every coordinate missing 0 .. b - 1, holds the pieces of level b or more
            for b in range(window + 1):
                r_b = BasicBox(dec.ambient, tuple((s, EMPTY, Point(range(b))) for s in range(n)))
                assert box_subset(piece.box, r_b) == (a >= b), (ks, piece, b)


def test_dropping_any_piece_of_the_countable_partition_uncovers_a_point():
    for ks in [(1,), (2, 1), (1, 1, 1), (0, 3, 0, 2)]:
        dec = decompose_countable(ks, 3)
        for i, piece in enumerate(dec.pieces):
            # the point holding only the piece's level, at its coordinates
            at = Point.of(piece_level(piece))
            x = ProductPoint(tuple(at if f else EMPTY for _s, f, _g in piece.own))
            assert piece_for_point(dec, x) == piece.label
            rest = dataclasses.replace(dec, pieces=dec.pieces[:i] + dec.pieces[i + 1:])
            assert piece_for_point(rest, x) is None, (ks, piece.label)


def test_countable_partition_refusals():
    for ks in [(), (True,), (2, False), (1, -1)]:
        with pytest.raises(ValueError, match="need at least one factor|factor bounds"):
            decompose_countable(ks)
    for window in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="window must be a positive integer"):
            decompose_countable((1, 2), window)
    # no coordinate with a positive bound: the product is its all-empty point
    assert decompose_countable((0, 0), 3).pieces == ()


def test_countable_partition_charges_before_any_piece_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(classification, "box_reduce",
                        lambda box: built.append(box) or box_reduce(box))
    for ks, window in [((1,), 1), ((2, 1), 4), ((0, 3, 0, 2), 3), ((1, 1, 1), 2)]:
        r = sum(1 for k in ks if k)
        units = (2 ** r - 1) * len(ks) * window * (window + 1) // 2
        budget = Budget(units)
        decompose_countable(ks, window, budget)
        assert budget.spent == units and len(built) == window * (2 ** r - 1)
        built.clear()
        with pytest.raises(BudgetExceeded) as info:
            decompose_countable(ks, window, units - 1)
        assert info.value.needed == units and built == []
    # 2^200 - 1 pieces are counted, not enumerated
    with pytest.raises(BudgetExceeded) as info:
        decompose_countable((1,) * 200, 1)
    assert info.value.needed == (2 ** 200 - 1) * 200 and built == []


# ---------------------------------------------------------------------------
# embeddability profiles


def test_an_upper_tail_of_one_makes_every_power_above_the_threshold_embeddable():
    nf = NormalForm(0, ((1, 1), (3, 2)), 1)
    assert nf.upper_entries == ((3, 2),)
    assert max_power_embeddable(2, nf) == max_power_embeddable(4, nf) == OMEGA


def test_recover_tau_reads_a_profile_ending_positive():
    # the window stops at 2, where the profile is still 1, not 0
    assert recover_tau({1: 2, 2: 1}) == NormalForm(0, ((1, 1), (2, 1)), 0)


def test_max_power_examples():
    nf = NormalForm(1, ((2, 3), (4, 1)))
    assert max_power_embeddable(2, nf) == 4     # 3 + 1
    assert max_power_embeddable(1, nf) == OMEGA
    assert max_power_embeddable(5, nf) == 0
    assert max_power_embeddable(3, NormalForm(1, (), 2)) == OMEGA  # positive tail


def test_recover_tau_round_trip():
    for nf in [
        NormalForm(0, ()),
        NormalForm(1, ((2, 3), (4, 1))),
        NormalForm(3, ((5, 2),)),
        NormalForm(0, ((1, 1), (2, 1))),
        NormalForm(OMEGA),
    ]:
        assert recover_tau(embeddability_profile(nf)) == nf


def test_recover_tau_rejects_tampered_profiles():
    nf = NormalForm(1, ((2, 3), (4, 1)))
    profile = embeddability_profile(nf)
    profile[3] = profile[2] + 5   # increase breaks monotonicity
    with pytest.raises(ValueError):
        recover_tau(profile)
    with pytest.raises(ValueError):
        recover_tau({2: 1})       # keys must start at 1
    with pytest.raises(ValueError):
        recover_tau({1: 0, 2: OMEGA})


def test_profile_round_trips_many_normal_forms():
    rng = random.Random(9)
    for _ in range(100):
        i = rng.randint(0, 3)
        entries = []
        n = i
        for _e in range(rng.randint(0, 3)):
            n += rng.randint(1, 2)
            entries.append((n, rng.randint(1, 3)))
        nf = NormalForm(i, tuple(entries))
        assert recover_tau(embeddability_profile(nf)) == nf


# ---------------------------------------------------------------------------
# decompositions


def test_absorb_small_piece_membership_examples():
    dec = decompose_absorb_small(0, 2, depth=4)
    # first omega coordinate differs from the witness pair, missing element 1
    x = ProductPoint((Point.of(0),), Point.of(0, 1))
    assert piece_for_point(dec, x) == "A(0,1)"
    assert piece_for_point(dec, dec.limit_point) == "limit"


def test_classif_k_membership_examples():
    dec = decompose_classif_k(element=7, depth=5)
    assert piece_for_point(dec, ProductPoint((), EMPTY)) == "K(1)"
    assert piece_for_point(dec, ProductPoint((Point.of(7),), EMPTY)) == "K(2)"


def test_classif_k_is_absorb_small_with_one_witness():
    # the same partition and charge; only the kind and piece A(t,0) -> K(t+1) differ
    for depth in (1, 2, 6):
        k_budget, a_budget = Budget(10 ** 6), Budget(10 ** 6)
        k_dec = decompose_classif_k(7, depth, k_budget)
        a_dec = decompose_absorb_small(0, 1, depth, witnesses=(7,), budget=a_budget)
        assert (k_dec.kind, a_dec.kind) == ("classif_K", "absorb_small(0,1)")
        assert [p.label for p in k_dec.pieces] == [f"K({t + 1})" for t in range(depth)]
        assert [p.label for p in a_dec.pieces] == [f"A({t},0)" for t in range(depth)]
        assert ([(p.box, p.claimed_type) for p in k_dec.pieces]
                == [(p.box, p.claimed_type) for p in a_dec.pieces])
        assert (k_dec.ambient, k_dec.limit_point, k_dec.witnesses, k_dec.depth) == (
            a_dec.ambient, a_dec.limit_point, a_dec.witnesses, a_dec.depth)
        # the constraints, then the elements of the miss ({}, {7}) and of {7}
        assert k_budget.spent == a_budget.spent == depth * (depth + 1) // 2 + 2


def test_absorb_small_rejects_bad_shapes():
    with pytest.raises(ValueError):
        decompose_absorb_small(2, 2)
    with pytest.raises(ValueError):
        decompose_absorb_small(3, 2)


def test_decomposition_pieces_verified():
    for dec in (decompose_absorb_small(1, 2, depth=4),
                decompose_absorb_small(2, 3, depth=3),
                decompose_classif_k(0, depth=5)):
        assert check_pairwise_disjoint(dec) == []
        for piece in dec.pieces:
            assert not box_is_empty(piece.box)
            assert box_reduce(piece.box).descriptor == piece.claimed_type
        report = check_sample_membership(dec, 200, seed=0)
        assert report.ok
        boxes = limit_neighborhood_boxes(dec, 20, seed=1)
        assert check_limit_cofinite(dec, boxes).ok


def test_decomposition_piece_rejects_bad_boxes():
    ambient = ProductDescriptor((1,), None)
    empty = BasicBox(ambient, ((0, Point((0, 1)), EMPTY),))
    with pytest.raises(ValueError):
        DecompositionPiece("empty", ambient, empty.constraints, ambient)
    singleton = BasicBox(ambient, ((0, Point((0,)), EMPTY),))
    with pytest.raises(ValueError):
        DecompositionPiece("mistyped", ambient, singleton.constraints, ambient)


def test_absorb_small_piece_types():
    dec = decompose_absorb_small(1, 2, depth=3)
    by_label = {p.label: p for p in dec.pieces}
    # B'(0) keeps the small factor intact: type (1-bounded) x (2-bounded)^omega
    assert by_label["B'(0)"].claimed_type == ProductDescriptor((1,), 2)
    # B(0,1) collapses the small factor and leaves a 1-bounded fresh factor
    assert by_label["B(0,1)"].claimed_type == ProductDescriptor((0, 1), 2)


def test_piece_types_follow_the_absorption_accounting():
    # both sides of the absorption rule decompose into pieces of the same
    # homeomorphism types: the omega power gives depth-many pieces of each
    # type sigma_{n-i} x sigma_n^omega, and the mixed product only adds
    # finitely many pieces whose types already occur
    from collections import Counter

    from sigmaprod.classification import type_signature
    from sigmaprod.ground import format_descriptor

    n, m, depth = 3, 2, 4
    power = decompose_absorb_small(0, n, depth=depth)
    mixed = decompose_absorb_small(m, n, depth=depth)

    def signatures(dec):
        return Counter(
            format_descriptor(type_signature(p.claimed_type)) for p in dec.pieces
        )

    per_index = {
        format_descriptor(type_signature(ProductDescriptor((n - i,), n)))
        for i in range(n)
    }
    a_sigs = signatures(power)
    assert set(a_sigs) == per_index
    assert all(count == depth for count in a_sigs.values())
    extra = signatures(mixed) - a_sigs
    assert set(extra) <= per_index and sum(extra.values()) == m

    k_dec = decompose_classif_k(0, depth=5)
    for piece in k_dec.pieces:
        assert type_signature(piece.claimed_type) == k_dec.ambient


def test_decomposition_equivariant_under_relabeling():
    base = decompose_absorb_small(1, 2, depth=3, witnesses=(0, 1))
    moved = decompose_absorb_small(1, 2, depth=3, witnesses=(5, 3))
    relabel = {0: 5, 1: 3}

    def map_point(p):
        return Point(tuple(relabel[e] for e in p))

    for pb, pm in zip(base.pieces, moved.pieces):
        assert pb.label == pm.label
        mapped = tuple(
            (s, map_point(f), map_point(g)) for s, f, g in pb.box.constraints
        )
        assert mapped == pm.box.constraints
    assert map_point(base.limit_point.tail_value) == moved.limit_point.tail_value


def test_embed_product_examples():
    assert embed_product_into_sigma((Point.of(0), Point.of(1)), (1, 1)) == Point(
        ((0, 1), (1, 2)))
    assert embed_product_into_sigma((EMPTY, EMPTY), (1, 1)) == EMPTY
    assert embed_product_into_sigma((Point.of(0, 1), EMPTY), (2, 1)) == Point(
        ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        embed_product_into_sigma((Point.of(0, 1),), (1,))


def test_embed_product_injective_on_enumerations():
    ks = (2, 1)
    seen = {}
    for x0 in materialize(ProductDescriptor.single(2), 4):
        for x1 in materialize(ProductDescriptor.single(1), 4):
            xs = (x0.coordinate(0), x1.coordinate(0))
            y = embed_product_into_sigma(xs, ks)
            assert len(y) <= sum(ks)
            assert y not in seen or seen[y] == xs
            seen[y] = xs
            assert split_tagged_point(y, 2) == xs


def test_retract_witness_examples():
    w = retract_witness(3, Point.of(1, 2))
    assert w.embed(Point.of(0)) == Point.of(0, 1, 2)
    assert w.embed(EMPTY) == Point.of(1, 2)
    assert w.retract(Point.of(0, 1, 2)) == Point.of(0, 1, 2)
    assert w.retract(Point.of(0)) == Point.of(1, 2)
    with pytest.raises(ValueError):
        retract_witness(3, Point.of(1))
    with pytest.raises(ValueError):
        w.embed(Point.of(1))


def test_retract_round_trip_on_enumeration():
    w = retract_witness(3, Point.of(3, 4))
    domain = [p.coordinate(0) for p in materialize(ProductDescriptor.single(1), 3)]
    image = set()
    for x in domain:
        y = w.embed(x)
        assert w.project(y) == x
        assert w.retract(y) == y
        image.add(y)
    # the image is exactly the clopen trace on the enumerated truncation
    ambient_points = materialize(ProductDescriptor.single(3), 5)
    clopen_members = {
        p.coordinate(0) for p in ambient_points
        if box_contains(w.clopen_image, p)
    }
    assert image == clopen_members


def test_retract_box_preimage_is_continuity_witness():
    w = retract_witness(2, Point.of(0))
    from sigmaprod.clopen import BasicBox

    ambient = ProductDescriptor.single(2)
    cases = [
        BasicBox.make(ambient, {0: (Point.of(0), EMPTY)}),
        BasicBox.make(ambient, {0: (Point.of(1), EMPTY)}),
        BasicBox.make(ambient, {0: (EMPTY, Point.of(1))}),
        BasicBox.make(ambient, {0: (Point.of(0, 1), EMPTY)}),
        BasicBox.full(ambient),
    ]
    for box in cases:
        pre = w.box_preimage(box)
        for p in materialize(ambient, 3):
            y = p.coordinate(0)
            expected = box_contains(box, ProductPoint((w.retract(y),)))
            assert pre.contains(p) == expected
