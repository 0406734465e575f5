"""Exact clopen algebra, translation, and return-time machinery."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadim.errors import BoundExceeded, DepthExceeded, EmptySet, InvalidInput
from dadim.symbolic import (
    ForbiddenWordSubshift,
    Odometer,
    SubstitutionSubshift,
    _canonical_subshift,
    clopen_from_json,
    disjoint_translates_radius,
    return_time_report,
    system_from_json,
)


@pytest.fixture(scope="module")
def dyadic():
    return Odometer([2], depth_limit=12)


@pytest.fixture(scope="module")
def fib():
    return SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "a"}, depth_limit=64)


def test_translate_examples(dyadic):
    s = dyadic.cylinder([0, 0, 0])
    assert s.translate(1) == dyadic.clopen(3, [1])
    assert s.translate(0) == s
    assert s.translate(8) == s
    assert s.translate(5).translate(-5) == s


def test_disjoint_translates_examples(dyadic):
    s = dyadic.cylinder([0, 0, 0])
    assert disjoint_translates_radius(s, 5)
    assert not disjoint_translates_radius(s, 8)
    assert not disjoint_translates_radius(dyadic.whole(), 1)


def test_return_time_examples(dyadic):
    r = return_time_report(dyadic.cylinder([0, 0, 0, 0]))
    assert r.min_forward_return == 16 and r.max_gap == 16
    w = return_time_report(dyadic.whole())
    assert w.min_forward_return == 1 and w.max_gap == 1
    with pytest.raises(EmptySet):
        return_time_report(dyadic.empty())


def test_odometer_cylinder_return_is_level_size(dyadic):
    for depth in range(1, 7):
        r = return_time_report(dyadic.cylinder([0] * depth))
        assert r.min_forward_return == r.max_gap == dyadic.level_size(depth)


def test_return_time_vs_quotient_bruteforce(dyadic):
    # independent check on the finite rotation Z/q
    depth = 4
    q = dyadic.level_size(depth)
    s = dyadic.clopen(depth, [1, 2, 7])
    r = return_time_report(s)
    vals = {1, 2, 7}
    min_ret = min(
        n for n in range(1, q + 1) if any((v + n) % q in vals for v in vals)
    )
    max_gap = max(
        min(n for n in range(1, q + 1) if (v + n) % q in vals) for v in range(q)
    )
    assert r.min_forward_return == min_ret
    assert r.max_gap == max_gap


def test_mixed_base_odometer():
    odo = Odometer([2, 3], depth_limit=8)
    assert odo.level_size(3) == 2 * 3 * 2
    s = odo.cylinder([1, 2, 0])
    r = return_time_report(s)
    assert r.min_forward_return == 12 == r.max_gap
    assert s.translate(12) == s
    assert s.translate(1) != s


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(1, 5),
    values=st.sets(st.integers(0, 31), min_size=0, max_size=8),
    m=st.integers(-40, 40),
    n=st.integers(-40, 40),
)
def test_translate_group_law(depth, values, m, n):
    odo = Odometer([2], depth_limit=12)
    s = odo.clopen(depth, {v % odo.level_size(depth) for v in values})
    assert s.translate(m + n) == s.translate(n).translate(m)


@settings(max_examples=60, deadline=None)
@given(
    a=st.sets(st.integers(0, 15), max_size=16),
    b=st.sets(st.integers(0, 15), max_size=16),
)
def test_boolean_laws_odometer(a, b):
    odo = Odometer([2], depth_limit=12)
    A = odo.clopen(4, a)
    B = odo.clopen(4, b)
    # canonical forms are unique, so the laws hold as structural identities
    assert A.complement().complement() == A
    assert A.union(B).complement() == A.complement().intersect(B.complement())
    assert A.intersect(B).complement() == A.complement().union(B.complement())
    assert A.union(A.complement()).is_whole()
    assert A.intersect(A.complement()).is_empty()
    assert A.union(B) == B.union(A)


def test_boolean_laws_subshift(fib):
    words = sorted(fib.language(4))
    A = fib.clopen(0, words[:2])
    B = fib.clopen(-1, sorted(fib.language(3))[1:3])
    assert A.complement().complement().same_set(A)
    assert A.union(B).complement().same_set(A.complement().intersect(B.complement()))
    assert A.union(A.complement()).is_whole()
    assert A.intersect(A.complement()).is_empty()


def test_boolean_laws_subshift_cylinder_sweep(fib):
    cyls = [
        fib.cylinder(w, left=off)
        for n in (3, 4)
        for w in sorted(fib.language(n))
        for off in (-1, 0, 1)
    ]
    import itertools

    for A, B in itertools.islice(itertools.combinations(cyls, 2), 0, None, 7):
        assert A.union(B).same_set(B.union(A))
        assert A.intersect(B).same_set(B.intersect(A))
        assert A.difference(B).union(A.intersect(B)).same_set(A)
        assert A.union(B).complement().same_set(
            A.complement().intersect(B.complement())
        )


def test_cross_system_ops_rejected(dyadic, fib):
    other = Odometer([2], depth_limit=12)
    with pytest.raises(InvalidInput):
        dyadic.cylinder([0]).union(other.cylinder([1]))


def test_fibonacci_language_complexity(fib):
    # Sturmian complexity: exactly n+1 admissible words of length n
    for n in range(1, 20):
        assert len(fib.language(n)) == n + 1
    for n in range(1, 12):
        lang = fib.language(n)
        longer = fib.language(n + 1)
        assert {w[:-1] for w in longer} <= lang
        assert {w[1:] for w in longer} <= lang


def test_substitution_language_vs_naive_prefix_oracle():
    # naive oracle: factors of a long fixed-point prefix, no stabilization logic
    for rules in ({"a": "ab", "b": "a"}, {"a": "ab", "b": "ba"}):
        sub = SubstitutionSubshift(["a", "b"], rules, depth_limit=24)
        prefix = "a"
        for _ in range(16):
            nxt = "".join(rules[c] for c in prefix)
            if len(nxt) > 6000:
                break
            prefix = nxt
        for n in range(1, sub.depth_limit + 1):
            naive = {prefix[i : i + n] for i in range(len(prefix) - n + 1)}
            assert sub.language(n) == naive, (rules, n)


def test_fibonacci_word_return_times(fib):
    c = fib.cylinder("aabaa")
    r = return_time_report(c, search_bound=100)
    assert r.max_gap is not None and r.min_forward_return <= r.max_gap
    # oracle: gaps between occurrences inside long language words
    long_words = sorted(fib.language(90))
    starts = [
        [i for i in range(len(w) - 4) if w[i : i + 5] == "aabaa"] for w in long_words
    ]
    gaps = {b - a for occ in starts for a, b in zip(occ, occ[1:])}
    assert r.min_forward_return == min(gaps)
    # syndeticity: every length (max_gap + 4) word contains the factor
    for w in fib.language(r.max_gap + 4):
        assert "aabaa" in w
    assert any("aabaa" not in w for w in fib.language(r.max_gap + 3))


def test_subshift_translate_depth_budget():
    sub = SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "a"}, depth_limit=8)
    c = sub.cylinder("aab")
    with pytest.raises(DepthExceeded):
        c.translate(20)


def test_forbidden_word_subshift_golden_mean():
    gm = ForbiddenWordSubshift(["0", "1"], ["11"], depth_limit=24)
    # counts follow the Fibonacci recurrence
    counts = [len(gm.language(n)) for n in range(1, 10)]
    assert counts == [2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert not gm.minimal
    # 0^infty avoids "1" forever: the syndeticity search must remain open
    r = return_time_report(gm.cylinder("1"), search_bound=12)
    assert r.min_forward_return == 2
    assert r.max_gap is None


def test_forbidden_word_min_return_bound_exceeded():
    gm = ForbiddenWordSubshift(["0", "1"], ["11"], depth_limit=24)
    with pytest.raises(BoundExceeded):
        return_time_report(gm.cylinder("010010"), search_bound=2)


def test_empty_forbidden_subshift_rejected():
    with pytest.raises(InvalidInput):
        ForbiddenWordSubshift(["0", "1"], ["0", "1"], depth_limit=8)


def test_non_primitive_substitution_rejected():
    with pytest.raises(InvalidInput):
        SubstitutionSubshift(["a", "b"], {"a": "aa", "b": "b"}, depth_limit=8)


def test_clopen_serialization_roundtrip(dyadic, fib):
    s = dyadic.clopen(3, [0, 3, 5])
    assert clopen_from_json(dyadic, s.to_json()) == s
    c = fib.cylinder("aab").translate(2)
    assert clopen_from_json(fib, c.to_json()) == c


def test_system_serialization_roundtrip(dyadic, fib):
    assert system_from_json(dyadic.to_json()).to_json() == dyadic.to_json()
    assert system_from_json(fib.to_json()).to_json() == fib.to_json()


def test_return_report_invariant_min_le_gap(dyadic):
    # min_forward_return <= max_gap whenever both are finite
    for values in ([0], [0, 3], [1, 2, 7], range(8)):
        r = return_time_report(dyadic.clopen(3, values))
        assert r.min_forward_return <= r.max_gap


def _canonical_subshift_uncached(system, left, words):
    """Window shrinking that regroups the language on every step."""
    if not words:
        return 0, frozenset()
    wlen = len(next(iter(words)))
    while wlen > 0:
        for cut, shift in ((lambda w: w[:-1], 0), (lambda w: w[1:], 1)):
            groups, full = {}, {}
            for w in words:
                groups.setdefault(cut(w), set()).add(w)
            for w in system.language(wlen):
                full.setdefault(cut(w), set()).add(w)
            if all(groups[u] == full[u] for u in groups):
                words, left, wlen = frozenset(groups), left + shift, wlen - 1
                break
        else:
            break
    return (0 if wlen == 0 else left), words


SUBSHIFTS = {
    "fibonacci": lambda: SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "a"}, depth_limit=16),
    "silver": lambda: SubstitutionSubshift(["a", "b"], {"a": "aab", "b": "a"}, depth_limit=16),
    "golden_mean": lambda: ForbiddenWordSubshift(["0", "1"], ["11"], depth_limit=16),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SUBSHIFTS)),
    length=st.integers(1, 7),
    left=st.integers(-4, 4),
    data=st.data(),
)
def test_canonical_subshift_matches_uncached_reference(name, length, left, data):
    system = SUBSHIFTS[name]()
    lang = sorted(system.language(length))
    words = frozenset(data.draw(st.sets(st.sampled_from(lang), max_size=len(lang))))
    want = _canonical_subshift_uncached(system, left, words)
    assert _canonical_subshift(system, left, words) == want  # cold cache
    assert _canonical_subshift(system, left, words) == want  # warm cache
    # clopens built through the algebra canonicalize alike
    other = system.cylinder(lang[0], left=left + 1)
    for op in ("union", "intersect"):
        got = getattr(system.clopen(left, words), op)(other)
        assert (got.left, got.words) == _canonical_subshift_uncached(system, got.left, got.words)


def test_lifts_outside_their_window_raise(dyadic, fib):
    """Lifting an odometer clopen to a coarser depth, or a subshift clopen
    to a window that does not contain its own, raises InvalidInput (these
    were asserts, which python -O strips)."""
    s = dyadic.cylinder([0, 1, 1])
    assert s.values_at_depth(4) == frozenset({6, 14})
    with pytest.raises(InvalidInput):
        s.values_at_depth(1)
    c = fib.cylinder("ab", left=2)
    wider = c._extended(c.left - 1, c.wlen + 2)
    assert wider == frozenset(w for w in fib.language(c.wlen + 2) if w[1:-1] in c.words)
    for left, length in ((c.left + 1, c.wlen + 2), (c.left, c.wlen - 1)):
        with pytest.raises(InvalidInput):
            c._extended(left, length)
