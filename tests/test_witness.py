"""Witness construction and the broken-orbit verifier: the residue walk on
odometers and the word walk on subshifts, each against the constraint BFS
(``helpers.constraint_bfs``) as its oracle."""

import copy
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadim import witness as witness_mod
from dadim.certify import corpus_dir, load_certificate
from dadim.errors import DepthExceeded, InvalidInput, NotMinimal
from dadim.symbolic import (
    ForbiddenWordSubshift,
    Odometer,
    SubstitutionSubshift,
    system_from_json,
)
from dadim.witness import (
    DadWitness,
    _residue_walk,
    _word_walk,
    color_element_sets,
    construct_minimal_z_witness,
    default_blowup_bound,
    verify_dad_witness,
    witness_from_json,
)
from helpers import SUBSHIFT_DEPTHS, constraint_bfs, subshift_of, whole, word_walk_oracle


@pytest.fixture(scope="module")
def dyadic():
    return Odometer([2], depth_limit=12)


def quotient_oracle(q, residues, E, disp_cap):
    """Independent broken-orbit enumeration on the rotation Z/q.

    States are (position, displacement) pairs; any displacement beyond the
    cap means the element set cannot be finite within the cap.
    """
    E = sorted({e for x in E for e in (x, -x)} | {0})
    reached = set()
    frontier = [(p, 0) for p in residues]
    seen = set(frontier)
    while frontier:
        pos, disp = frontier.pop()
        reached.add(disp)
        for e in E:
            if e == 0:
                continue
            npos, ndisp = (pos + e) % q, disp + e
            if abs(ndisp) > disp_cap:
                return None
            if npos in residues and (npos, ndisp) not in seen:
                seen.add((npos, ndisp))
                frontier.append((npos, ndisp))
    return frozenset(reached)


@pytest.mark.parametrize("N,expect_M", [(1, 16), (2, 32), (3, 32)])
def test_construct_minimal_z(dyadic, N, expect_M):
    w = construct_minimal_z_witness(dyadic, N)
    assert len(w.colors) == 2
    assert w.meta["M"] == expect_M
    f0, f1 = w.finite_sets
    assert all(abs(n) <= 3 * N for n in f0)
    assert all(abs(n) <= expect_M + N for n in f1)
    # symmetry and identity
    for F in w.finite_sets:
        assert 0 in F and F == frozenset(-n for n in F)
    assert verify_dad_witness(dyadic, w).accepted


def test_construct_n1_details(dyadic):
    w = construct_minimal_z_witness(dyadic, 1)
    assert w.meta["U"] == {"cylinders": ["000"]}
    assert w.meta["V"] == {"cylinders": ["0000"]}
    assert len(w.finite_sets[0]) <= 7
    assert len(w.finite_sets[1]) <= 35


@pytest.mark.parametrize("N", [1, 2, 3])
def test_bfs_equals_quotient_bruteforce(dyadic, N):
    w = construct_minimal_z_witness(dyadic, N)
    M = w.meta["M"]
    depth = 6
    q = dyadic.level_size(depth)
    E = range(-N, N + 1)
    for color, F in zip(w.colors, w.finite_sets):
        residues = color.values_at_depth(depth)
        oracle = quotient_oracle(q, residues, E, 2 * (M + N))
        assert oracle == F


def test_verify_rejects_whole_space_color(dyadic):
    bad = DadWitness(
        colors=[whole(dyadic)], generator_set=(-1, 0, 1),
        finite_sets=[frozenset({0})],
    )
    report = verify_dad_witness(dyadic, bad, 1000)
    assert not report.accepted and report.code == "BlowupExceeded"
    assert report.details["frontier_active"]


def test_verify_blowup_on_too_small_bound(dyadic):
    w = construct_minimal_z_witness(dyadic, 1)
    report = verify_dad_witness(dyadic, w, blowup_bound=3)
    assert not report.accepted and report.code == "BlowupExceeded"


def test_verify_trivial_generator(dyadic):
    w = DadWitness(
        colors=[whole(dyadic)], generator_set=(0,),
        finite_sets=[frozenset({0})],
    )
    report = verify_dad_witness(dyadic, w)
    assert report.accepted
    assert report.details["finite_sets"] == [[0]]


def test_verify_cover_gap(dyadic):
    half = dyadic.cylinder([0])
    w = DadWitness(colors=[half], generator_set=(0,), finite_sets=[frozenset({0})])
    report = verify_dad_witness(dyadic, w)
    assert not report.accepted and report.code == "CoverGap"


def test_verify_finite_set_mismatch(dyadic):
    w = construct_minimal_z_witness(dyadic, 1)
    w.finite_sets[0] = frozenset({0})
    report = verify_dad_witness(dyadic, w)
    assert not report.accepted and report.code == "FiniteSetMismatch"


def test_monotone_in_color(dyadic):
    E = (-1, 0, 1)
    small = dyadic.clopen(4, range(4))
    big = dyadic.clopen(4, range(7))
    f_small, = color_element_sets(dyadic, [small], E)
    f_big, = color_element_sets(dyadic, [big], E)
    assert f_small <= f_big


def test_fibonacci_witness():
    fib = SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "a"}, depth_limit=64)
    w = construct_minimal_z_witness(fib, 1, search_bound=200)
    assert verify_dad_witness(fib, w).accepted
    assert all(abs(n) <= 3 for n in w.finite_sets[0])
    assert all(abs(n) <= w.meta["M"] + 1 for n in w.finite_sets[1])


def test_fibonacci_bfs_vs_long_word_oracle():
    """Independent check of the subshift BFS: positions inside a long
    fixed-point prefix stand in for points (position p realizes the point
    x with x[i] = w[p+i]), and the induced reachability on positions must
    find exactly the same element sets.  Completeness relies on the linear
    recurrence of the word: every needed configuration occurs well inside
    a long enough prefix."""
    rules = {"a": "ab", "b": "a"}
    fib = SubstitutionSubshift(["a", "b"], rules, depth_limit=64)
    w = construct_minimal_z_witness(fib, 1, search_bound=200)

    word = "a"
    while len(word) < 6000:
        word = "".join(rules[c] for c in word)
    pad = 200
    E = sorted({e for x in w.generator_set for e in (x, -x)} | {0})

    for color, want in zip(w.colors, w.finite_sets):
        left, words, wlen = color.left, color.words, color.wlen

        def in_color(p):
            seg = word[p + left : p + left + wlen]
            return len(seg) == wlen and seg in words

        starts = [p for p in range(pad, len(word) - pad) if in_color(p)]
        reached = set()
        seen = {(p, 0) for p in starts}
        frontier = list(seen)
        while frontier:
            p, disp = frontier.pop()
            reached.add(disp)
            for e in E:
                if e == 0:
                    continue
                q, nd = p + e, disp + e
                if not pad <= q < len(word) - pad:
                    continue
                if in_color(q) and (q, nd) not in seen:
                    seen.add((q, nd))
                    frontier.append((q, nd))
        assert frozenset(reached) == want


def test_not_minimal_guard():
    gm = ForbiddenWordSubshift(["0", "1"], ["11"], depth_limit=16)
    with pytest.raises(NotMinimal):
        construct_minimal_z_witness(gm, 1)


def test_witness_serialization_roundtrip(dyadic):
    w = construct_minimal_z_witness(dyadic, 1)
    back = witness_from_json(dyadic, w.to_json())
    assert back.colors == w.colors
    assert back.finite_sets == w.finite_sets
    assert sorted(back.generator_set) == sorted(w.generator_set)


def test_default_blowup_bound():
    assert default_blowup_bound((-1, 0, 1), None, 1) == 10**6
    assert default_blowup_bound((1,), 1, 0) == 3 ** 1
    assert default_blowup_bound((-2, -1, 0, 1, 2), 16, 1) == 10**6


# ---------------------------------------------------------------------------
# the residue walk against the constraint BFS


@st.composite
def odometer_colors(draw, max_residues=16, max_q=81):
    """A random color on an odometer of base [2], [3] or [2, 3] at depth <= 4
    and q_depth <= max_q, with a random symmetric generator set.  Colors stay
    small because the BFS oracle grows fast with dense colors."""
    base = draw(st.sampled_from([[2], [3], [2, 3]]))
    system = Odometer(base, depth_limit=12)
    depth = draw(st.integers(1, 4).filter(lambda d: system.level_size(d) <= max_q))
    q = system.level_size(depth)
    residues = draw(st.sets(st.integers(0, q - 1), max_size=min(q, max_residues)))
    steps = draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))
    E = tuple(sorted({0} | steps | {-e for e in steps}))
    return system, system.clopen(depth, residues), E


@settings(max_examples=150, deadline=None)
@given(case=odometer_colors(), bound=st.sampled_from([0, 1, 3, 5, 50, 10**4]))
def test_residue_walk_matches_constraint_bfs(case, bound):
    system, color, E = case
    depth = max(color.depth, 1)
    q = system.level_size(depth)
    exact = quotient_oracle(q, color.values_at_depth(depth), E, 2 * q * max(E))
    if exact is None and bound > 5:
        bound = 5  # the BFS needs seconds to collect many elements of an infinite set
    got, got_complete = _residue_walk(system, color, E, bound)
    want, want_complete = constraint_bfs(system, color, E, bound)
    assert got_complete == want_complete
    if want_complete or want is None:
        assert got == want
    else:
        # a cut-off search holds bound + 1 elements; the report uses only the count
        assert len(got) == len(want) == max(bound, 1) + 1
        if exact is not None:
            assert got <= exact
    if got_complete and not color.is_whole():
        assert got == exact


def _reports(system, wit, bound):
    """verify_dad_witness with the residue walk and with the BFS in its place."""
    walk = verify_dad_witness(system, wit, bound).to_json()
    saved = witness_mod._color_elements
    witness_mod._color_elements = constraint_bfs
    try:
        bfs = verify_dad_witness(system, wit, bound).to_json()
    finally:
        witness_mod._color_elements = saved
    return walk, bfs


@settings(max_examples=60, deadline=None)
@given(
    case=odometer_colors(max_q=16),  # the complement, too, stays small
    bound=st.sampled_from([0, 1, 3, 5, 50]),
    declare_exact=st.booleans(),
)
def test_verify_reports_match_constraint_bfs(case, bound, declare_exact):
    system, color, E = case
    colors = [color, color.complement()]
    finite_sets = [frozenset({0})] * 2
    if declare_exact:
        walks = [_residue_walk(system, c, E, 10**4) for c in colors]
        finite_sets = [F if ok else frozenset({0}) for F, ok in walks]
    wit = DadWitness(colors=colors, generator_set=E, finite_sets=finite_sets)
    walk, bfs = _reports(system, wit, bound)
    assert walk == bfs


def test_rejection_reports_match_constraint_bfs(dyadic):
    one_color = DadWitness(
        colors=[whole(dyadic)], generator_set=(-1, 0, 1), finite_sets=[frozenset({0})],
    )
    walk, bfs = _reports(dyadic, one_color, 1000)
    assert walk == bfs and walk["details"]["elements_found"] is None
    w = construct_minimal_z_witness(dyadic, 1)
    for bound in (0, 1, 3):
        walk, bfs = _reports(dyadic, w, bound)
        assert walk == bfs and walk["code"] == "BlowupExceeded"
        assert walk["details"]["elements_found"] == max(bound, 1) + 1
        assert walk["details"]["frontier_active"]


# ---------------------------------------------------------------------------
# the word walk against the constraint BFS

GOLDEN_MEAN = ForbiddenWordSubshift(["0", "1"], ["11"], depth_limit=12)
WALK_SUBSHIFTS = [
    SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "a"}, depth_limit=16),
    SubstitutionSubshift(["a", "b"], {"a": "aab", "b": "a"}, depth_limit=16),
    SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "ba"}, depth_limit=16),
    GOLDEN_MEAN,
]


@st.composite
def subshift_colors(draw):
    """A random color of the Fibonacci, silver, Thue-Morse or golden-mean
    subshift: a set of 1-5-letter words on a window starting in [-3, 3],
    with a random symmetric generator set inside {0, +-1, +-2, +-3}."""
    system = draw(st.sampled_from(WALK_SUBSHIFTS))
    length = draw(st.integers(1, 5))
    words = draw(st.sets(st.sampled_from(sorted(system.language(length))), min_size=1))
    left = draw(st.integers(-3, 3))
    steps = draw(st.sets(st.integers(1, 3), min_size=1))
    E = tuple(sorted({0} | steps | {-e for e in steps}))
    return system, system.clopen(left, words), E


def _outcome(search, system, color, E, bound):
    try:
        return search(system, color, E, bound)
    except DepthExceeded:
        return "DepthExceeded"


@settings(max_examples=150, deadline=None)
@given(case=subshift_colors(), bound=st.sampled_from([0, 1, 3, 50]))
@example(case=(GOLDEN_MEAN, GOLDEN_MEAN.clopen(3, ["0000"]), (-3, 0, 3)), bound=3)
def test_word_walk_matches_constraint_bfs(case, bound):
    """Where the BFS completes the walk finds the same set, and the other
    way round; a cut-off search holds max(bound, 1) + 1 elements.

    The systems' depth_limit is small (16, and 12 for the golden mean) only
    because the BFS oracle is exponential on the golden mean: its constraint
    windows, and so the languages it materializes, widen with every element
    it reaches.  With the golden mean at 16, one run of this test took 8 s
    and 550 MB.

    Where neither search completes, the BFS meets the bound and the depth
    limit in the order of its elements, the walk in the order of its words,
    so one may be cut off where the other raises DepthExceeded.  On the
    explicit example the walk raises at the target 6 of 3, whose window
    [9, 13) leaves [-12, 12], before it has read enough letters to decide
    -6, which the BFS reaches first and which cuts it off.  Every element
    but 0 of a search has its window inside [-depth_limit, depth_limit], so
    this can happen only under a bound below 2 * depth_limit: at bound 50
    the outcomes are equal.
    """
    system, color, E = case
    got = _outcome(_word_walk, system, color, E, bound)
    want = _outcome(constraint_bfs, system, color, E, bound)
    if got == want and (got == "DepthExceeded" or got[1] or got[0] is None):
        return  # the same exception, the same set, or both a whole color
    assert "DepthExceeded" not in (got, want) or bound < 2 * system.depth_limit
    for out in (got, want):
        if out != "DepthExceeded":
            assert not out[1]
            # the report uses only the count of a cut-off search's elements
            assert out[0] is not None and len(out[0]) == max(bound, 1) + 1


def test_word_walk_whole_color_of_periodic_subshift():
    """On a finite system the whole space is cut off like any other color."""
    periodic = SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "ab"}, depth_limit=16)
    assert not periodic.infinite
    for bound in (0, 1, 5):
        for search in (_word_walk, constraint_bfs):
            elements, complete = search(periodic, whole(periodic), (-2, 0, 2), bound)
            assert not complete and len(elements) == max(bound, 1) + 1


@pytest.mark.parametrize("system", [
    SubstitutionSubshift(["a", "b"], {"a": "ab", "b": "a"}, depth_limit=64),
    SubstitutionSubshift(["a", "b"], {"a": "aab", "b": "a"}, depth_limit=64),
], ids=["fibonacci", "silver"])
def test_word_walk_matches_constraint_bfs_on_witnesses(system):
    """The N=1 witnesses' colors, whose sets the constructor took from the walk."""
    w = construct_minimal_z_witness(system, 1)
    E = tuple(sorted(set(w.generator_set) | {-e for e in w.generator_set}))
    for color, F in zip(w.colors, w.finite_sets):
        assert constraint_bfs(system, color, E, w.meta["blowup_bound"]) == (F, True)


@pytest.mark.parametrize("case", ["fibonacci_n2", "thue_morse_n1"])
def test_subshift_goldens_match_constraint_bfs(case):
    """The corpus goldens written by the word walk hold the BFS's sets."""
    root = corpus_dir()
    spec, = (c for c in load_certificate(root / "cases.json")["cases"] if c["name"] == case)
    system = system_from_json(spec["params"]["system"])
    golden = load_certificate(root / spec["golden"])
    assert golden["accepted"]
    w = witness_from_json(system, golden["witness"])
    E = tuple(sorted(set(w.generator_set) | {-e for e in w.generator_set}))
    for color, F in zip(w.colors, w.finite_sets):
        assert constraint_bfs(system, color, E, w.meta["blowup_bound"]) == (F, True)


@pytest.mark.parametrize("case", [
    "fibonacci_n1", "fibonacci_n2", "fibonacci_n6", "thue_morse_n1", "thue_morse_n4",
])
def test_subshift_goldens_match_the_rescanning_walk(case):
    """Every subshift golden holds the sets of the walk the word walk
    replaced, at depth limit 256 as well as at 64."""
    root = corpus_dir()
    spec, = (c for c in load_certificate(root / "cases.json")["cases"] if c["name"] == case)
    system = system_from_json(spec["params"]["system"])
    w = witness_from_json(system, load_certificate(root / spec["golden"])["witness"])
    E = tuple(sorted(set(w.generator_set) | {-e for e in w.generator_set}))
    for color, F in zip(w.colors, w.finite_sets):
        assert word_walk_oracle(system, color, E, w.meta["blowup_bound"]) == (F, True)


# ---------------------------------------------------------------------------
# the word walk against the rescanning walk it replaced


@st.composite
def deep_subshift_colors(draw):
    """A random color of the Fibonacci, silver, Thue-Morse or golden-mean
    subshift at a depth limit from 9 up (to 64, and to 12 for the golden
    mean): a set of 1-6-letter words on a window starting in [-8, 8], short
    of all of them, with a random symmetric generator set inside
    {0, +-1, ..., +-4}."""
    name = draw(st.sampled_from(sorted(SUBSHIFT_DEPTHS)))
    system = subshift_of(name, draw(st.integers(9, SUBSHIFT_DEPTHS[name])))
    lang = sorted(system.language(draw(st.integers(1, 6))))
    # no color is the whole space, which takes neither walk
    words = draw(st.sets(st.sampled_from(lang), min_size=1, max_size=len(lang) - 1))
    steps = draw(st.sets(st.integers(1, 4), min_size=1))
    E = tuple(sorted({0} | steps | {-e for e in steps}))
    return system, system.clopen(draw(st.integers(-8, 8)), words), E


SEARCH_BOUNDS = st.one_of(st.integers(3, 64), st.integers(3, 4096))


def _exactly(search, *args):
    """What a search returns, with the iteration order of an element set,
    or the class and message of what it raises."""
    try:
        elements, complete = search(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return elements, None if elements is None else list(elements), complete


@settings(max_examples=300, deadline=None)
@given(case=deep_subshift_colors(), bound=SEARCH_BOUNDS)
def test_word_walk_matches_the_rescanning_walk(case, bound):
    """The walk finds the elements the rescanning walk finds, in the same
    order: the same set, the same cut-off set in the same iteration order,
    or the same exception with the same message."""
    system, color, E = case
    assert _exactly(_word_walk, system, color, E, bound) == _exactly(
        word_walk_oracle, system, color, E, bound
    )


class CountingWords(frozenset):
    """A set of words that counts its membership checks."""

    checks = 0

    def __contains__(self, word):
        self.checks += 1
        return frozenset.__contains__(self, word)


def _counted(color):
    """A copy of a subshift color whose words count their checks."""
    out = copy.copy(color)
    object.__setattr__(out, "words", CountingWords(color.words))
    return out


def test_word_walk_reads_each_target_once_per_line():
    """On the colors of the Fibonacci witness at N = 4 the walk checks
    fewer slices against W than the rescanning walk, and finds the same
    sets.  A walk that rescans its members at every state checks as many."""
    fib = subshift_of("fibonacci", 256)
    w = construct_minimal_z_witness(fib, 4)
    E = tuple(sorted(set(w.generator_set) | {-e for e in w.generator_set}))
    checks = []
    for color, F in zip(w.colors, w.finite_sets):
        counts = []
        for search in (_word_walk, word_walk_oracle):
            counted = _counted(color)
            assert search(fib, counted, E, w.meta["blowup_bound"]) == (F, True)
            counts.append(counted.words.checks)
        checks.append(counts)
    assert all(walk < rescan for walk, rescan in checks), checks
    assert sum(walk for walk, _ in checks) < sum(rescan for _, rescan in checks) / 4, checks


# ---------------------------------------------------------------------------
# sizes the BFS could not reach


@pytest.mark.parametrize("base,N", [([2], 4), ([2], 8), ([2, 3], 4), ([3], 4)])
def test_large_witnesses(base, N):
    system = Odometer(base, depth_limit=12)
    start = time.perf_counter()
    w = construct_minimal_z_witness(system, N)
    report = verify_dad_witness(system, w)
    assert time.perf_counter() - start < 1.0
    assert report.accepted
    M = w.meta["M"]
    f0, f1 = w.finite_sets
    assert all(abs(n) <= 3 * N for n in f0)
    assert all(abs(n) <= M + N for n in f1)
    depth = max(c.depth for c in w.colors)
    q = system.level_size(depth)
    for color, F in zip(w.colors, w.finite_sets):
        oracle = quotient_oracle(q, color.values_at_depth(depth), range(-N, N + 1), 2 * (M + N))
        assert oracle == F


@pytest.mark.parametrize("system,N", [
    (Odometer([2], depth_limit=12), 3),
    (Odometer([3], depth_limit=12), 1),
    (SubstitutionSubshift(["a", "b"], {"a": "aab", "b": "a"}, depth_limit=64), 1),
], ids=["dyadic-N3", "triadic-N1", "silver-N1"])
def test_constructed_sets_equal_verifier_sets(system, N):
    """The constructor computes each element set once; the verifier's
    recomputation from the colors alone gives the same sets."""
    w = construct_minimal_z_witness(system, N)
    report = verify_dad_witness(system, w)
    assert report.accepted
    assert report.details["finite_sets"] == [sorted(F) for F in w.finite_sets]


# ---------------------------------------------------------------------------
# malformed witness files


@pytest.mark.parametrize("data", [
    {"E": [-1, 0, 1], "finite_sets": [[0]]},
    {"E": [-1, 0, 1], "colors": [{"cylinders": ["0x1"]}], "finite_sets": [[0]]},
    {"E": [-1, 0, 1], "colors": [{"words": ["0"]}], "finite_sets": [[0]]},
    {"E": ["one"], "colors": [{"cylinders": [""]}], "finite_sets": [[0]]},
    {"E": [0], "colors": [{"cylinders": [""]}], "finite_sets": [[0]],
     "meta": {"blowup_bound": "many"}},
    [],
])
def test_witness_from_json_rejects_malformed_input(dyadic, data):
    with pytest.raises(InvalidInput):
        witness_from_json(dyadic, data)
