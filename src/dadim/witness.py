"""Dynamic-asymptotic-dimension witnesses for minimal Z-systems.

A witness is a finite clopen cover {U_0, ..., U_d} of the space together
with, for each color, the finite set F_i of group elements realizable by
E-paths whose intermediate points all stay inside U_i.  The verifier
recomputes every F_i exactly.  On an odometer a color of depth m is a set of
residues mod q_m on which Z acts by rotation, so F_i is read off a walk over
those residues that records each one's displacement.  On a subshift a color
is a set of words on one window, and F_i is read off a walk over the words
of the language: each word is extended letter by letter until every step
from the component of 0 it has found is decided inside it, and a longer
word decides only the targets its prefix or suffix left open, so each
target is read from a word once.  The constructor's cylinder U with
disjoint translates, its refinement V and V's syndeticity bound M come from
``symbolic.return_time_report`` and ``disjoint_translates_radius``, which on
a subshift read return times off the language without building a clopen
set per translate.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from .errors import DepthExceeded, InvalidInput, NotMinimal, integer, malformed, positive_int
from .reporting import VerificationReport
from .symbolic import (
    ClopenSet,
    Odometer,
    OdometerClopen,
    SubshiftClopen,
    SymbolicSystem,
    _Subshift,
    clopen_from_json,
    disjoint_translates_radius,
    return_time_report,
)

__all__ = [
    "DadWitness",
    "construct_minimal_z_witness",
    "verify_dad_witness",
    "color_element_sets",
    "default_blowup_bound",
    "witness_from_json",
]

BLOWUP_CAP = 10**6


@dataclass
class DadWitness:
    """Cover colors plus the per-color finite element sets.

    ``generator_set`` is a finite symmetric subset of Z; the verifier works
    with its symmetrization (adding inverses and 0) so the element sets are
    closed under negation and contain 0 whenever the color is nonempty.
    """

    colors: list[ClopenSet]
    generator_set: tuple[int, ...]
    finite_sets: list[frozenset[int]]
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "E": sorted(self.generator_set),
            "colors": [c.to_json() for c in self.colors],
            "finite_sets": [sorted(F) for F in self.finite_sets],
            "meta": dict(sorted(self.meta.items())),
        }


def witness_from_json(system: SymbolicSystem, data: dict) -> DadWitness:
    with malformed("witness"):
        witness = DadWitness(
            colors=[clopen_from_json(system, c) for c in data["colors"]],
            generator_set=tuple(integer(e, "E entry") for e in data["E"]),
            finite_sets=[frozenset(integer(n, "finite set entry") for n in F)
                         for F in data["finite_sets"]],
            meta=dict(data.get("meta", {})),
        )
    if "blowup_bound" in witness.meta:
        positive_int(witness.meta["blowup_bound"], "witness meta blowup_bound")
    return witness


def _symmetrize(E) -> tuple[int, ...]:
    out = {0}
    for e in E:
        out.add(int(e))
        out.add(-int(e))
    return tuple(sorted(out))


def default_blowup_bound(E, max_gap: int | None, d: int) -> int:
    """(2|E|+1)^(max_gap*(d+1)) capped at 10^6; the cap in practice."""
    if max_gap is None:
        return BLOWUP_CAP
    base = 2 * len(set(E)) + 1
    try:
        raw = base ** (max_gap * (d + 1))
    except OverflowError:  # pragma: no cover
        return BLOWUP_CAP
    return min(raw, BLOWUP_CAP)


# ---------------------------------------------------------------------------
# broken-orbit element sets


def _color_elements(
    system: SymbolicSystem,
    color: ClopenSet,
    E: tuple[int, ...],
    blowup_bound: int,
):
    """Broken-orbit element set of one color under the symmetric set E.

    Returns (elements, complete) where ``complete`` is False when the set
    has more than ``blowup_bound`` elements (or is infinite); ``elements``
    then holds only ``blowup_bound + 1`` of them, or is None for the whole
    space.  Odometer colors take the exact residue walk, subshift colors
    the exact word walk.
    """
    if isinstance(color, OdometerClopen):
        return _residue_walk(system, color, E, blowup_bound)
    return _word_walk(system, color, E, blowup_bound)


def _residue_walk(
    system: Odometer,
    color: OdometerClopen,
    E: tuple[int, ...],
    blowup_bound: int,
):
    """Exact element set of an odometer color by a walk on the residues.

    A color of depth m is a set U of residues mod q_m and n.x = x + n mod
    q_m, so F is the union over r in U of the E-connected component of 0 in
    {n : r + n mod q_m in U}.  Each graph component of U is walked once,
    recording each residue's displacement D from the component's root; the
    component contributes D - D.  A residue reached at a second displacement
    closes a loop with nonzero net displacement P, whose multiples all lie
    in F, so F is infinite.  A bound below 1 acts as 1, as in the constraint
    BFS both walks replaced (now the tests' oracle), which compares with the
    bound only after its first step.
    """
    steps = [e for e in E if e != 0]
    if color.is_whole() and steps:
        return None, False
    bound = max(blowup_bound, 1)
    q = system.level_size(color.depth)
    U = color.values
    placed: set[int] = set()
    F: set[int] = set()
    for root in U:
        if root in placed:
            continue
        disp = {root: 0}
        stack = [root]
        while stack:
            r = stack.pop()
            d = disp[r]
            for e in steps:
                s = (r + e) % q
                if s not in U:
                    continue
                if s not in disp:
                    disp[s] = d + e
                    stack.append(s)
                elif disp[s] != d + e:
                    period = d + e - disp[s]
                    return frozenset(j * period for j in range(bound + 1)), False
        placed.update(disp)
        D = disp.values()
        for a in D:
            F.update(a - b for b in D)
            if len(F) > bound:
                return frozenset(itertools.islice(F, bound + 1)), False
    return frozenset(F), True


def _word_walk(
    system: _Subshift,
    color: SubshiftClopen,
    E: tuple[int, ...],
    blowup_bound: int,
):
    """Exact element set of a subshift color by a walk on the language's words.

    A color is a set W of words on the window [l, l+L), so F is the union
    over x in the color of the E-connected component of 0 in
    {n : x[n+l, n+l+L) in W}.  A state (a, u) knows x on [a, a+|u|); the
    part C of 0's component it has found is closed under every step whose
    target window lies inside the known one, and a target m joins C iff its
    slice of u is in W.  Each state carries the targets its line of words
    has seen: those it decided (the members of C, and the targets whose
    slice is not in W, which no longer word can change) and, in scan order,
    the pending ones, whose window u did not cover.  A child, one letter
    longer, decides the pending targets first and then scans the steps of
    only the members it adds, so each target is read from a word once per
    line: every element is found, every bound cut-off and DepthExceeded
    met, in the order in which a rescan of all of C at every state would
    meet them.  A state with no undecided target is a leaf: C is then the
    component of every point that carries u there.  Otherwise u grows by
    one letter on the side of the first undecided target, over the
    language's extensions, and states are processed by word length.  A step
    whose target window leaves [-depth_limit, depth_limit] raises
    DepthExceeded, exactly where the constraint BFS's translate would.  The
    walk stops as soon as its states have found more than ``blowup_bound``
    elements between them; a bound below 1 acts as 1, as in the residue
    walk.  The rescanning walk is the tests' oracle.
    """
    if color.is_empty():
        return frozenset(), True
    steps = [e for e in E if e != 0]
    bound = max(blowup_bound, 1)
    if color.is_whole() and steps:
        # every point reaches all of the subgroup generated by E; the BFS
        # reported no elements for it on an infinite system
        if system.infinite:
            return None, False
        g = math.gcd(*steps)
        return frozenset(j * g for j in range(bound + 1)), False
    left, W, L = color.left, color.words, color.wlen
    limit = system.depth_limit
    F = {0}  # every element any state has found; all of F at the end

    def targets(members, seen):
        """The targets of the members' steps that the line has not seen, in
        scan order; ``members`` may grow while they are read."""
        for n in members:
            for e in steps:
                m = n + e
                if m not in seen:
                    seen.add(m)
                    lo = m + left
                    if max(abs(lo), abs(lo + L)) > limit:
                        raise DepthExceeded(
                            f"window [{lo},{lo + L}) exceeds depth_limit {limit}"
                        )
                    yield m

    # a state: its word u on [a, a+|u|), the targets its line has seen
    # (decided or pending), and the pending ones in scan order; each root
    # has 0, whose window is its word, pending
    queue = deque((left, w, {0}, [0]) for w in sorted(W))
    while queue:
        a, u, seen, pending = queue.popleft()
        seen = set(seen)  # shared with the state's siblings
        right = a + len(u)
        added = []  # the members this state adds, in the order found
        undecided = []
        # the pending targets first, then those of the members added
        for m in itertools.chain(pending, targets(added, seen)):
            lo = m + left
            if lo < a or lo + L > right:
                undecided.append(m)
            elif u[lo - a : lo - a + L] in W:
                added.append(m)
                F.add(m)
                if len(F) > bound:
                    return frozenset(itertools.islice(F, bound + 1)), False
        if not undecided:
            continue  # a leaf
        by_prefix, by_suffix = system._groupings(len(u) + 1)
        if undecided[0] + left < a:
            queue.extend((a - 1, v, seen, undecided) for v in sorted(by_suffix.get(u, ())))
        else:
            queue.extend((a, v, seen, undecided) for v in sorted(by_prefix.get(u, ())))
    return frozenset(F), True


def color_element_sets(
    system: SymbolicSystem,
    colors,
    E,
    blowup_bound: int = BLOWUP_CAP,
) -> list[frozenset[int]]:
    """Broken-orbit element sets of each color under the symmetrized E.

    Raises BlowupExceeded when a color's search does not complete within
    the bound.
    """
    from .errors import BlowupExceeded

    out = []
    sym = _symmetrize(E)
    for i, color in enumerate(colors):
        elements, complete = _color_elements(system, color, sym, blowup_bound)
        if not complete:
            raise BlowupExceeded(f"color {i} exceeded blowup bound {blowup_bound}")
        out.append(elements)
    return out


def verify_dad_witness(
    system: SymbolicSystem,
    witness: DadWitness,
    blowup_bound: int | None = None,
) -> VerificationReport:
    """Check cover exactness and recompute every finite set.

    Accepts iff the colors cover the space, each color's element set has at
    most ``blowup_bound`` elements, and the recomputed sets equal the
    declared ``finite_sets``.  Report messages say "BFS" on both search
    paths; they are part of the byte-exact report contract.
    """
    if blowup_bound is None:
        blowup_bound = witness.meta.get("blowup_bound", BLOWUP_CAP)
    E = _symmetrize(witness.generator_set)

    cover = system.empty()
    for c in witness.colors:
        cover = cover.union(c)
    if not cover.is_whole():
        return VerificationReport(
            False, "CoverGap", "colors do not cover the space",
            {"cover": cover.to_json()},
        )

    computed: list[frozenset[int]] = []
    for i, color in enumerate(witness.colors):
        elements, complete = _color_elements(system, color, E, blowup_bound)
        if not complete:
            frontier_active = elements is None or len(elements) > blowup_bound
            return VerificationReport(
                False,
                "BlowupExceeded",
                (
                    f"color {i}: BFS exceeded blowup_bound={blowup_bound} with the "
                    "frontier still active -- witness invalid or bound too small"
                    if frontier_active
                    else f"color {i}: element set larger than blowup_bound={blowup_bound}"
                ),
                {
                    "color": i,
                    "frontier_active": bool(frontier_active),
                    "elements_found": None if elements is None else len(elements),
                },
            )
        computed.append(elements)

    mismatches = [
        i
        for i, (got, want) in enumerate(zip(computed, witness.finite_sets))
        if got != want
    ]
    if len(witness.finite_sets) != len(witness.colors) or mismatches:
        return VerificationReport(
            False, "FiniteSetMismatch",
            f"declared finite sets differ from BFS at colors {mismatches}",
            {"computed": [sorted(F) for F in computed]},
        )
    return VerificationReport(
        True, "ok", "witness verified",
        {
            "finite_sets": [sorted(F) for F in computed],
            "sizes": [len(F) for F in computed],
            "blowup_bound": blowup_bound,
        },
    )


# ---------------------------------------------------------------------------
# constructive path for minimal Z-systems


def _least_disjoint_cylinder(system: SymbolicSystem, radius: int) -> ClopenSet:
    """Deepen cylinders until one has all translates up to ``radius`` disjoint
    from itself; pick the lexicographically least word at that depth."""
    if isinstance(system, Odometer):
        for depth in range(1, system.depth_limit + 1):
            if system.level_size(depth) > radius:
                return system.cylinder([0] * depth)
        raise DepthExceeded(f"no cylinder depth within limit has return time > {radius}")
    for depth in range(1, system.depth_limit + 1):
        for word in sorted(system.language(depth)):
            cand = system.cylinder(word)
            try:
                if disjoint_translates_radius(cand, radius):
                    return cand
            except DepthExceeded:
                break
        else:
            continue
        break
    raise DepthExceeded(f"no cylinder within depth budget has disjointness radius {radius}")


def _refine_one_level(system: SymbolicSystem, u: ClopenSet) -> ClopenSet:
    """A strictly smaller cylinder inside ``u`` (one more constrained level,
    least branch).  Zero-dimensionality makes closure(V) = V, so the pair
    (V, U) realizes "closure of V inside U" exactly."""
    if isinstance(system, Odometer):
        depth = u.depth
        v = min(u.values)
        return system.clopen(depth + 1, [v])
    word = min(u.words)
    left = u.left
    # extend to the right through forced letters until a genuine branch
    for _ in range(system.depth_limit):
        by_prefix = system._groupings(len(word) + 1)[0]
        exts = sorted(w[-1] for w in by_prefix.get(word, ()))
        if not exts:
            raise DepthExceeded("cylinder admits no extension inside depth budget")
        word = word + exts[0]
        if len(exts) > 1:
            return system.cylinder(word, left=left)
    raise DepthExceeded("no branching extension found within depth budget")


def construct_minimal_z_witness(
    system: SymbolicSystem, N: int, search_bound: int = 4096
) -> DadWitness:
    """Two-color witness for E = [-N, N] on a minimal infinite system.

    U is a cylinder whose translates up to 5N are disjoint from itself, V a
    strict refinement of U; the colors are U_0 = union of n.U over |n| <= N
    and U_1 = complement of the union of n.V.  The element sets are then
    confined to [-3N, 3N] and [-M-N, M+N], with M the exact syndeticity
    bound of V.

    Each element set is computed once.  The constructor checks that the
    colors cover the space and that the sets respect those two bounds;
    ``verify_dad_witness`` is the independent check of a stored witness.
    """
    if N < 1:
        raise InvalidInput("N must be a positive integer")
    if not getattr(system, "minimal", False):
        raise NotMinimal("witness construction requires a verified minimal system")
    if not getattr(system, "infinite", False):
        raise NotMinimal("witness construction requires an infinite system")

    u = _least_disjoint_cylinder(system, 5 * N)
    v = _refine_one_level(system, u)
    rt = return_time_report(v, search_bound)
    if rt.max_gap is None:
        raise DepthExceeded(
            f"syndeticity bound of V not found within search_bound={search_bound}"
        )
    M = rt.max_gap

    u0 = system.empty()
    moved_v = system.empty()
    for n in range(-N, N + 1):
        u0 = u0.union(u.translate(n))
        moved_v = moved_v.union(v.translate(n))
    u1 = moved_v.complement()

    E = tuple(range(-N, N + 1))
    d = 1
    bound = default_blowup_bound(E, M, d)
    if not u0.union(u1).is_whole():
        raise DepthExceeded("constructed colors do not cover the space")
    f0, ok0 = _color_elements(system, u0, E, bound)
    f1, ok1 = _color_elements(system, u1, E, bound)
    if not (ok0 and ok1):
        raise DepthExceeded("constructed witness did not verify within blowup bound")

    witness = DadWitness(
        colors=[u0, u1],
        generator_set=E,
        finite_sets=[f0, f1],
        meta={
            "N": N,
            "M": M,
            "blowup_bound": bound,
            "U": u.to_json(),
            "V": v.to_json(),
            "bound_F0": 3 * N,
            "bound_F1": M + N,
        },
    )

    if any(abs(n) > 3 * N for n in f0):
        raise DepthExceeded("color-0 element set escaped [-3N, 3N]")
    if any(abs(n) > M + N for n in f1):
        raise DepthExceeded("color-1 element set escaped [-M-N, M+N]")
    return witness
