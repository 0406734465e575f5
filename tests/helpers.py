"""Test inputs and all-pairs oracles shared by several test modules."""

import operator
import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from dadim.coarse import AsdimWitness, Grid1dSpace
from dadim.convolution import (
    ConvElement,
    _cnum,
    _min_bisection_cover,
    block_decompose,
    reduced_norm,
)
from dadim.errors import (
    ConditionViolated,
    DepthInsufficient,
    EmptySkeleton,
    EquivarianceTooWeak,
    GroupoidMismatch,
    InvalidInput,
    MissingSample,
    NoFiniteS,
    NotAnAction,
    NotFree,
    NotInComplex,
    PropagationEscapesColor,
    SupportLeak,
    TooLarge,
    TowerInvalid,
    WitnessInsufficient,
)
from dadim.exactmath import diff_lt_osc_bound, diff_lt_rational, osc_bound_float, sqrt_pair_float
from dadim.groupoid import (
    BlockArrows,
    FiniteGroupoid,
    _seeds,
    generate_subgroupoid,
)
from dadim.reporting import VerificationReport
from dadim.certify import file_hash, rational_str
from dadim.nerve import (
    SimplicialComplex,
    SimplicialPoint,
    inner_radius,
    l1_distance,
    nice_cover_assign,
)
from dadim.pou import PartitionOfUnity
from dadim.symbolic import ClopenSet, Odometer, OdometerClopen, SubshiftClopen, SymbolicSystem

def whole(system: SymbolicSystem) -> ClopenSet:
    """The whole space of a system as its one cylinder of depth 0."""
    if isinstance(system, Odometer):
        return OdometerClopen(system, 0, frozenset({0}))
    return SubshiftClopen(system, 0, frozenset({""}))


def same_set(A: ClopenSet, B: ClopenSet) -> bool:
    """Whether two clopen sets of one system are the same set: an odometer
    clopen's canonical form is unique, and subshift clopens are compared
    as their cylinders over one common window."""
    if A == B:
        return True
    if isinstance(A, OdometerClopen):
        return False
    if A.is_empty() or B.is_empty():
        return A.is_empty() and B.is_empty()
    left = min(A.left, B.left)
    right = max(A.left + A.wlen, B.left + B.wlen)
    return A._extended(left, right - left) == B._extended(left, right - left)


def from_numerators(num: dict, den: int) -> SimplicialPoint:
    """The point with weight num[v]/den at v; zero numerators are dropped.
    Integers only, den >= 1, no negative weight, and weights summing to 1,
    else InvalidInput."""
    try:
        den = operator.index(den)
        num = {v: operator.index(k) for v, k in num.items()}
    except TypeError as exc:
        raise InvalidInput(f"numerators and denominator must be integers: {exc}") from None
    if den < 1:
        raise InvalidInput(f"denominator {den} is not positive")
    for v, k in num.items():
        if k < 0:
            raise InvalidInput(f"negative weight at vertex {v!r}")
    total = sum(num.values())
    if total != den:
        raise InvalidInput(f"weights sum to {Fraction(total, den)}, not 1")
    return SimplicialPoint._reduced({v: k for v, k in num.items() if k}, den)


def z2_pair_groupoid_json(n: int, corrupt: bool = False) -> dict:
    """Z/2 x the pair groupoid on n units as an explicit groupoid file.

    Arrow (g, x, y) runs from y to x and has id g*n*n + x*n + y.  There
    are 8 n^4 composable triples, 405 000 at n = 15.
    With ``corrupt`` one composite, (1, 0, 1)(1, 1, 2), is (1, 0, 2)
    instead of (0, 0, 2): endpoints, units and inverses stay right, so
    only associativity can catch it.
    """

    def aid(g, x, y):
        return g * n * n + x * n + y

    cells = [(g, x, y) for g in (0, 1) for x in range(n) for y in range(n)]
    compose = [
        [aid(g, x, y), aid(h, y, z), aid((g + h) % 2, x, z)]
        for g, x, y in cells for h in (0, 1) for z in range(n)
    ]
    if corrupt:
        for triple in compose:
            if triple[:2] == [aid(1, 0, 1), aid(1, 1, 2)]:
                triple[2] = aid(1, 0, 2)
    return {
        "units": list(range(n)),
        "arrows": [{"id": aid(*c), "s": c[2], "r": c[1]} for c in cells],
        "compose": compose,
        "inverse": {str(aid(g, x, y)): aid(g, y, x) for g, x, y in cells},
    }


def arrow_positions(bd) -> dict:
    """arrow -> (block, row, column) of a block decomposition, read off
    ``bd.block`` and ``bd.pos``: every arrow of G with both endpoints in
    one block, at the row of its range and the column of its source."""
    G = bd.G
    block, pos = bd.block.tolist(), bd.pos.tolist()
    out = {}
    for g in G.arrows:
        s, r = G.index[G.source(g)], G.index[G.range(g)]
        if block[s] >= 0 and block[s] == block[r]:
            out[g] = (block[s], pos[r], pos[s])
    return out


def block_classes(bd) -> list:
    """(first unit, units) per block of a block decomposition, in block
    order, the units of a block in the order of their positions."""
    members: dict = {}
    for u, k, i in zip(bd.G.units, bd.block.tolist(), bd.pos.tolist()):
        if k >= 0:
            members.setdefault(k, {})[i] = u
    classes = [tuple(m[i] for i in sorted(m)) for _, m in sorted(members.items())]
    return [(m[0], m) for m in classes]


def _connected_components(pairs, units=()) -> list[list]:
    """Connected components of the graph on ``units`` plus the endpoints
    of ``pairs``, with an edge per pair, by a dict union-find; in order of
    first appearance.  The oracle of ``groupoid._edge_components``."""
    parent: dict = {}

    def root(u):
        r = u
        while parent[r] != r:
            r = parent[r]
        while parent[u] != r:
            parent[u], u = r, parent[u]
        return r

    for u in units:
        parent.setdefault(u, u)
    for x, y in pairs:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = root(x), root(y)
        if rx != ry:
            parent[rx] = ry
    comps: dict = {}
    for u in parent:
        comps.setdefault(root(u), []).append(u)
    return list(comps.values())


def refuse_generation(monkeypatch) -> None:
    """Make every call of ``generate_subgroupoid``, through any dadim module
    that holds it, and every construction of a ``BlockArrows`` fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a subgroupoid was generated")

    monkeypatch.setattr(BlockArrows, "__init__", refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dadim" and hasattr(module, "generate_subgroupoid"):
            monkeypatch.setattr(module, "generate_subgroupoid", refuse)


@lru_cache(maxsize=64)
def block_label(gen: BlockArrows) -> dict:
    """unit -> index of its block in a ``BlockArrows``."""
    return {u: i for i, b in enumerate(gen.blocks) for u in b}


def seed_in_color(G, K, color):
    """The seed of one color, as ``groupoid._seeds`` gives it."""
    return next(_seeds(G, K, [color]))


def holds(gen: BlockArrows, G, a) -> bool:
    """Whether arrow ``a`` of G has both endpoints in one block of ``gen``."""
    label = block_label(gen)
    s = label.get(G.source(a))
    return s is not None and s == label.get(G.range(a))


def matrix_unit_defects(bd) -> list:
    """Pairs (a, b) of arrows of a block decomposition whose matrix units
    do not multiply like the arrows compose, over all pairs: e_a e_b must
    be the matrix unit of ab when ab is defined, and 0 when it is not."""
    pos = arrow_positions(bd)
    out = []
    for a, (ka, ia, ja) in pos.items():
        for b, (kb, ib, jb) in pos.items():
            ab = bd.G.compose(a, b)
            want = (ka, ia, jb) if ka == kb and ja == ib else None
            got = None if ab is None else pos.get(ab, ())
            if got != want:
                out.append((a, b))
    return out


def constraint_bfs(
    system: SymbolicSystem,
    color: ClopenSet,
    E: tuple[int, ...],
    blowup_bound: int,
):
    """Breadth-first exploration of the broken-orbit element set of one color.

    Returns (elements, complete) where ``complete`` is False when the search
    was cut off at ``blowup_bound`` distinct elements with frontier still
    active.  States are (element, constraint) pairs; the constraint is the
    clopen set of starting points x in U such that every partial sum s of
    the path satisfies s.x in U; a state is retained iff it is nonempty.
    """
    if color.is_empty():
        return frozenset(), True
    if color.is_whole() and any(e != 0 for e in E):
        # the whole space puts no constraint on paths, so every element of
        # the subgroup generated by E is reached; on an infinite system the
        # element set is infinite
        if getattr(system, "infinite", True):
            return None, False

    translate_cache: dict[int, ClopenSet] = {0: color}

    def constraint_at(n: int) -> ClopenSet:
        if n not in translate_cache:
            translate_cache[n] = color.translate(-n)
        return translate_cache[n]

    start = (0, color)
    seen = {start}
    elements = {0}
    queue = deque([start])
    while queue:
        n, cset = queue.popleft()
        for e in E:
            if e == 0:
                continue
            n2 = n + e
            c2 = cset.intersect(constraint_at(n2))
            if c2.is_empty():
                continue
            state = (n2, c2)
            if state in seen:
                continue
            seen.add(state)
            elements.add(n2)
            if len(elements) > blowup_bound:
                return frozenset(elements), False
            queue.append(state)
    return frozenset(elements), True


# ---------------------------------------------------------------------------
# nerve: points as dicts of Fractions


class FractionPoint:
    """Finitely supported probability vector with ``Fraction`` weights; the
    oracle of ``dadim.nerve.SimplicialPoint``."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        w = {}
        total = Fraction(0)
        for v, t in weights.items():
            t = Fraction(t)
            if t < 0:
                raise InvalidInput(f"negative weight at vertex {v!r}")
            if t > 0:
                w[v] = t
                total += t
        if total != 1:
            raise InvalidInput(f"weights sum to {total}, not 1")
        self.weights = w

    def support(self) -> frozenset:
        return frozenset(self.weights)

    def mass_on(self, vertices) -> Fraction:
        return sum((t for v, t in self.weights.items() if v in vertices), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, FractionPoint) and self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def to_json(self) -> dict:
        return {repr(v): str(t) for v, t in sorted(self.weights.items(), key=lambda kv: repr(kv[0]))}


def mass_on(mu: SimplicialPoint, vertices) -> Fraction:
    """The mass a ``SimplicialPoint`` puts on a vertex set, as a ``Fraction``."""
    return Fraction(mu._mass_num(vertices), mu.den)


def maximal_faces_oracle(vertices, faces) -> tuple:
    """``SimplicialComplex.maximal_faces`` from one all-pairs scan: the
    distinct faces, then the lone vertices, keeping each face that lies
    inside no other one."""
    faces = list({frozenset(f) for f in faces})
    covered = set().union(*faces) if faces else set()
    for v in frozenset(vertices) - covered:
        faces.append(frozenset({v}))
    return tuple(f for f in faces if not any(f < g for g in faces))


def is_face_oracle(C, subset) -> bool:
    """A nonempty subset of some maximal face, by a scan of them all."""
    s = frozenset(subset)
    return bool(s) and any(s <= f for f in C.maximal_faces)


def faces_of_dim_at_most(C, i: int) -> list:
    return [f for f in C.faces if len(f) <= i + 1]


def check_simplicial_action_oracle(C, group, act_V) -> None:
    """The vertex action of any finite group must send faces to faces,
    each image tested by ``is_face_oracle``: ``nerve.check_simplicial_action``
    for Z/n rotating residues."""
    for g in group.elements:
        for f in C.maximal_faces:
            image = frozenset(act_V(g, v) for v in f)
            if not is_face_oracle(C, image):
                raise InvalidInput(
                    f"action of {g!r} sends face {sorted(map(repr, f))} outside the complex"
                )


def act_point(act_V, g, mu: SimplicialPoint) -> SimplicialPoint:
    return mu.push(lambda v: act_V(g, v))


def check_equivariance_oracle(f: dict, act_X, act_V, E, eps) -> VerificationReport:
    """Max l1 discrepancy d(f(g.x), g.f(x)) over samples and g in E, for
    any actions on the samples and the vertices: ``nerve.check_equivariance``
    for Z/n rotating residues."""
    eps = Fraction(eps)
    worst = Fraction(0)
    worst_at = None
    for g in E:
        for x, mu in f.items():
            gx = act_X(g, x)
            if gx not in f:
                raise MissingSample(f"sample {gx!r} = {g!r}.{x!r} missing from the table")
            d = l1_distance(f[gx], act_point(act_V, g, mu))
            if d > worst:
                worst = d
                worst_at = (repr(g), repr(x))
    return VerificationReport(
        worst < eps,
        "ok" if worst < eps else "EquivarianceTooWeak",
        f"max discrepancy {worst} vs eps {eps}",
        {"max_discrepancy": str(worst), "eps": str(eps), "worst_at": worst_at},
    )


def l1_distance_oracle(mu: FractionPoint, nu: FractionPoint) -> Fraction:
    total = Fraction(0)
    for v in mu.support() | nu.support():
        total += abs(mu.weights.get(v, Fraction(0)) - nu.weights.get(v, Fraction(0)))
    return total


def outer_radius(i: int) -> Fraction:
    """(5/2) 10^-i, the removed closed-neighborhood radius of level i."""
    return Fraction(5, 2 * 10**i)


def skeleton_mass_oracle(mu, C, i: int) -> Fraction:
    """The largest mass of mu (a ``FractionPoint`` or a ``SimplicialPoint``)
    on one face of dimension <= i, over every maximal face: the top i + 1
    weights on each."""
    w = mu.weights
    best = Fraction(0)
    for f in C.maximal_faces:
        top = sorted((w.get(v, Fraction(0)) for v in f), reverse=True)
        best = max(best, sum(top[: i + 1], Fraction(0)))
    return best


def distance_to_skeleton_oracle(mu, C, i: int) -> Fraction:
    """The l1 distance 2 (1 - skeleton mass) from mu to the i-skeleton."""
    if not is_face_oracle(C, mu.support()):
        raise NotInComplex(f"support {sorted(map(repr, mu.support()))} is not a face")
    if i < 0:
        raise EmptySkeleton("the (-1)-skeleton is empty")
    return 2 * (1 - skeleton_mass_oracle(mu, C, i))


def nice_cover_assign_oracle(mu: FractionPoint, C):
    """Least level i with mu in V_i, and its unique i-simplex piece, by
    comparing ``Fraction`` distances with the radii."""
    if not is_face_oracle(C, mu.support()):
        raise NotInComplex("point is outside the complex")
    for i in range(C.dimension + 1):
        if distance_to_skeleton_oracle(mu, C, i) >= inner_radius(i):
            continue
        if i > 0 and distance_to_skeleton_oracle(mu, C, i - 1) <= outer_radius(i):
            continue
        pieces = [
            delta
            for delta in C.simplices_of_dim(i)
            if 2 * (1 - mu.mass_on(delta)) < inner_radius(i)
        ]
        if len(pieces) != 1:
            raise InvalidInput(
                f"level {i} piece is not unique ({len(pieces)} candidates); "
                "separation violated"
            )
        return i, pieces[0]
    raise InvalidInput("point escaped the cover; levels are inconsistent")


def compositions(total: int, parts: int):
    """Every way to write total as ``parts`` nonnegative integers, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def nerve_certificate_pair_loop(C, den: int) -> dict:
    """The certificate of ``dadim nerve`` from one ``SimplicialPoint`` and
    one ``nice_cover_assign`` call per sample, and one ``l1_distance`` call
    per pair of samples in distinct pieces of a level; the oracle of
    ``dadim.nerve.grid_certificate``."""
    counts: dict = {}
    by_piece: dict = {}
    for face in C.maximal_faces:
        verts = sorted(face, key=repr)
        for combo in compositions(den, len(verts)):
            mu = from_numerators(dict(zip(verts, combo)), den)
            i, delta = nice_cover_assign(mu, C)
            counts[str(i)] = counts.get(str(i), 0) + 1
            by_piece.setdefault((i, delta), []).append(mu)
    seps: dict = {}
    pieces = list(by_piece.items())
    for a, ((i, _), pts) in enumerate(pieces):
        for (j, _), pts2 in pieces[a + 1:]:
            if j == i:
                d = min(l1_distance(mu, nu) for mu in pts for nu in pts2)
                seps[str(i)] = min(seps.get(str(i), d), d)
    return {
        "certified_on": "sample-grid",
        "denominator": den,
        "level_counts": counts,
        "min_cross_piece_separation": {i: rational_str(s) for i, s in seps.items()},
        "samples": sum(counts.values()),
        "separation_ok": all(s >= inner_radius(int(i)) for i, s in seps.items()),
    }


# ---------------------------------------------------------------------------
# BLR: almost-equivariant maps and equivariant covers of X x Gamma


def perturb_to_finite_support(f: dict, act_X, act_V, E, eps, S=None):
    """Push the map into the probability simplex over a finite vertex set S.

    The perturbation budget is delta = min(1, half the worst equivariance
    margin, ``check_equivariance_oracle`` once per g in E); any S whose
    tail mass stays below delta/2 works, and the renormalized map moves
    each value by exactly 2*(1 - T(x)) < delta, so (E, eps)-equivariance
    survives.
    Returns (f', report).
    """
    eps = Fraction(eps)
    margins = [
        eps - Fraction(
            check_equivariance_oracle(f, act_X, act_V, [g], eps).details["max_discrepancy"]
        )
        for g in E
    ]
    delta = min([Fraction(1)] + [m / 2 for m in margins])
    if delta <= 0:
        raise NoFiniteS(f"map is not (E, eps)-equivariant; worst margin {min(margins)}")

    def tail(x, vertex_set) -> Fraction:
        return 1 - mass_on(f[x], vertex_set)

    if S is None:
        # smallest prefix of vertices (by max weight, then repr) with all
        # tails under delta/2; deterministic
        usage: dict = {}
        for mu in f.values():
            for v, t in mu.weights.items():
                usage[v] = max(usage.get(v, Fraction(0)), t)
        chosen: set = set()
        for v in sorted(usage, key=lambda v: (-usage[v], repr(v))):
            if all(tail(x, chosen) < delta / 2 for x in f):
                break
            chosen.add(v)
        S = frozenset(chosen)
    else:
        S = frozenset(S)
    bad = [x for x in f if tail(x, S) >= delta / 2]
    if bad:
        raise NoFiniteS(
            f"tail mass >= delta/2 = {delta / 2} at {len(bad)} samples (first {bad[0]!r})"
        )

    out: dict = {}
    worst_move = Fraction(0)
    for x, mu in f.items():
        kept = {v: k for v, k in mu.num.items() if v in S}
        T = sum(kept.values())
        out[x] = from_numerators(kept, T)
        move = l1_distance(mu, out[x])
        if move != Fraction(2 * (mu.den - T), mu.den):
            raise NoFiniteS(f"renormalizing sample {x!r} moved it by {move}, not 2*(1 - T)")
        worst_move = max(worst_move, move)
    if worst_move >= delta:
        raise NoFiniteS(f"perturbation {worst_move} is not below delta = {delta}")
    report = VerificationReport(
        True, "ok", "finite-support perturbation applied",
        {"delta": str(delta), "max_perturbation": str(worst_move), "support_size": len(S)},
    )
    return out, report


@dataclass
class EquivariantCover:
    """Open cover of X x Gamma (finite model) with the diagonal action
    g.(x, h) = (g.x, g h)."""

    group: object
    space: tuple
    act_X: object
    sets: list

    def act_set(self, g, U: frozenset) -> frozenset:
        return frozenset((self.act_X(g, x), self.group.mult(g, h)) for x, h in U)

    def all_pairs(self):
        return [(x, g) for x in self.space for g in self.group.elements]

    def multiplicity(self) -> int:
        return max(sum(1 for U in self.sets if p in U) for p in self.all_pairs())

    def check_conditions(self, E) -> VerificationReport:
        """Exact verification of the five cover conditions."""
        pairs = self.all_pairs()
        covered = set().union(*self.sets) if self.sets else set()
        if not set(pairs) <= covered:
            raise ConditionViolated("E", "cover misses points of X x Gamma")
        set_index = set(self.sets)
        for U in self.sets:
            for g in self.group.elements:
                gU = self.act_set(g, U)
                if gU not in set_index:
                    raise ConditionViolated("A", "group image of a cover set is not in the cover")
                if gU != U and gU & U:
                    raise ConditionViolated("A", "gU neither equals nor misses U")
        for U in self.sets:
            stab = [g for g in self.group.elements if self.act_set(g, U) == U]
            # finite-subgroup family: closure under mult and inverse
            for a in stab:
                if self.group.inv(a) not in stab:
                    raise ConditionViolated("B", "stabilizer not closed under inverse")
                for b in stab:
                    if self.group.mult(a, b) not in stab:
                        raise ConditionViolated("B", "stabilizer not closed under product")
        mult = self.multiplicity()
        sym_E = self.group.symmetrized(E)
        for g in self.group.elements:
            for x in self.space:
                target = {(x, self.group.mult(g, e)) for e in sym_E}
                if not any(target <= U for U in self.sets):
                    raise ConditionViolated(
                        "E", f"no cover set contains {{x}} x gE at x={x!r}, g={g!r}"
                    )
        return VerificationReport(
            True, "ok", "cover conditions (A)-(E) verified",
            {
                "multiplicity": mult,
                "dimension": mult - 1,
                "sets": len(self.sets),
            },
        )


def cover_from_map(f: dict, E, group, act_X, act_V, C):
    """Pull the skeleton-cover pieces back through phi(x, g) = g.f(g^-1 x).

    Pieces are inflated by the pullback radius r = (1/6)10^-dim so
    membership stays an exact rational predicate; the inflation preserves
    disjointness within a level (the separation margin dominates 2r) and
    can only help the covering condition (E).  Requires f to be
    (E, r)-equivariant.  Returns (cover, report).
    """
    d = C.dimension
    r = Fraction(1, 6 * 10**d)
    check_simplicial_action_oracle(C, group, act_V)
    eq = check_equivariance_oracle(f, act_X, act_V, group.symmetrized(E), r)
    if not eq:
        raise EquivarianceTooWeak(
            f"need (E, {r})-equivariance, measured {eq.details['max_discrepancy']}"
        )
    space = tuple(f.keys())
    phi_table = {
        (x, g): act_point(act_V, g, f[act_X(group.inv(g), x)])
        for x in space for g in group.elements
    }

    def in_inflated_piece(mu, i, delta) -> bool:
        if 2 * (1 - mass_on(mu, delta)) >= inner_radius(i) + r:
            return False
        return i == 0 or distance_to_skeleton_oracle(mu, C, i - 1) > outer_radius(i) - r

    sets = []
    for i in range(d + 1):
        for delta in C.simplices_of_dim(i):
            U = frozenset(p for p, mu in phi_table.items() if in_inflated_piece(mu, i, delta))
            if U and U not in sets:
                sets.append(U)
    cover = EquivariantCover(group, space, act_X, sets)
    report = cover.check_conditions(E)
    if report.details["multiplicity"] > d + 1:
        raise ConditionViolated("C", f"multiplicity {report.details['multiplicity']} > d+1")
    return cover, report


def map_from_cover(cover: EquivariantCover, E, n: int):
    """Nerve map from telescoped indicator sums over cover interiors.

    U^(m) is the set of pairs whose whole {x} x gE^m block stays in U; the
    step functions are indicators of U^(m) (exact in the zero-dimensional
    model), psi_U counts memberships for m = 1..n, and f(x) is the nerve
    point with weights psi_U(x, e)/sum.  The equivariance defect is at most
    (2d+2)(4d+6)/n with d+1 the cover multiplicity.  Returns (f, nerve,
    report).
    """
    if n < 1:
        raise InvalidInput("telescoping depth n must be positive")
    group = cover.group
    sym_E = group.symmetrized(E)
    pairs = cover.all_pairs()

    # E^m balls in the group
    balls = [frozenset({group.unit})]
    for _ in range(n):
        balls.append(frozenset(group.mult(a, e) for a in balls[-1] for e in sym_E))

    interiors = []
    for U in cover.sets:
        interiors.append([U] + [
            frozenset(
                (x, g) for (x, g) in U if all((x, group.mult(g, h)) in U for h in balls[m])
            )
            for m in range(1, n + 1)
        ])
    for m in range(n + 1):
        if not set(pairs) <= set().union(*(lvl[m] for lvl in interiors)):
            raise DepthInsufficient(
                f"E^{m}-interiors do not cover X x Gamma; enlarge the cover or lower n"
            )

    # every E^m-interior level covers, so each pair has n memberships or more
    psi = [{p: sum(1 for m in range(1, n + 1) if p in lvl[m]) for p in pairs} for lvl in interiors]
    totals = {p: sum(ps[p] for ps in psi) for p in pairs}

    # the nerve of the cover: a face per pair, the sets that hold it
    nerve = SimplicialComplex(cover.sets, {frozenset(U for U in cover.sets if p in U) for p in pairs})

    # supp f(x) lies in the face of the pair (x, e), so f(x) is in the nerve
    f = {
        x: from_numerators(
            {U: ps[(x, group.unit)] for U, ps in zip(cover.sets, psi)}, totals[(x, group.unit)]
        )
        for x in cover.space
    }

    # defect: d(f(gx), g f(x)) = sum_U |phi_U(gx, e) - phi_U(gx, g)| with
    # phi_U(p) = psi_U(p)/totals[p], summed over the denominator t1*t2
    dim = cover.multiplicity() - 1
    bound = Fraction((2 * dim + 2) * (4 * dim + 6), n)
    worst = Fraction(0)
    for g in sym_E:
        for x in cover.space:
            gx = cover.act_X(g, x)
            p1, p2 = (gx, group.unit), (gx, g)
            t1, t2 = totals[p1], totals[p2]
            total = sum(abs(ps[p1] * t2 - ps[p2] * t1) for ps in psi)
            worst = max(worst, Fraction(total, t1 * t2))
    report = VerificationReport(
        worst <= bound, "ok" if worst <= bound else "DefectExceeded",
        f"equivariance defect {worst} vs bound {bound}",
        {"defect": str(worst), "bound": str(bound), "dimension": dim, "telescoping_depth": n},
    )
    return f, nerve, report


# ---------------------------------------------------------------------------
# coarse: the least number of families, by exhaustive search


def space_diameter(X) -> int:
    """The diameter of a finite metric space: its largest pairwise distance."""
    return X.subset_diameter(X.points)


def exhaustive_min_colors_with_witness(X, R: int, S: int, max_points: int = 16):
    """(k, witness): the least number of families over all partitions
    satisfying the (R, S) conditions, and an ``AsdimWitness`` with k.

    Classes may be taken to be the R-connected components of each family
    (separation forces components to stay together, and merging components
    only grows diameters), so the search is over family assignments with
    component diameters checked as each point is placed.
    """
    n = len(X.points)
    if n > max_points:
        raise TooLarge(f"exhaustive search capped at {max_points} points")
    if n == 0:
        return 0, AsdimWitness(R, S, [])
    pts = list(X.points)
    dist = [[X.dist(a, b) for b in pts] for a in pts]

    for k in range(1, n + 1):
        assignment = [-1] * n

        def feasible(i: int, fam: int) -> bool:
            # merged component of i within fam must have diameter <= S
            comp = {i}
            frontier = [i]
            while frontier:
                u = frontier.pop()
                for j in range(i):
                    if assignment[j] == fam and j not in comp and dist[u][j] <= R:
                        comp.add(j)
                        frontier.append(j)
            return all(dist[a][b] <= S for a in comp for b in comp)

        def dfs(i: int, used: int) -> bool:
            if i == n:
                return True
            for fam in range(min(used + 1, k)):
                if feasible(i, fam):
                    assignment[i] = fam
                    if dfs(i + 1, max(used, fam + 1)):
                        return True
                    assignment[i] = -1
            return False

        if dfs(0, 0):
            fams = []
            for fam in range(k):
                members = [pts[i] for i in range(n) if assignment[i] == fam]
                comps = _connected_components(
                    ((p, q) for p in members for q in members if X.dist(p, q) <= R), members
                )
                fams.append([frozenset(c) for c in comps])
            return k, AsdimWitness(R, S, fams, meta={"oracle": True})
    raise AssertionError("unreachable: n singleton families always work")


def construct_grid_witness_oracle(X, R: int) -> AsdimWitness:
    """The interval or brick-wall witness of ``construct_grid_witness``,
    point by point through a dict of classes, unverified: two families of
    intervals of length 5R on a 1-D grid, three of bricks of side 10R with
    alternate rows offset by half a brick on a 2-D grid."""
    if isinstance(X, Grid1dSpace):
        L = 5 * R
        classes: dict[int, set] = {}
        for x in X.points:
            classes.setdefault(x // L, set()).add(x)
        fams: list[list[frozenset]] = [[], []]
        for t, cls in sorted(classes.items()):
            fams[t % 2].append(frozenset(cls))
        return AsdimWitness(R, L - 1, fams, meta={"pattern": "intervals", "L": L})
    L = 10 * R
    half = L // 2
    bricks: dict[tuple[int, int], set] = {}
    for p in X.points:
        x, y = p
        r = y // L
        delta = half if r % 2 else 0
        bricks.setdefault((r, (x - delta) // L), set()).add(p)
    fams = [[], [], []]
    for (r, c), cls in sorted(bricks.items()):
        fams[(c + (r + 1) // 2 + r) % 3].append(frozenset(cls))
    return AsdimWitness(R, 2 * (L - 1), fams, meta={"pattern": "bricks", "L": L})


# ---------------------------------------------------------------------------
# group actions


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: its elements, multiplication, inverse and unit.  The
    library's one group is Z/n on its residues; the tests take others to
    reach isotropy and the equivariant covers of X x Gamma."""

    elements: tuple
    mult: "callable" = field(compare=False)
    inv: "callable" = field(compare=False)
    unit: object = None

    def symmetrized(self, E) -> tuple:
        """{unit} u E u E^-1, sorted by repr; InvalidInput for an e of E
        that is not an element."""
        out = {self.unit}
        for e in E:
            if e not in self.elements:
                raise InvalidInput(f"{e!r} is not an element of the group")
            out.add(e)
            out.add(self.inv(e))
        return tuple(sorted(out, key=repr))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(
        elements=tuple(range(n)),
        mult=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        unit=0,
    )


def verify_action_oracle(group, space, act):
    """Exhaustive check that ``act`` is an action of ``group`` on ``space``,
    one call of ``act`` per use, over every (g, h, x) in order."""
    elems = set(group.elements)
    points = set(space)
    for g in group.elements:
        if group.inv(g) not in elems:
            raise NotAnAction(f"group inverse of {g!r} missing")
        for x in space:
            if act(g, x) not in points:
                raise NotAnAction(f"action leaves the space at ({g!r}, {x!r})")
    for x in space:
        if act(group.unit, x) != x:
            raise NotAnAction("identity does not act trivially")
    for g in group.elements:
        for h in group.elements:
            gh = group.mult(g, h)
            if gh not in elems:
                raise NotAnAction("group multiplication escapes the element set")
            for x in space:
                if act(g, act(h, x)) != act(gh, x):
                    raise NotAnAction(f"not an action at ({g!r}, {h!r}, {x!r})")


def action_groupoid_oracle(group, space, act) -> FiniteGroupoid:
    """The transformation groupoid of an action as an explicit groupoid:
    a dict entry per arrow for each structure map, the full composition
    table (g, h.x)(h, x) = (gh, x), and the exhaustive axiom check."""
    space = tuple(space)
    arrows = tuple((g, x) for g in group.elements for x in space)
    range_ = {a: act(*a) for a in arrows}
    return FiniteGroupoid(
        space, arrows,
        source={a: a[1] for a in arrows},
        range_=range_,
        inverse={a: (group.inv(a[0]), range_[a]) for a in arrows},
        compose_table={
            ((g, y), (h, x)): (group.mult(g, h), x)
            for (h, x), y in range_.items() for g in group.elements
        },
        unit_arrow={u: (group.unit, u) for u in space},
        check=True,
    )


def regular_representation_oracle(f, x) -> tuple:
    """(basis, matrix) of pi_x(f) by its definition: the source fiber of x
    sorted by repr, and matrix[i][j] = f(g_i g_j^-1) from one ``compose``
    per entry."""
    G = f.G
    basis = tuple(sorted((g for g in G.arrows if G.source(g) == x), key=repr))
    matrix = []
    for gi in basis:
        row = []
        for gj in basis:
            arrow = G.compose(gi, G.inverse(gj))
            row.append(f.coeffs.get(arrow, (0, 0)) if arrow is not None else (0, 0))
        matrix.append(row)
    return basis, matrix


def cmul(a, b):
    """Product of two (re, im) pairs; exact when they are."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def add(f1: ConvElement, f2: ConvElement) -> ConvElement:
    """f1 + f2, arrow by arrow."""
    out = dict(f1.coeffs)
    for g, c in f2.coeffs.items():
        out[g] = cadd(out.get(g, (0, 0)), c)
    return ConvElement(f1.G, out)


def convolve(f1: ConvElement, f2: ConvElement) -> ConvElement:
    """Groupoid convolution; exact whenever the coefficients are."""
    if f1.G is not f2.G:
        raise GroupoidMismatch("elements live on different groupoids")
    G = f1.G
    by_range: dict = {}
    for h, c in f2.coeffs.items():
        by_range.setdefault(G.range(h), []).append((h, c))
    out: dict = {}
    for g, cg in f1.coeffs.items():
        for h, ch in by_range.get(G.source(g), ()):
            gh = G.compose(g, h)
            if gh is None:
                continue
            out[gh] = cadd(out.get(gh, (0, 0)), cmul(cg, ch))
    return ConvElement(G, out)


def adjoint(f: ConvElement) -> ConvElement:
    """f*(g) = conj(f(g^-1)), the involution of the convolution algebra."""
    return ConvElement(f.G, {f.G.inverse(g): (c[0], -c[1]) for g, c in f.coeffs.items()})


def rep_matrix(rep) -> list:
    """A ``RegularRep`` as rows of (re, im) pairs; exact when f is."""
    return [[rep.values[k] if k >= 0 else (0, 0) for k in row] for row in rep.index.tolist()]


# ---------------------------------------------------------------------------
# the cut-down decomposition on ConvElement dicts, one arrow at a time


def pointwise(f: ConvElement, weight) -> ConvElement:
    """Pointwise product of f with a scalar function on arrows."""
    return ConvElement(f.G, {g: cmul(_cnum(weight(g)), c) for g, c in f.coeffs.items()})


def cutdown(f: ConvElement, phi: dict) -> ConvElement:
    """phi f phi for a real function phi on units, given as a dict (0 where
    absent): coefficients phi(r(g)) f(g) phi(s(g))."""
    G = f.G
    return pointwise(f, lambda g: phi.get(G.range(g), 0) * phi.get(G.source(g), 0))


def commutator_report_oracle(f: ConvElement, phi: dict) -> dict:
    """[f, phi](g) = f(g) (phi(s(g)) - phi(r(g))), its norm, the oscillation
    of phi over supp f, and the bisection-cover constant of supp f; phi as
    for ``cutdown``."""
    G = f.G
    comm = pointwise(f, lambda g: phi.get(G.source(g), 0) - phi.get(G.range(g), 0))
    osc = 0.0
    for g in f.coeffs:
        osc = max(osc, abs(float(phi.get(G.source(g), 0)) - float(phi.get(G.range(g), 0))))
    M, exact = _min_bisection_cover(G, f.support())
    return {
        "commutator": comm,
        "commutator_norm": reduced_norm(comm),
        "oscillation": osc,
        "bisection_count": M,
        "bisection_exact": exact,
        "phi_sup": max((abs(float(phi.get(u, 0))) for u in G.units), default=0.0),
    }


def decompose_oracle(f: ConvElement, pou) -> dict:
    """``convolution.decompose_via_pou`` on ConvElement dicts: phi_i as a
    dict over the units, each cut-down, their sum and the defect as
    elements built arrow by arrow, so the defect keeps the float residues
    of sum_i phi_i^2 - 1 wherever they are nonzero.  ``pou`` is a
    ``SetPou``, whose small subgroupoids come from ``generate_subgroupoid``."""
    G = pou.G
    if f.G is not G:
        raise GroupoidMismatch("element and partition live on different groupoids")
    if not f.support() <= frozenset(pou.K):
        raise InvalidInput("element must be supported in K")

    subgroupoids = pou.small_subgroupoids()
    norm_f = reduced_norm(f)
    phis = [
        {u: pou.phi_float(i, u) for u in G.units} for i in range(pou.d + 1)
    ]

    cutdowns = []
    total = ConvElement(G, {})
    for i, phi in enumerate(phis):
        c = cutdown(f, phi)
        leak = [g for g in c.coeffs if not holds(subgroupoids[i], G, g)]
        if leak:
            raise SupportLeak(
                f"cut-down {i} escapes its small subgroupoid at {sorted(map(repr, leak))[:3]}"
            )
        cutdowns.append(c)
        total = add(total, c)

    defect = reduced_norm(add(total, pointwise(f, lambda g: -1)))
    per_color = []
    bound = 0.0
    for i, phi in enumerate(phis):
        rep = commutator_report_oracle(f, phi)
        blocks = block_decompose(G, subgroupoids[i])
        cut_norm = blocks.max_block_norm(cutdowns[i])
        per_color.append(
            {
                "phi_sup": rep["phi_sup"],
                "commutator_norm": rep["commutator_norm"],
                "oscillation": rep["oscillation"],
                "bisection_count": rep["bisection_count"],
                "bisection_exact": rep["bisection_exact"],
                "commutator_bound": rep["bisection_count"] * rep["oscillation"] * norm_f,
                "block_sizes": blocks.sizes(),
                "cutdown_norm": cut_norm,
                "cutdown_block_norm": cut_norm,
            }
        )
        bound += rep["phi_sup"] * rep["commutator_norm"]

    slack = 1e-7 * max(1.0, norm_f)
    ok = defect <= bound + slack and all(
        pc["commutator_norm"] <= pc["commutator_bound"] + slack for pc in per_color
    )
    return {
        "accepted": bool(ok),
        "norm_f": norm_f,
        "defect": defect,
        "triangle_bound": bound,
        "per_color": per_color,
        "summands": pou.d + 1,
    }


# ---------------------------------------------------------------------------
# block decompositions and partitions of unity, arrow by arrow


def block_decompose_oracle(G, sub=None) -> tuple:
    """(classes, arrow_pos) of ``convolution.block_decompose`` from one scan
    of every arrow of G: an arrow with both endpoints in one block is
    placed at (block, row of its range, column of its source); isotropy
    at a block unit raises NotFree, and so do coordinates that are not
    distinct or do not fill every block."""
    if sub is None:
        sub = BlockArrows(frozenset(G.orbits))
    classes = sorted((tuple(sorted(b, key=repr)) for b in sub.blocks), key=lambda m: repr(m[0]))
    where = {u: (k, i) for k, members in enumerate(classes) for i, u in enumerate(members)}
    arrow_pos: dict = {}
    for g in G.arrows:
        s = where.get(G.source(g))
        r = where.get(G.range(g))
        if s is None or r is None or s[0] != r[0]:
            continue
        if s == r and g != G.unit_arrow(G.source(g)):
            raise NotFree(f"isotropy arrow {g!r} at unit {G.source(g)!r}")
        arrow_pos[g] = (s[0], r[1], s[1])
    if len(set(arrow_pos.values())) != len(arrow_pos) or len(arrow_pos) != len(sub):
        raise NotFree("a block is not inside one orbit: its matrix units are not all arrows")
    return [(m[0], m) for m in classes], arrow_pos


# ---------------------------------------------------------------------------
# partitions of unity on unit sets and dicts: the stages' oracles


@dataclass
class SetTower:
    """``pou.NestedColorTower`` with its levels as frozensets of units."""

    color: int
    levels: list

    @property
    def depth(self) -> int:
        return len(self.levels) - 2

    @property
    def top(self) -> frozenset:
        return self.levels[-1]


@dataclass
class SetPou:
    """``pou.PartitionOfUnity`` as dicts: ``psi[i]`` maps a unit to its
    explicit psi_i value, and ``norm_sq`` maps each unit of their supports
    to max(sum_j psi_j^2, 1)."""

    G: object
    K: frozenset
    towers: list
    N: int
    psi: list
    norm_sq: dict

    @property
    def d(self) -> int:
        return len(self.psi) - 1

    def phi_pair(self, i: int, x) -> tuple:
        return self.psi[i].get(x, Fraction(0)), self.norm_sq.get(x, Fraction(1))

    def phi_float(self, i: int, x) -> float:
        return sqrt_pair_float(*self.phi_pair(i, x))

    def small_subgroupoids(self) -> list:
        """Per color, the subgroupoid generated by the K-arrows inside the
        tower top."""
        return [generate_subgroupoid(self.G, seed_in_color(self.G, self.K, t.top))
                for t in self.towers]


def norm_sq_oracle(psi: list) -> dict:
    """x -> max(sum_j psi_j(x)^2, 1) on the union of the supports."""
    return {
        x: max(sum((p.get(x, Fraction(0)) ** 2 for p in psi), Fraction(0)), Fraction(1))
        for x in set().union(*psi)
    }


def unit_sets(masks) -> list:
    """Boolean arrays over the residues as frozensets of residues."""
    return [frozenset(np.flatnonzero(m).tolist()) for m in masks]


def set_towers(towers) -> list:
    """Array towers as ``SetTower``s."""
    return [SetTower(t.color, unit_sets(t.levels)) for t in towers]


def as_set_pou(pou: PartitionOfUnity) -> SetPou:
    """An array partition of unity as dicts, each psi_i in the order of
    its entries."""
    psi = [
        {x: pou.tuples[pou.tid[x]][i] for x in units.tolist()}
        for i, units in enumerate(pou.entries)
    ]
    return SetPou(pou.G, pou.K, set_towers(pou.towers), pou.N, psi, norm_sq_oracle(psi))


def phi_pair(pou: PartitionOfUnity, i: int, x) -> tuple:
    """(psi_i(x), S_x) of an array partition of unity."""
    t = pou.tuples[pou.tid[x]]
    return t[i], t[-1]


def phi_float(pou: PartitionOfUnity, i: int, x) -> float:
    return sqrt_pair_float(*phi_pair(pou, i, x))


def block_labels(q: int, gen) -> np.ndarray:
    """The blocks of a ``BlockArrows`` on Z/q as ``pou``'s component
    labels: each residue's least block mate, -1 off every block."""
    out = np.full(q, -1, np.intp)
    for b in gen.blocks:
        out[list(b)] = min(b)
    return out


def symmetrize_arrows(G, K):
    """K u K^-1 u unit arrows of all endpoints of K."""
    out = set(K)
    for a in K:
        out.add(G.inverse(a))
        out.add(G.unit_arrow(G.source(a)))
        out.add(G.unit_arrow(G.range(a)))
    return frozenset(out)


def endpoint_units(G, K) -> frozenset:
    """s(K) u r(K), one scan of K."""
    return frozenset(u for a in K for u in (G.source(a), G.range(a)))


def _propagate_oracle(G, K, units):
    """units u s(K cap r^-1(units)), one scan of K."""
    return frozenset(units) | {G.source(a) for a in K if G.range(a) in units}


def in_envelope_oracle(G, K, G_i, gen) -> bool:
    """gen <= K . G_i . K read from the blocks, with each unit's reach
    scanned off a symmetrized K."""
    reach: dict = {}
    for a in K:
        k = block_label(G_i).get(G.range(a))
        if k is not None:
            reach.setdefault(G.source(a), set()).add(k)
    return all(
        not reach.get(x, set()).isdisjoint(reach.get(y, ()))
        for b in gen.blocks for x in b for y in b
    )


def arrow_set_power(G, K, p: int):
    """K^p as a set of arrows, one ``compose`` per composable pair (K
    assumed symmetrized so powers nest)."""
    by_range: dict = {}
    for b in K:
        by_range.setdefault(G.range(b), []).append(b)
    out = cur = frozenset(K)
    for _ in range(p - 1):
        cur = frozenset(
            c for a in cur for b in by_range.get(G.source(a), ())
            if (c := G.compose(a, b)) is not None
        )
        out |= cur
    return out


def enlarge_cover_oracle(G, K, colors, size_bound):
    """``pou.enlarge_cover`` symmetrizing K itself and rescanning it for
    the endpoints of K and of K^3, the partial orbits and each reach."""
    if not G.is_free():
        raise NotFree("cover enlargement needs a free groupoid")
    K = symmetrize_arrows(G, K)
    K3 = arrow_set_power(G, K, 3)
    base = endpoint_units(G, K)
    base3 = endpoint_units(G, K3)
    covered = frozenset().union(*colors) if colors else frozenset()
    if not base3 <= covered:
        raise WitnessInsufficient(
            f"colors do not cover r(K^3) u s(K^3); {len(base3 - covered)} units missing"
        )
    G_is = []
    for i, color in enumerate(colors):
        gen = generate_subgroupoid(G, seed_in_color(G, K3, color))
        if size_bound is not None and len(gen) > size_bound:
            raise WitnessInsufficient(
                f"color {i} generates {len(gen)} arrows for K^3 > bound {size_bound}"
            )
        G_is.append(gen)
    partial = {x: {G.source(a) for a in K if G.range(a) == x} for x in base}
    enlarged = [
        frozenset().union(*(partial.get(x, ()) for x in color)) & base for color in colors
    ]
    orbit_fail = [x for x in base if not any(partial[x] <= u for u in enlarged)]
    if orbit_fail:
        raise WitnessInsufficient(
            f"partial orbits not contained in a single color at {orbit_fail[:3]!r}"
        )
    gen_sizes = []
    for i, u in enumerate(enlarged):
        gen = generate_subgroupoid(G, seed_in_color(G, K, u))
        if not in_envelope_oracle(G, K, G_is[i], gen):
            raise WitnessInsufficient(f"color {i}: generated subgroupoid escapes K.G_i.K")
        gen_sizes.append(len(gen))
    report = VerificationReport(
        True, "ok", "cover enlarged; partial orbits contained",
        {
            "generated_sizes_k3": [len(g) for g in G_is],
            "generated_sizes": gen_sizes,
            "enlarged_sizes": [len(u) for u in enlarged],
        },
    )
    return enlarged, report


def build_tower_oracle(G, K, colors, N, size_bound):
    """``pou.build_tower`` symmetrizing K itself and scanning it once per
    level and color."""
    if N < 1:
        raise InvalidInput("tower depth N must be positive")
    K = symmetrize_arrows(G, K)
    base = endpoint_units(G, K)
    covered = frozenset().union(*colors) if colors else frozenset()
    if not base <= covered:
        raise TowerInvalid(f"colors do not cover r(K) u s(K); {len(base - covered)} units missing")
    towers = []
    for i, color in enumerate(colors):
        levels = [frozenset(color)]
        for _ in range(N + 1):
            levels.append(_propagate_oracle(G, K, levels[-1]))
        towers.append(SetTower(i, levels))
    if size_bound is not None:
        for t in towers:
            gen = generate_subgroupoid(G, seed_in_color(G, K, t.top))
            if len(gen) > size_bound:
                raise PropagationEscapesColor(
                    f"color {t.color}: top level generates {len(gen)} arrows "
                    f"> bound {size_bound}; witness inadequate for depth {N}"
                )
    return towers


def build_pou_oracle(G, K, towers):
    """``pou.build_pou`` on ``SetTower``s, symmetrizing K itself: psi
    counts the levels below N holding a unit, norm_sq is
    max(sum_j psi_j^2, 1) on their supports."""
    K = symmetrize_arrows(G, K)
    if not towers:
        raise TowerInvalid("need at least one tower")
    N = towers[0].depth
    if N < 3:
        raise TowerInvalid("averaging depth must satisfy N >= 3")
    if any(t.depth != N for t in towers):
        raise TowerInvalid("towers have mismatched depths")
    psi = []
    for t in towers:
        counts = {x: sum(1 for n in range(1, N + 1) if x in t.levels[n - 1]) for x in t.top}
        psi.append({x: Fraction(c, N) for x, c in counts.items() if c})
    for x in endpoint_units(G, K):
        if not any(p.get(x) == 1 for p in psi):
            raise TowerInvalid(f"no step function equals 1 at {x!r}; base cover broken")
    return SetPou(G, K, towers, N, psi, norm_sq_oracle(psi))


def verify_pou_oracle(G, K, pou, eps=None) -> VerificationReport:
    """``pou.verify_pou`` on a ``SetPou``, with the step and oscillation
    checks decided afresh on every (arrow, color), walking K as given."""
    base = endpoint_units(G, K)
    d, N = pou.d, pou.N
    for i, p in enumerate(pou.psi):
        for x, v in p.items():
            if not 0 <= v <= 1:
                return VerificationReport(
                    False, "StepValueOutOfRange", f"psi_{i} = {v} outside [0, 1] at {x!r}",
                    {"color": i, "unit": repr(x), "value": str(v)},
                )
    for i, t in enumerate(pou.towers):
        for x, v in pou.psi[i].items():
            if v > 0 and x not in t.top:
                return VerificationReport(
                    False, "SupportViolation", f"phi_{i} positive outside its color at {x!r}",
                    {"color": i, "unit": repr(x)},
                )
    for x in base:
        total = sum((p.get(x, Fraction(0)) ** 2 for p in pou.psi), Fraction(0))
        if total / pou.norm_sq.get(x, Fraction(1)) != 1:
            return VerificationReport(
                False, "NormalizationDefect", f"sum phi_i^2 != 1 at {x!r}", {"unit": repr(x)},
            )
        if sum((p.get(x, Fraction(0)) for p in pou.psi), Fraction(0)) < 1:
            return VerificationReport(
                False, "NormalizationDefect", f"sum psi_i < 1 at {x!r}", {"unit": repr(x)},
            )
    step_bound = Fraction(2, N)
    max_osc_float = 0.0
    for a in K:
        sx, rx = G.source(a), G.range(a)
        for i in range(d + 1):
            ps, Ss = pou.phi_pair(i, sx)
            pr, Sr = pou.phi_pair(i, rx)
            if abs(ps - pr) > step_bound:
                return VerificationReport(
                    False, "StepBoundViolation",
                    f"|psi_{i}(s) - psi_{i}(r)| > 2/N on arrow {a!r}",
                    {"arrow": repr(a), "color": i},
                )
            if eps is None:
                ok = diff_lt_osc_bound(ps, Ss, pr, Sr, d, N)
            else:
                ok = diff_lt_rational(ps, Ss, pr, Sr, Fraction(eps))
            if not ok:
                return VerificationReport(
                    False, "OscillationExceeded",
                    f"|phi_{i}(s(g)) - phi_{i}(r(g))| too large on arrow {a!r}",
                    {"arrow": repr(a), "color": i},
                )
            max_osc_float = max(
                max_osc_float, abs(sqrt_pair_float(ps, Ss) - sqrt_pair_float(pr, Sr))
            )
    return VerificationReport(
        True, "ok", "partition of unity verified",
        {
            "max_oscillation_float": max_osc_float,
            "bound_float": osc_bound_float(d, N) if eps is None else float(eps),
            "d": d,
            "N": N,
        },
    )


# the stages of ``run_pipeline`` with their hand-written links, as the
# two-step chain recorded them: (kind, inputs, outputs)
PIPELINE_LINKS = [
    ("system", {}, {"system": "01_system.json"}),
    ("witness", {"system": "01_system.json"}, {"witness": "02_witness.json"}),
    ("groupoid", {"witness": "02_witness.json"},
     {"groupoid_witness": "03_groupoid_witness.json"}),
    ("enlarge", {"groupoid_witness": "03_groupoid_witness.json"},
     {"enlarged": "04_enlarged.json"}),
    ("tower", {"enlarged": "04_enlarged.json"}, {"towers": "05_towers.json"}),
    ("pou", {"towers": "05_towers.json"}, {"pou": "06_pou.json"}),
    ("decompose", {"pou": "06_pou.json"}, {"decomposition": "07_decomposition.json"}),
]


class TwoStepChain:
    """``certify.CertificateChain`` as a caller first wrote each artifact
    and ``add_stage`` then hashed every input and output again from disk."""

    def __init__(self, directory):
        self.directory = directory
        self.stages: list[dict] = []

    def add_stage(self, kind: str, inputs: dict, outputs: dict, status: str, details=None):
        self.stages.append(
            {
                "index": len(self.stages),
                "kind": kind,
                "inputs": {name: file_hash(self.directory / p) for name, p in inputs.items()},
                "input_files": {name: str(p) for name, p in inputs.items()},
                "outputs": {name: file_hash(self.directory / p) for name, p in outputs.items()},
                "output_files": {name: str(p) for name, p in outputs.items()},
                "status": status,
                "details": details or {},
            }
        )
