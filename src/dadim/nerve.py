"""Probability simplices with the l1 metric, in exact rational arithmetic.

Points are finitely supported probability vectors; a complex is given by
its maximal faces.  The skeleton-neighborhood cover splits each complex
into levels

    V_i = N_{(1/3)10^-i}(C_i) minus the closed (5/2)10^-i-neighborhood
          of C_{i-1},

whose per-simplex pieces are pairwise (1/3)10^-i-separated; membership is
decided by exact inequalities because the distance from a point to the
simplex on a vertex set D has the closed form 2*(1 - mass on D).

``grid_certificate`` checks the cover on the barycentric grid of one
denominator.  Every sample is a row of one int64 numerator matrix (one
column per vertex); the skeleton mass at level i is the largest sum of
i + 1 numerators on one maximal face, so levels and pieces are column
sorts and sums, and the least cross-piece separation of a level is a
chunked minimum of row-wise sums |a - b|, one ``Fraction`` at the end.
It refuses with ``TooLarge`` a grid of more than ``MAX_GRID_ENTRIES``
matrix entries before allocating it, and more than
``MAX_SEPARATION_PAIRS`` cross-piece sample pairs before forming any
difference.  ``nice_cover_assign`` and ``l1_distance`` decide the same
predicates one point at a time.

A complex finds faces through a vertex index: a face test looks the
subset up among the maximal faces, and otherwise reads only the maximal
faces at its vertex of least degree.  The skeleton mass of a point of
the complex reads no face at all: its support is a face, so the largest
mass on a face of dimension <= i is that of its i + 1 heaviest vertices.

The one group is Z/n, rotating residues: ``check_equivariance`` moves
samples and vertices by g -> x + g mod n and refuses with
``NotAnAction`` a sample or vertex outside 0..n-1, and
``check_simplicial_action`` does the same for the complex's vertices.
``dad_witness_from_blr`` (``dadim blr-check --witness``) turns an
almost-equivariant map into a groupoid witness on the Z/n rotation G of
the residues that the caller built, with the equivariance read from the
caller's one ``check_equivariance`` report, so it measures no
discrepancy itself.  It costs O(|G| F deg) face checks, F the maximal
faces and deg the most of them at one vertex; building G costs O(n).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .certify import rational_str
from .coarse import _DIFF_CHUNK
from .errors import (
    EquivarianceTooWeak,
    InvalidInput,
    MissingSample,
    NotAnAction,
    NotInComplex,
    TooLarge,
)
from .groupoid import (
    GroupoidDadWitness,
    TransformationGroupoid,
    _seeds,
    generate_subgroupoid,
    verify_groupoid_dad,
)
from .reporting import VerificationReport

__all__ = [
    "SimplicialPoint",
    "SimplicialComplex",
    "l1_distance",
    "nice_cover_assign",
    "grid_certificate",
    "check_equivariance",
    "check_simplicial_action",
    "dad_witness_from_blr",
    "inner_radius",
]

Rat = Fraction

# grid_certificate's caps: entries of the sample matrix, and sample pairs
# in distinct pieces of one level
MAX_GRID_ENTRIES = 10**7
MAX_SEPARATION_PAIRS = 10**8


def inner_radius(i: int) -> Rat:
    """(1/3) 10^-i, the open-neighborhood radius of level i."""
    return Fraction(1, 3 * 10**i)


# ---------------------------------------------------------------------------
# points and complexes


class SimplicialPoint:
    """Finitely supported probability vector with exact rational weights.

    A point is stored as positive integer numerators ``num`` over one
    denominator ``den``, in lowest terms (the gcd of ``den`` and all
    numerators is 1), so equal points have equal fields.  ``weights`` is
    the same point as a dict of ``Fraction``s.
    """

    __slots__ = ("num", "den")

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
        # over the lcm of reduced denominators the numerators are coprime
        # to it, so the point is in lowest terms
        den = math.lcm(*(t.denominator for t in w.values()))
        self.num = {v: t.numerator * (den // t.denominator) for v, t in w.items()}
        self.den = den

    @classmethod
    def _reduced(cls, num: dict, den: int) -> "SimplicialPoint":
        """Positive numerators summing to ``den``, brought to lowest terms."""
        g = math.gcd(den, *num.values())
        mu = object.__new__(cls)
        mu.num = num if g == 1 else {v: k // g for v, k in num.items()}
        mu.den = den // g
        return mu

    @property
    def weights(self) -> dict:
        return {v: Fraction(k, self.den) for v, k in self.num.items()}

    def support(self) -> frozenset:
        return frozenset(self.num)

    def _mass_num(self, vertices) -> int:
        return sum(k for v, k in self.num.items() if v in vertices)

    def push(self, vertex_map) -> "SimplicialPoint":
        out: dict = {}
        for v, k in self.num.items():
            u = vertex_map(v)
            out[u] = out.get(u, 0) + k
        return SimplicialPoint._reduced(out, self.den)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialPoint)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def __repr__(self):
        inner = ", ".join(f"{v!r}: {t}" for v, t in sorted(self.weights.items(), key=lambda kv: repr(kv[0])))
        return "SimplicialPoint({" + inner + "})"

    def to_json(self) -> dict:
        return {repr(v): str(t) for v, t in sorted(self.weights.items(), key=lambda kv: repr(kv[0]))}


def l1_distance(mu: SimplicialPoint, nu: SimplicialPoint) -> Rat:
    """Exact l1 distance sum_v |mu(v) - nu(v)| = 2 (1 - sum_v min(mu(v), nu(v))).

    Over the common denominator D the overlap is a sum of integer minima.
    """
    a, b = mu.num, nu.num
    if mu.den == nu.den:
        D = mu.den
        overlap = sum(min(k, b[v]) for v, k in a.items() if v in b)
    else:
        D = math.lcm(mu.den, nu.den)
        sa, sb = D // mu.den, D // nu.den
        overlap = sum(min(k * sa, b[v] * sb) for v, k in a.items() if v in b)
    return Fraction(2 * (D - overlap), D)


def _vertex_index(faces) -> dict:
    """vertex -> the faces that contain it, in the order of ``faces``."""
    at: dict = {}
    for f in faces:
        for v in f:
            at.setdefault(v, []).append(f)
    return at


class SimplicialComplex:
    """Vertex set plus maximal faces; faces are all their subsets.

    ``_maximal`` holds the maximal faces as a set, and ``_at`` maps each
    vertex to the maximal faces at it, in ``maximal_faces`` order.
    """

    def __init__(self, vertices, maximal_faces):
        self.vertices = frozenset(vertices)
        faces = list({frozenset(f) for f in maximal_faces})
        for f in faces:
            if not f <= self.vertices:
                raise InvalidInput("face uses unknown vertices")
        # keep only inclusion-maximal faces; lone vertices count as 0-faces.
        # A face inside g shares all its vertices with g, so it is compared
        # only with the faces at its vertex of least degree.
        covered = set().union(*faces) if faces else set()
        for v in self.vertices - covered:
            faces.append(frozenset({v}))
        at = _vertex_index(faces)
        self.maximal_faces = tuple(
            f for f in faces
            if not any(f < g for g in (min((at[v] for v in f), key=len) if f else faces))
        )
        if not self.maximal_faces:
            raise InvalidInput("complex needs at least one vertex")
        self.dimension = max(len(f) for f in self.maximal_faces) - 1
        self._maximal = frozenset(self.maximal_faces)
        self._at = _vertex_index(self.maximal_faces)

    def is_face(self, subset) -> bool:
        """A maximal face, or a nonempty subset of one at its vertex of
        least degree."""
        s = frozenset(subset)
        if s in self._maximal:
            return bool(s)  # the one maximal face of a complex without vertices is empty
        faces = None
        for v in s:
            at_v = self._at.get(v)
            if at_v is None:
                return False
            if faces is None or len(at_v) < len(faces):
                faces = at_v
        return faces is not None and any(s <= f for f in faces)

    @cached_property
    def faces(self) -> tuple[frozenset, ...]:
        """Every face once, in order of first appearance: by maximal face,
        then by size, then in ``itertools.combinations`` order over the
        face's vertices sorted by repr."""
        out: dict = {}
        for f in self.maximal_faces:
            for k in range(1, len(f) + 1):
                for sub in itertools.combinations(sorted(f, key=repr), k):
                    out.setdefault(frozenset(sub))
        return tuple(out)

    def simplices_of_dim(self, i: int) -> list[frozenset]:
        return [f for f in self.faces if len(f) == i + 1]

    def contains(self, mu: SimplicialPoint) -> bool:
        return self.is_face(mu.support())


def _skeleton_mass(mu: SimplicialPoint, i: int) -> int:
    """Numerator of the largest mass mu puts on one face of dimension <= i,
    for mu in the complex.

    A face D carries the mass of D cap supp mu, which is itself a face of
    dimension <= i because supp mu is a face.  So the largest mass is that
    of the i + 1 heaviest vertices of mu, and no face needs to be read.
    """
    return sum(sorted(mu.num.values(), reverse=True)[: i + 1])


# ---------------------------------------------------------------------------
# skeleton-neighborhood ("nice") cover
#
# With m the numerator over den of the mass on a face, the distance is
# d = 2 (den - m) / den, and the radius tests are integer comparisons on
# the gap g = den - m:
#   d < (1/3) 10^-i  <=>  6 10^i g < den    <=>  g < ceil(den / (6 10^i)),
#   d > (5/2) 10^-i  <=>  4 10^i g > 5 den  <=>  g > floor(5 den / (4 10^i)),
# with both bounds Python ints, so no int64 product carries 10^i.


def _radius_thresholds(den: int, i: int) -> tuple[int, int]:
    """The inner and outer gap bounds of level i over denominator den."""
    return -(-den // (6 * 10**i)), 5 * den // (4 * 10**i)


def _level_membership(mu: SimplicialPoint, i: int) -> bool:
    """mu in V_i; the caller has checked that mu lies in the complex."""
    inner, outer = _radius_thresholds(mu.den, i)
    if mu.den - _skeleton_mass(mu, i) >= inner:
        return False
    return i == 0 or mu.den - _skeleton_mass(mu, i - 1) > outer


def nice_cover_assign(mu: SimplicialPoint, C: SimplicialComplex):
    """Least level i with mu in V_i, and the unique i-simplex piece.

    A piece carries positive mass, so it meets supp mu and lies in a
    maximal face at one of its vertices: only those faces' i-simplices
    are tried.
    """
    if not C.contains(mu):
        raise NotInComplex("point is outside the complex")
    for i in range(C.dimension + 1):
        if _level_membership(mu, i):
            inner, _ = _radius_thresholds(mu.den, i)
            pieces = {
                delta
                for v in mu.num
                for g in C._at[v]
                for delta in map(frozenset, itertools.combinations(g, i + 1))
                if mu.den - mu._mass_num(delta) < inner
            }
            if len(pieces) != 1:
                raise InvalidInput(
                    f"level {i} piece is not unique ({len(pieces)} candidates); "
                    "separation violated"
                )
            return i, next(iter(pieces))
    raise InvalidInput("point escaped the cover; levels are inconsistent")


# ---------------------------------------------------------------------------
# the cover on a barycentric sample grid


def _compositions(den: int, parts: int) -> np.ndarray:
    """Every way to write den as ``parts`` nonnegative integers, one row
    each, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([den], dtype=np.int64)
    for _ in range(parts - 1):
        reps = rest + 1
        head = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack((np.repeat(rows, reps, axis=0), head))
        rest = np.repeat(rest, reps) - head
    return np.column_stack((rows, rest))


def _skeleton_masses(M: np.ndarray, faces: list, dim: int) -> np.ndarray:
    """Row i: each sample's largest numerator sum on one face of dimension
    <= i, the sum of the top i + 1 numerators of some maximal face."""
    mass = np.zeros((dim + 1, len(M)), dtype=np.int64)
    for cols in faces:
        face = M[:, cols]
        face.sort(axis=1)
        top = np.zeros(len(M), dtype=np.int64)
        for i in range(dim + 1):
            if i < len(cols):
                top += face[:, -1 - i]
            np.maximum(mass[i], top, out=mass[i])
    return mass


def _levels(M: np.ndarray, faces: list, den: int, dim: int) -> np.ndarray:
    """Each sample's least level i with the sample in V_i, or -1."""
    mass = _skeleton_masses(M, faces, dim)
    level = np.full(len(M), -1)
    for i in range(dim + 1):
        inner, outer = _radius_thresholds(den, i)
        member = (level < 0) & (den - mass[i] < inner)
        if i:
            member &= den - mass[i - 1] > outer
        level[member] = i
    return level


def grid_certificate(C: SimplicialComplex, den: int) -> dict:
    """The skeleton cover of C checked on every point with weights in (1/den)Z.

    The samples are taken per maximal face, in ``C.maximal_faces`` order:
    the compositions of den over the face's vertices sorted by repr, in
    lexicographic order.  A point on a shared face is sampled once per
    maximal face, and the counts include the repeats.  A sample without a
    level or with more than one piece raises ``InvalidInput`` with
    ``nice_cover_assign``'s message, for the first such sample.

    The certificate gives the samples per occupied level and, for each
    level with two pieces or more, the least l1 distance between samples
    of distinct pieces, which must reach the level's inner radius.
    """
    try:
        den = operator.index(den)
    except TypeError:
        raise InvalidInput(f"denominator {den!r} is not an integer") from None
    if den < 1:
        raise InvalidInput(f"denominator {den} is not positive")
    if den >= 2**61:
        raise TooLarge(f"denominator {den} does not fit the int64 sample matrix")
    verts = sorted(C.vertices, key=repr)
    column = {v: j for j, v in enumerate(verts)}
    faces = [[column[v] for v in sorted(f, key=repr)] for f in C.maximal_faces]
    sizes = [math.comb(den + len(cols) - 1, len(cols) - 1) for cols in faces]
    samples = sum(sizes)
    if samples * len(verts) > MAX_GRID_ENTRIES:
        raise TooLarge(
            f"{samples} samples x {len(verts)} vertices exceed "
            f"MAX_GRID_ENTRIES = {MAX_GRID_ENTRIES}"
        )
    M = np.zeros((samples, len(verts)), dtype=np.int64)
    start = 0
    for cols, n in zip(faces, sizes):
        M[start:start + n, cols] = _compositions(den, len(cols))
        start += n

    dim = C.dimension
    level = _levels(M, faces, den, dim)
    piece = np.full(len(M), -1)
    candidates = np.zeros(len(M), dtype=np.int64)
    piece_level = []
    for i in range(dim + 1):
        inner, _ = _radius_thresholds(den, i)
        rows = np.flatnonzero(level == i)
        for delta in C.simplices_of_dim(i):
            on_delta = sum(M[rows, column[v]] for v in delta)
            hit = rows[den - on_delta < inner]
            candidates[hit] += 1
            piece[hit] = len(piece_level)
            piece_level.append(i)
    bad = np.flatnonzero(candidates != 1)
    if len(bad):
        r = bad[0]
        if level[r] < 0:
            raise InvalidInput("point escaped the cover; levels are inconsistent")
        raise InvalidInput(
            f"level {level[r]} piece is not unique ({candidates[r]} candidates); "
            "separation violated"
        )

    # the rows of each piece, grouped by level
    order = np.argsort(piece, kind="stable")
    ends = np.cumsum(np.bincount(piece, minlength=len(piece_level)))
    by_level: dict = {}
    for i, rows in zip(piece_level, np.split(order, ends[:-1])):
        if len(rows):
            by_level.setdefault(i, []).append(rows)
    pairs = sum(
        (sum(map(len, pieces)) ** 2 - sum(len(r) ** 2 for r in pieces)) // 2
        for pieces in by_level.values()
    )
    if pairs > MAX_SEPARATION_PAIRS:
        raise TooLarge(
            f"{pairs} cross-piece sample pairs exceed "
            f"MAX_SEPARATION_PAIRS = {MAX_SEPARATION_PAIRS}"
        )
    separation = {}
    for i, pieces in by_level.items():
        if len(pieces) < 2:
            continue
        used = np.flatnonzero(M[np.concatenate(pieces)].any(axis=0))
        blocks = [M[np.ix_(rows, used)] for rows in pieces]
        best = 2 * den
        # each piece against the union of the later ones, in row chunks
        for a in range(len(blocks) - 1):
            A, B = blocks[a], np.concatenate(blocks[a + 1:])
            step = max(1, _DIFF_CHUNK // len(B))
            for s in range(0, len(A), step):
                chunk = A[s:s + step]
                dist = np.zeros((len(chunk), len(B)), dtype=np.int64)
                diff = np.empty_like(dist)
                for c in range(len(used)):
                    np.subtract(chunk[:, c, None], B[None, :, c], out=diff)
                    dist += np.abs(diff, out=diff)
                best = min(best, int(dist.min()))
        separation[i] = Fraction(best, den)
    counts = np.bincount(level, minlength=dim + 1)
    return {
        "denominator": den,
        "samples": samples,
        "level_counts": {str(i): int(n) for i, n in enumerate(counts) if n},
        "min_cross_piece_separation": {
            str(i): rational_str(sep) for i, sep in separation.items()
        },
        "separation_ok": all(sep >= inner_radius(i) for i, sep in separation.items()),
        "certified_on": "sample-grid",
    }


# ---------------------------------------------------------------------------
# Z/n rotating residues, and equivariance


def _residues(labels, n: int, what: str, error=NotAnAction) -> None:
    """``error`` unless every label is an integer in 0..n-1 (a bool is not
    one): Z/n acts by rotating the residues mod n.  A point outside the
    action is NotAnAction; ``cli`` reads a colors file with InvalidInput."""
    bad = [v for v in labels if type(v) is not int or not 0 <= v < n]
    if bad:
        raise error(f"{what} {sorted(bad, key=repr)[:3]} are not residues mod {n}")


def check_simplicial_action(C: SimplicialComplex, n: int) -> None:
    """Z/n rotating the vertices, residues mod n, must send faces to faces
    (hence act isometrically).  Z/n is generated by 1, so it is enough
    that rotation by 1 sends every maximal face to a face: then it sends
    every face to a face, and so does each of its powers."""
    _residues(C.vertices, n, "complex vertices")
    for f in C.maximal_faces:
        image = frozenset((v + 1) % n for v in f)
        if not C.is_face(image):
            raise InvalidInput(
                f"action of 1 sends face {sorted(map(repr, f))} outside the complex"
            )


def check_equivariance(f: dict, n: int, E, eps: Rat) -> VerificationReport:
    """Max l1 discrepancy d(f(g + x), g.f(x)) over samples x and g in E,
    Z/n rotating both the samples and the vertices; NotAnAction for a
    sample or a vertex that is not a residue mod n."""
    _residues(f, n, "samples")
    _residues({v for mu in f.values() for v in mu.num}, n, "map vertices")
    eps = Fraction(eps)
    worst = Fraction(0)
    worst_at = None
    for g in E:
        for x, mu in f.items():
            gx = (x + g) % n
            if gx not in f:
                raise MissingSample(f"sample {gx!r} = {g!r}.{x!r} missing from the table")
            d = l1_distance(f[gx], mu.push(lambda v: (v + g) % n))
            if d > worst:
                worst = d
                worst_at = (repr(g), repr(x))
    return VerificationReport(
        worst < eps,
        "ok" if worst < eps else "EquivarianceTooWeak",
        f"max discrepancy {worst} vs eps {eps}",
        {"max_discrepancy": str(worst), "eps": str(eps), "worst_at": worst_at},
    )


# ---------------------------------------------------------------------------
# witness from an almost-equivariant map


@dataclass
class BlrWitnessResult:
    colors: list[frozenset]
    moving_set: frozenset  # {g : gS cap S nonempty}
    groupoid_witness: GroupoidDadWitness
    report: VerificationReport


def dad_witness_from_blr(
    f: dict, E, C: SimplicialComplex, G: TransformationGroupoid, eq: VerificationReport
) -> BlrWitnessResult:
    """Witness colors U_i = f^{-1}(V_i) for an (E, (1/3)10^-d)-equivariant map.

    ``G`` is the Z/n rotation of the residues 0..n-1, E is read in Z/n
    (``G.moves``), and ``eq`` is ``check_equivariance``'s report on f over
    ``symmetrized(n, E)``; its max discrepancy does not depend on the eps
    it was measured against.  The element sets are confined to
    F = {g : gS cap S != empty} with S the union of the supports of f;
    verified on G.  Samples that are not the residues raise
    ``NotAnAction``.
    """
    d = C.dimension
    n = G.n
    check_simplicial_action(C, n)
    if Fraction(eq.details["max_discrepancy"]) >= inner_radius(d):
        raise EquivarianceTooWeak(
            f"measured equivariance {eq.details['max_discrepancy']} >= (1/3)10^-{d}"
        )
    # vertex stabilizers must be finite subgroups: automatic here, recorded
    S = frozenset().union(*(mu.support() for mu in f.values()))
    F = frozenset(g for g in range(n) if any((v + g) % n in S for v in S))

    space = tuple(f.keys())
    for mu in f.values():
        if not C.contains(mu):
            raise NotInComplex(f"support {sorted(map(repr, mu.support()))} is not a face")
    colors = []
    for i in range(d + 1):
        colors.append(frozenset(x for x in space if _level_membership(f[x], i)))
    uncovered = set(space) - set().union(*colors)
    if uncovered:
        raise InvalidInput("levels failed to cover the samples; complex inconsistent")

    if G.unit_set != set(space):
        raise NotAnAction(
            f"the {len(space)} samples are not the {n} residues the group acts on"
        )
    K = G.moves(E)
    generated = []
    for seed in _seeds(G, K, colors):
        gen = generate_subgroupoid(G, seed)
        parts = G.group_parts(gen)
        if not parts <= F:
            raise InvalidInput(
                f"generated elements {sorted(map(repr, parts - F))[:3]} escape the moving set"
            )
        generated.append(gen)
    witness = GroupoidDadWitness(K, colors, generated, meta={"moving_set_size": len(F)})
    size_bound = len(F) * len(space)
    report = verify_groupoid_dad(G, witness, size_bound)
    return BlrWitnessResult(colors, F, witness, report)
