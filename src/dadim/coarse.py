"""Finite metric spaces and single-scale asymptotic-dimension witnesses.

A witness at scale (R, S) is a cover by d+1 families of classes such that
distinct classes within a family are more than R apart and every class has
diameter at most S.  The artifact certifies one scale at a time and never
claims the asymptotic limit.  ``bridge_to_groupoid`` translates a verified
witness into a groupoid witness over the pair groupoid of the tube of
radius S, realizing the coarse-groupoid correspondence at finite scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, TooLarge, VerificationFailed
from .groupoid import (
    BlockArrows,
    GroupoidDadWitness,
    TubeArrows,
    TubePairGroupoid,
    _connected_components,
    verify_groupoid_dad,
)
from .reporting import VerificationReport

__all__ = [
    "FiniteMetricSpace",
    "TableMetricSpace",
    "Grid1dSpace",
    "Grid2dSpace",
    "GroupBallSpace",
    "AsdimWitness",
    "verify_asdim_witness",
    "construct_grid_witness",
    "exhaustive_min_colors",
    "bridge_to_groupoid",
    "space_from_json",
    "asdim_witness_from_json",
]

class FiniteMetricSpace:
    """Finite point set with an exact integer metric."""

    points: tuple

    def dist(self, x, y) -> int:
        raise NotImplementedError

    def iter_ball(self, x, radius: int):
        """All points within the given radius of x (including x)."""
        for y in self.points:
            if self.dist(x, y) <= radius:
                yield y

    def subset_diameter(self, subset) -> int:
        pts = list(subset)
        best = 0
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                d = self.dist(x, y)
                if d > best:
                    best = d
        return best

    def diameter(self) -> int:
        return self.subset_diameter(self.points)

    def check_metric_axioms(self):
        """Zero diagonal, symmetry, positivity off the diagonal and the
        triangle inequality, all checked exhaustively on the distance matrix
        in vectorized integer arithmetic (n^3 comparisons)."""
        n = len(self.points)
        d = np.array(
            [[self.dist(x, y) for y in self.points] for x in self.points],
            dtype=np.int64,
        )
        if (np.diag(d) != 0).any():
            raise InvalidInput("metric has a nonzero diagonal entry")
        if (d != d.T).any():
            raise InvalidInput("metric is not symmetric")
        if ((d == 0) & ~np.eye(n, dtype=bool)).any():
            raise InvalidInput("metric vanishes off the diagonal")
        for k in range(n):
            if (d > d[:, [k]] + d[[k], :]).any():
                raise InvalidInput("triangle inequality fails")
        return True


class TableMetricSpace(FiniteMetricSpace):
    """Explicit metric, e.g. shortest-path metric of an edge list."""

    def __init__(self, points, dist_table: dict):
        self.points = tuple(points)
        self._d = dist_table
        self.check_metric_axioms()

    def dist(self, x, y) -> int:
        return self._d[(x, y)]

    @classmethod
    def from_edges(cls, points, edges):
        """Graph shortest-path metric (unit edge weights)."""
        pts = list(points)
        adj: dict = {p: [] for p in pts}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        table: dict = {}
        for srcpt in pts:
            seen = {srcpt: 0}
            q = deque([srcpt])
            while q:
                u = q.popleft()
                for v in adj[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        q.append(v)
            if len(seen) != len(pts):
                raise InvalidInput("edge list does not connect the point set")
            for v, d in seen.items():
                table[(srcpt, v)] = d
        return cls(pts, table)


class Grid1dSpace(FiniteMetricSpace):
    """Integer interval [lo, hi] with |x - y|."""

    def __init__(self, lo: int, hi: int):
        if hi < lo:
            raise InvalidInput("empty interval")
        self.lo, self.hi = int(lo), int(hi)
        self.points = tuple(range(self.lo, self.hi + 1))

    def dist(self, x, y) -> int:
        return abs(x - y)

    def iter_ball(self, x, radius: int):
        for y in range(max(self.lo, x - radius), min(self.hi, x + radius) + 1):
            yield y

    def subset_diameter(self, subset) -> int:
        if not subset:
            return 0
        return max(subset) - min(subset)


class Grid2dSpace(FiniteMetricSpace):
    """Box [0,w) x [0,h) of the integer lattice with the l1 metric
    (= shortest-path metric of the grid graph)."""

    def __init__(self, w: int, h: int):
        if w < 1 or h < 1:
            raise InvalidInput("empty grid")
        self.w, self.h = int(w), int(h)
        self.points = tuple((x, y) for x in range(w) for y in range(h))

    def dist(self, p, q) -> int:
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    def iter_ball(self, p, radius: int):
        x, y = p
        for dx in range(-radius, radius + 1):
            if not 0 <= x + dx < self.w:
                continue
            rem = radius - abs(dx)
            for dy in range(-rem, rem + 1):
                if 0 <= y + dy < self.h:
                    yield (x + dx, y + dy)

    def subset_diameter(self, subset) -> int:
        # l1 in the plane is l-infinity after the 45-degree rotation
        # u = x+y, v = x-y, so the diameter is max(range(u), range(v))
        if not subset:
            return 0
        us = [x + y for x, y in subset]
        vs = [x - y for x, y in subset]
        return max(max(us) - min(us), max(vs) - min(vs))


class GroupBallSpace(FiniteMetricSpace):
    """Word-metric ball in Z^k for a finite symmetric generating set.

    Realizes the canonical left-invariant coarse structure of the group,
    restricted to the ball: pairs (s, t) lie in the tube of radius r
    exactly when the word norm of t - s is at most r.
    """

    def __init__(self, generators, radius: int):
        gens = [tuple(int(c) for c in g) for g in generators]
        if not gens:
            raise InvalidInput("need at least one generator")
        k = len(gens[0])
        if any(len(g) != k for g in gens):
            raise InvalidInput("generators must share a dimension")
        sym = set(gens) | {tuple(-c for c in g) for g in gens}
        self.generators = tuple(sorted(sym))
        self.radius = int(radius)
        # BFS word norms out to 2*radius, enough for pairwise distances
        norms = {(0,) * k: 0}
        frontier = [(0,) * k]
        for step in range(1, 2 * self.radius + 1):
            nxt = []
            for v in frontier:
                for g in self.generators:
                    w = tuple(a + b for a, b in zip(v, g))
                    if w not in norms:
                        norms[w] = step
                        nxt.append(w)
            frontier = nxt
        self._norms = norms
        self.points = tuple(sorted(v for v, n in norms.items() if n <= self.radius))

    def word_norm(self, v) -> int:
        n = self._norms.get(tuple(v))
        if n is None:
            raise InvalidInput("vector outside the materialized ball")
        return n

    def dist(self, x, y) -> int:
        return self.word_norm(tuple(b - a for a, b in zip(x, y)))

    def tube_difference_set(self, r: int) -> frozenset:
        """{t - s : (s, t) in the radius-r tube}; finite by construction."""
        return frozenset(v for v, n in self._norms.items() if n <= r)


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class AsdimWitness:
    """(d+1) families of point classes at separation scale R, bound S."""

    scale_R: int
    bound_S: int
    families: list[list[frozenset]]
    meta: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.families) - 1

    def to_json(self) -> dict:
        return {
            "scale_R": self.scale_R,
            "bound_S": self.bound_S,
            "families": [
                [sorted(map(_point_key, cls)) for cls in fam] for fam in self.families
            ],
        }


def _point_key(p):
    return list(p) if isinstance(p, tuple) else p


def _point_from_json(p):
    return tuple(p) if isinstance(p, list) else p


def asdim_witness_from_json(data: dict) -> AsdimWitness:
    try:
        return AsdimWitness(
            scale_R=int(data["scale_R"]),
            bound_S=int(data["bound_S"]),
            families=[
                [frozenset(_point_from_json(p) for p in cls) for cls in fam]
                for fam in data["families"]
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed coarse witness: {exc!r}") from None


def verify_asdim_witness(X: FiniteMetricSpace, w: AsdimWitness) -> VerificationReport:
    """Exact check of cover, within-family separation > R, and diameters <= S."""
    point_set = set(X.points)
    covered: set = set()
    for fam in w.families:
        for cls in fam:
            bad = set(cls) - point_set
            if bad:
                return VerificationReport(
                    False, "CoverGap", f"class references unknown points {sorted(map(repr, bad))[:3]}"
                )
            covered |= set(cls)
    if covered != point_set:
        return VerificationReport(
            False, "CoverGap",
            f"{len(point_set - covered)} points uncovered",
            {"missing": sorted(map(repr, point_set - covered))[:5]},
        )

    for fi, fam in enumerate(w.families):
        class_of: dict = {}
        for ci, cls in enumerate(fam):
            for p in cls:
                if p in class_of:
                    return VerificationReport(
                        False, "SeparationViolation",
                        f"family {fi}: point {p!r} lies in two classes (distance 0 <= R)",
                        {"family": fi, "point": repr(p)},
                    )
                class_of[p] = ci
        for p, ci in class_of.items():
            for q in X.iter_ball(p, w.scale_R):
                cj = class_of.get(q)
                if cj is not None and cj != ci:
                    return VerificationReport(
                        False, "SeparationViolation",
                        f"family {fi}: classes {ci} and {cj} meet at distance "
                        f"{X.dist(p, q)} <= R={w.scale_R}",
                        {"family": fi, "points": [repr(p), repr(q)]},
                    )

    for fi, fam in enumerate(w.families):
        for ci, cls in enumerate(fam):
            diam = X.subset_diameter(cls)
            if diam > w.bound_S:
                return VerificationReport(
                    False, "DiameterViolation",
                    f"family {fi} class {ci} has diameter {diam} > S={w.bound_S}",
                    {"family": fi, "class": ci, "diameter": diam},
                )
    return VerificationReport(
        True, "ok", "asymptotic-dimension witness verified",
        {
            "families": len(w.families),
            "classes": [len(f) for f in w.families],
            "scale_R": w.scale_R,
            "bound_S": w.bound_S,
        },
    )


def construct_grid_witness(n: int, box, R: int) -> AsdimWitness:
    """Interval witness on Z (two families, intervals of length 5R) or
    brick-wall witness on Z^2 (three families, bricks of side 10R with
    alternate rows offset by half a brick).  Verified before returning."""
    if R < 1:
        raise InvalidInput("R must be positive")
    if n == 1:
        lo, hi = box
        X = Grid1dSpace(lo, hi)
        L = 5 * R
        classes: dict[int, set] = {}
        for x in X.points:
            t = x // L
            classes.setdefault(t, set()).add(x)
        fams: list[list[frozenset]] = [[], []]
        for t, cls in sorted(classes.items()):
            fams[t % 2].append(frozenset(cls))
        w = AsdimWitness(R, L - 1, fams, meta={"pattern": "intervals", "L": L})
    elif n == 2:
        (x0, x1), (y0, y1) = box
        if (x0, y0) != (0, 0):
            raise InvalidInput("2d boxes are anchored at the origin")
        X = Grid2dSpace(x1 + 1, y1 + 1)
        L = 10 * R  # even, so the half-brick offset is integral
        half = L // 2
        bricks: dict[tuple[int, int], set] = {}
        for p in X.points:
            x, y = p
            r = y // L
            delta = half if r % 2 else 0
            c = (x - delta) // L
            bricks.setdefault((r, c), set()).add(p)
        fams = [[], [], []]
        for (r, c), cls in sorted(bricks.items()):
            color = (c + (r + 1) // 2 + r) % 3
            fams[color].append(frozenset(cls))
        w = AsdimWitness(R, 2 * (L - 1), fams, meta={"pattern": "bricks", "L": L})
    else:
        raise InvalidInput("only n = 1 and n = 2 constructors are provided")
    report = verify_asdim_witness(X, w)
    if not report:
        raise VerificationFailed(f"grid witness failed self-verification: {report.message}", report)
    w.meta["verified"] = True
    return w


# ---------------------------------------------------------------------------
# exhaustive oracle


def exhaustive_min_colors(
    X: FiniteMetricSpace, R: int, S: int, max_points: int = 16
) -> int:
    """Least number of families over all partitions satisfying the (R, S)
    conditions; ground truth for small instances.

    Classes may be taken to be the R-connected components of each family
    (separation forces components to stay together, and merging components
    only grows diameters), so the search is over family assignments with
    component diameters tracked incrementally.
    """
    k, _ = exhaustive_min_colors_with_witness(X, R, S, max_points)
    return k


def exhaustive_min_colors_with_witness(
    X: FiniteMetricSpace, R: int, S: int, max_points: int = 16
):
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
            for a in comp:
                for b in comp:
                    if dist[a][b] > S:
                        return False
            return True

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
            fams: list[list[frozenset]] = [[] for _ in range(k)]
            for fam in range(k):
                members = [pts[i] for i in range(n) if assignment[i] == fam]
                comps = _connected_components(
                    ((p, q) for p in members for q in members if X.dist(p, q) <= R), members
                )
                fams[fam] = [frozenset(c) for c in comps]
            w = AsdimWitness(R, S, fams, meta={"oracle": True})
            return k, w
    raise InvalidInput("unreachable: n singleton families always work")  # pragma: no cover


# ---------------------------------------------------------------------------
# bridge to groupoids


def bridge_to_groupoid(
    X: FiniteMetricSpace, w: AsdimWitness, verify: bool = True
):
    """Translate a coarse witness into a groupoid witness.

    The ambient groupoid is the pair groupoid of the tube of radius S; K is
    the tube of radius R; the colors are the unions of each family's
    classes, and each family's classes are declared as the blocks of its
    generated subgroupoid, which the verifier checks against the
    K-reachability blocks; a class that is not R-connected is rejected
    with NotClosed.  Returns (groupoid, witness, report).
    """
    if verify:
        rep = verify_asdim_witness(X, w)
        if not rep:
            raise VerificationFailed(f"asdim witness rejected: {rep.message}", rep)

    G = TubePairGroupoid(X, w.bound_S)
    K = TubeArrows(w.scale_R)
    colors = [frozenset(p for cls in fam for p in cls) for fam in w.families]

    generated = [BlockArrows(frozenset(frozenset(cls) for cls in fam)) for fam in w.families]
    size_bound = max(map(len, generated), default=0)
    witness = GroupoidDadWitness(
        K, colors, generated, meta={"scale_R": w.scale_R, "bound_S": w.bound_S}
    )
    report = verify_groupoid_dad(G, witness, size_bound)
    if not report:
        raise VerificationFailed(f"bridged witness rejected: {report.message}", report)
    return G, witness, report


def recover_families_from_bridge(witness: GroupoidDadWitness) -> list[list[frozenset]]:
    """Orbit classes of each color's generated subgroupoid, i.e. its blocks."""
    out = []
    for gen in witness.generated:
        out.append(sorted((frozenset(b) for b in gen.blocks), key=lambda b: sorted(map(repr, b))))
    return out


# ---------------------------------------------------------------------------
# serialization


def space_from_json(data: dict) -> FiniteMetricSpace:
    try:
        if "grid" in data:
            dims = data["grid"]["dims"]
            if len(dims) == 1:
                return Grid1dSpace(0, dims[0] - 1)
            if len(dims) == 2:
                return Grid2dSpace(dims[0], dims[1])
            raise InvalidInput("grids supported in dimensions 1 and 2")
        if "group_ball" in data:
            gb = data["group_ball"]
            return GroupBallSpace(gb["generators"], gb["radius"])
        if "edges" in data:
            return TableMetricSpace.from_edges(data["points"], [tuple(e) for e in data["edges"]])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidInput(f"malformed space: {exc!r}") from None
    raise InvalidInput("space file needs 'grid', 'group_ball', or 'edges'")
