"""Finite metric spaces and single-scale asymptotic-dimension witnesses.

A witness at scale (R, S) is a cover by d+1 families of classes such that
distinct classes within a family are more than R apart and every class has
diameter at most S.  The artifact certifies one scale at a time and never
claims the asymptotic limit.  ``bridge_to_groupoid`` translates a verified
witness into a groupoid witness over the pair groupoid of the tube of
radius S, realizing the coarse-groupoid correspondence at finite scale.

A class of int points is a ``PointRows``: one int64 row per distinct
point, in point order, read as a set of the points.  The reader builds it
from a JSON class of ints or of int lists with one array conversion, the
grid constructor from each box's coordinate ranges, and ``to_json``
writes its rows as they are; a class holding any other point (a bool, a
float, a string) stays a frozenset of its points, with the equality rule
of a set (0.0 is the point 0).

Grids are translation-invariant and fill their bounding box: their
R-ball is one set of l1 offsets.  Each gives a ``Lattice``, on which a
family is an integer label array over the box.  The verifier checks the
cover and separation with array writes and shifted comparisons and takes
each class's diameter from the same cells, and the bridge's tube check
labels each color's R-components over the same cells.  A grid builds its
points only when a caller asks for them (a report that names a point, a
path off the lattice); the lattice holds none, and it reads a class's
rows into cells in one vectorized step, so each check reads its own
cells.  The bridge declares the classes themselves as its colors'
blocks, each color being its family's classes read as one set.
Explicit tables and word-metric balls keep the per-point ball scan and
generation through the groupoid layer's edge-list component kernel,
which also serve the tests as the oracle of the lattice path; the tests
keep the per-point construction and reader as the oracles of the array
ones.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, product, repeat

import numpy as np

from .errors import InvalidInput, TooLarge, VerificationFailed, integer, malformed, positive_int
from .groupoid import (
    BlockArrows,
    GroupoidDadWitness,
    TubeArrows,
    TubePairGroupoid,
    _verify_dad,
)
from .reporting import VerificationReport

__all__ = [
    "FiniteMetricSpace",
    "TableMetricSpace",
    "Grid1dSpace",
    "Grid2dSpace",
    "GroupBallSpace",
    "PointRows",
    "AsdimWitness",
    "verify_asdim_witness",
    "construct_grid_witness",
    "bridge_to_groupoid",
    "space_from_json",
    "asdim_witness_from_json",
]

# differences formed per numpy chunk in GroupBallSpace.subset_diameter
_DIFF_CHUNK = 1 << 20


class FiniteMetricSpace:
    """Finite point set with an exact integer metric.

    ``lattice`` is None here; the grids give their ``Lattice``, which the
    cover checks and the tube check use instead of ball scans.
    """

    points: tuple
    lattice: Lattice | None = None

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


class Lattice:
    """A grid with the l1 metric as the cells of its integer box: ``shape``
    cells from the corner ``lo``, whose points are the cells in row-major
    order (point i of the grid is cell i).

    A family of classes becomes one label array over the box (class index
    at each cell, -1 elsewhere) and the R-ball one list of offsets, so
    separation and R-components are shifted array operations instead of a
    ball scan per point.  The lattice holds no point: ``cells_of`` reads
    the rows of a ``PointRows`` in one vectorized step, and ``point``
    makes the point of a cell for a report.  The points of any other set
    keep the rule of a set of the points: one equal to a point (0.0 for 0,
    (1.0, 0) for (1, 0), True for 1) finds that point's cell, and anything
    else (outside the box, of the wrong arity, not a number) finds none.
    That lookup is a dict from the points to their cells, built the first
    time such a set is read.

    The lattice keeps no reference to its space, which holds it.
    """

    def __init__(self, lo, shape):
        self.lo = tuple(map(int, lo))
        self.shape = tuple(map(int, shape))
        self.size = math.prod(self.shape)
        self._offsets: dict = {}
        self._shift_pairs: dict = {}

    def point(self, cell: int):
        """The point at ``cell``: an int in 1-D, a tuple of ints above."""
        p = [a + int(i) for a, i in zip(self.lo, np.unravel_index(cell, self.shape))]
        return p[0] if len(p) == 1 else tuple(p)

    @cached_property
    def _index(self) -> dict:
        """point -> cell, for the sets that are not ``PointRows``."""
        axes = [range(a, a + n) for a, n in zip(self.lo, self.shape)]
        return dict(zip(axes[0] if len(axes) == 1 else product(*axes), range(self.size)))

    def cells_of(self, pts) -> np.ndarray:
        """The cell of each of ``pts`` in iteration order, -1 where none:
        the rows of a ``PointRows`` in one vectorized step (all -1 at the
        wrong arity), the dict for any other set of points."""
        if isinstance(pts, _Color):
            return np.concatenate([np.empty(0, np.intp), *map(self.cells_of, pts.parts)])
        if not isinstance(pts, PointRows) or not len(pts):
            return np.fromiter(
                map(self._index.get, pts, repeat(-1)), dtype=np.intp, count=len(pts)
            )
        if pts.scalar != (len(self.shape) == 1) or pts.rows.shape[1] != len(self.shape):
            return np.full(len(pts), -1, dtype=np.intp)
        inside, cells = True, 0
        for col, a, n in zip(pts.rows.T, self.lo, self.shape):
            inside = inside & (col >= a) & (col < a + n)
            cells = cells * n + (col - a)
        return np.where(inside, cells, -1)

    def empty_labels(self, top: int) -> np.ndarray:
        """-1 at every cell, in the narrowest signed type that holds labels
        up to ``top``: narrow arrays compare and take minima faster."""
        dtype = np.result_type(np.int8, np.min_scalar_type(top))
        return np.full(self.size, -1, dtype=dtype)

    def offsets(self, r: int) -> np.ndarray:
        """The radius-r ball's offsets in lexicographic order, which is the
        order of the cells they lead to."""
        if r not in self._offsets:
            k = len(self.shape)
            reach = min(r, sum(self.shape) - k)
            ball = [
                v for v in product(range(-reach, reach + 1), repeat=k)
                if sum(map(abs, v)) <= reach
            ]
            self._offsets[r] = np.array(ball, dtype=np.int64).reshape(-1, k)
        return self._offsets[r]

    def _shifts(self, r: int) -> list:
        """One (a, b) pair of box slices per offset v > 0 in half the ball:
        cell j of ``grid[b]`` is cell j of ``grid[a]`` moved by v."""
        if r not in self._shift_pairs:
            self._shift_pairs[r] = [
                (
                    tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(v, self.shape)),
                    tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(v, self.shape)),
                )
                for v in self.offsets(r)
                if (v > 0)[np.argmax(v != 0)] and (abs(v) < self.shape).all()
            ]
        return self._shift_pairs[r]

    def conflicts(self, labels, r: int):
        """Cells within distance r of a cell of another class, as a flat
        mask, or None when no two classes meet."""
        grid = labels.reshape(self.shape)
        hit = None
        for a, b in self._shifts(r):
            A, B = grid[a], grid[b]
            meet = (A != B) & (np.minimum(A, B) >= 0)
            if hit is None:
                if not meet.any():
                    continue
                hit = np.zeros(self.shape, dtype=bool)
            hit[a] |= meet
            hit[b] |= meet
        return None if hit is None else hit.ravel()

    def ball_cells(self, cell: int, r: int, keep) -> np.ndarray:
        """Cells within r of ``cell`` that pass the mask ``keep``, in cell
        order."""
        near = np.array(np.unravel_index(cell, self.shape)) + self.offsets(r)
        near = near[((near >= 0) & (near < self.shape)).all(axis=1)]
        cells = np.ravel_multi_index(tuple(near.T), self.shape)
        return cells[keep[cells]]

    def diameters(self, row) -> list:
        """The l1 diameter of each class of ``row``, a list of the classes'
        cell arrays: the largest spread of the coordinates along a sign
        vector (1, +-1, ..., +-1), and 0 for an empty class."""
        sizes = np.fromiter(map(len, row), dtype=np.intp, count=len(row))
        diam = np.zeros(len(row), dtype=np.int64)
        full = sizes > 0
        if full.any():
            coords = np.array(np.unravel_index(np.concatenate(row), self.shape))
            starts = (np.cumsum(sizes) - sizes)[full]
            for signs in product((1, -1), repeat=len(self.shape) - 1):
                t = np.array((1,) + signs) @ coords
                spread = np.maximum.reduceat(t, starts) - np.minimum.reduceat(t, starts)
                diam[full] = np.maximum(diam[full], spread)
        return diam.tolist()

    def components(self, group, r: int) -> np.ndarray:
        """The r-components of each group of cells, for r >= 0: ``group``
        holds a group index per cell (-1 for none), two cells of one group
        within distance r join, and each cell gets its component's least
        cell (-1 outside every group).

        Min-label propagation: each cell starts labelled with itself; every
        pass takes the minimum across each offset of half the ball, then
        jumps each label to its label's label until that is stable.  A
        label is always a cell of the same component, so once every offset
        joins equal labels they are constant on components, and they name
        distinct ones; the least cell of a component reaches all of it.
        """
        cells = np.flatnonzero(group >= 0)
        labels = self.empty_labels(self.size)
        labels[cells] = cells
        grid, within = labels.reshape(self.shape), group.reshape(self.shape)
        steps = [(a, b, (within[a] == within[b]) & (within[a] >= 0)) for a, b in self._shifts(r)]
        steps = [s for s in steps if s[2].any()]
        while True:
            for a, b, both in steps:
                A, B = grid[a], grid[b]
                np.minimum(A, B, out=A, where=both)
                np.minimum(A, B, out=B, where=both)
            jumped = labels[cells]
            while True:
                labels[cells] = jumped
                nxt = labels[jumped]
                if (nxt == jumped).all():
                    break
                jumped = nxt
            if not any(((grid[a] != grid[b]) & both).any() for a, b, both in steps):
                break
        return labels.astype(np.intp)


# from_edges builds all n^2 distances and checks n^3 triangles; on a
# 2-vCPU Xeon, 500 points take about 0.75 s and 600 about 1.3 s
MAX_TABLE_POINTS = 500


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
        """Graph shortest-path metric (unit edge weights); ``TooLarge``
        above ``MAX_TABLE_POINTS`` points, before any distance is built."""
        pts = list(points)
        if len(pts) > MAX_TABLE_POINTS:
            raise TooLarge(
                f"edge-list space has {len(pts)} points; the limit is {MAX_TABLE_POINTS}"
            )
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
    """Integer interval [lo, hi] with |x - y|.  The points are built only
    when a caller asks for them; the lattice holds none."""

    def __init__(self, lo: int, hi: int):
        if hi < lo:
            raise InvalidInput("empty interval")
        self.lo, self.hi = int(lo), int(hi)

    @cached_property
    def points(self) -> tuple:
        return tuple(range(self.lo, self.hi + 1))

    def dist(self, x, y) -> int:
        return abs(x - y)

    @cached_property
    def lattice(self) -> Lattice:
        return Lattice((self.lo,), (self.hi - self.lo + 1,))

    def subset_diameter(self, subset) -> int:
        if not subset:
            return 0
        return max(subset) - min(subset)


class Grid2dSpace(FiniteMetricSpace):
    """Box [0,w) x [0,h) of the integer lattice with the l1 metric
    (= shortest-path metric of the grid graph).  The points, (x, y) in
    lexicographic order, are built only when a caller asks for them; the
    lattice holds none."""

    def __init__(self, w: int, h: int):
        if w < 1 or h < 1:
            raise InvalidInput("empty grid")
        self.w, self.h = int(w), int(h)

    @cached_property
    def points(self) -> tuple:
        return tuple(product(range(self.w), range(self.h)))

    def dist(self, p, q) -> int:
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    @cached_property
    def lattice(self) -> Lattice:
        return Lattice((0, 0), (self.w, self.h))

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

    @cached_property
    def _point_set(self) -> frozenset:
        return frozenset(self.points)

    def subset_diameter(self, subset) -> int:
        """Largest word norm of a difference of two points of ``subset``.

        For points of the ball, each point becomes one integer code (mixed
        radix 2*span+1 per coordinate, so a code difference names the
        difference vector), the differences are formed in numpy row chunks,
        and each distinct one is decoded and looked up once in the norm
        table, which reaches 2*radius and so holds them all.  Other subsets,
        and codes that would not fit in int64, take the pairwise loop.
        """
        pts = list(subset)
        if len(pts) < 2 or not self._point_set.issuperset(pts):
            return super().subset_diameter(pts)
        cols = list(zip(*pts))
        lows = [min(c) for c in cols]
        spans = [max(c) - lo for c, lo in zip(cols, lows)]
        radices = [2 * s + 1 for s in spans]
        if math.prod(radices) >= 2**62:
            return super().subset_diameter(pts)
        place = [math.prod(radices[:c]) for c in range(len(radices))]
        codes = np.array(
            [sum((x - lo) * w for x, lo, w in zip(p, lows, place)) for p in pts],
            dtype=np.int64,
        )
        distinct: set = set()
        step = max(1, _DIFF_CHUNK // len(codes))
        for i in range(0, len(codes), step):
            # sorted, then one of each run: np.unique would import numpy.ma
            diffs = np.sort(codes[i:i + step, None] - codes[None, :], axis=None)
            distinct.update(diffs[np.diff(diffs, prepend=diffs[0] - 1) != 0].tolist())
        best = 0
        for code in distinct:
            v = []
            for s, r in zip(spans, radices):
                digit = (code + s) % r - s
                v.append(digit)
                code = (code - digit) // r
            best = max(best, self.word_norm(v))
        return best


# ---------------------------------------------------------------------------
# witnesses


class _Frozen(Set):
    """A read-only set whose set operators (``|``, ``&``, ``-``) return
    frozensets."""

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)


class PointRows(_Frozen):
    """A class of int points held as ``rows``: an (n, k) int64 array of its
    distinct points in point order (ints by value, tuples
    lexicographically), read as a set of the points: an int each when
    ``scalar`` (k = 1), otherwise a tuple of k ints.  It equals, and hashes
    as, the frozenset of its points; ``in`` is a binary search that keeps a
    frozenset's rule (0.0 finds 0, True finds 1, an unhashable object
    raises TypeError).  The rows are read-only."""

    def __init__(self, rows: np.ndarray, scalar: bool):
        rows.flags.writeable = False
        self.rows, self.scalar = rows, scalar

    @classmethod
    def read(cls, pts) -> PointRows | None:
        """The class of a JSON list of ints, or of int lists of one length,
        a point listed twice being one point; None for any other list
        (empty, or holding a bool, a float, a string, an int past int64,
        lists of several lengths or of none)."""
        if type(pts) is not list or not pts:
            return None
        kinds = set(map(type, pts))
        if kinds == _INT:
            flat, k = pts, 1
        elif kinds == _LIST and len(lengths := set(map(len, pts))) == 1:
            flat, k = list(chain.from_iterable(pts)), lengths.pop()
            if set(map(type, flat)) != _INT:
                return None
        else:
            return None
        try:
            rows = np.fromiter(flat, np.int64, len(flat)).reshape(-1, k)
        except OverflowError:
            return None
        return cls(_point_order(rows), kinds == _INT)

    @classmethod
    def box(cls, axes) -> PointRows:
        """The points of the product of one range of coordinates per axis."""
        grids = np.meshgrid(*(np.arange(r.start, r.stop) for r in axes), indexing="ij")
        return cls(np.stack([g.ravel() for g in grids], axis=1), len(axes) == 1)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        if self.scalar:
            return iter(self.rows[:, 0].tolist())
        return map(tuple, self.rows.tolist())

    def __contains__(self, p) -> bool:
        hash(p)
        coords = (p,) if self.scalar else p
        if not isinstance(coords, tuple) or len(coords) != self.rows.shape[1]:
            return False
        lo, hi = 0, len(self.rows)
        for j, v in enumerate(coords):
            try:
                c = int(v)
            except (TypeError, ValueError, OverflowError):
                return False
            if c != v or not -(2**63) <= c < 2**63:
                return False
            col = self.rows[lo:hi, j]
            lo, hi = lo + int(np.searchsorted(col, c)), lo + int(np.searchsorted(col, c, "right"))
        return lo < hi

    __hash__ = Set._hash

    def to_json(self) -> list:
        """The points as JSON: ints, or lists of ints, in point order."""
        return self.rows[:, 0].tolist() if self.scalar else self.rows.tolist()


_INT = frozenset({int})
_LIST = frozenset({list})


def _point_order(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order: as given when they
    already are (as a written class is), else sorted with one of each run
    of equal rows kept (np.unique would import numpy.ma)."""
    a, b = rows[:-1], rows[1:]
    ahead = a[:, -1] < b[:, -1]
    for j in range(rows.shape[1] - 2, -1, -1):
        ahead = (a[:, j] < b[:, j]) | (a[:, j] == b[:, j]) & ahead
    if ahead.all():
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]


class _Color(_Frozen):
    """The union of one family's classes, read through them, which the
    verified witness has shown disjoint: a color of the bridge."""

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __iter__(self):
        return chain.from_iterable(self.parts)

    def __contains__(self, p) -> bool:
        return any(p in c for c in self.parts)


class _Blocks(_Frozen):
    """Disjoint non-empty classes, which are so distinct, as a set of sets
    held without hashing them: a color's declared blocks in the bridge."""

    def __init__(self, classes):
        self.classes = tuple(classes)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __contains__(self, b) -> bool:
        return any(b == c for c in self.classes)


@dataclass
class AsdimWitness:
    """(d+1) families of point classes at separation scale R, bound S: each
    class a ``PointRows``, or a frozenset of points that are not all int
    points."""

    scale_R: int
    bound_S: int
    families: list[list[Set]]
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Each class as its points in point order: the rows of a
        ``PointRows`` as they are, and a frozenset's points sorted."""
        return {
            "scale_R": self.scale_R,
            "bound_S": self.bound_S,
            "families": [
                [c.to_json() if isinstance(c, PointRows) else sorted(c) for c in fam]
                for fam in self.families
            ],
        }


def _point_class(cls) -> Set:
    """A class as read from JSON: its ``PointRows`` when it has one, and
    otherwise the frozenset of its entries, each list entry a tuple."""
    rows = PointRows.read(cls)
    if rows is not None:
        return rows
    return frozenset([tuple(p) if isinstance(p, list) else p for p in cls])


def asdim_witness_from_json(data: dict) -> AsdimWitness:
    """A coarse witness file.  ``scale_R`` is a JSON integer >= 0: no two
    points lie within a negative R, not even a point and itself."""
    with malformed("coarse witness"):
        R = integer(data["scale_R"], "scale_R")
        if R < 0:
            raise InvalidInput(f"expected scale_R >= 0, got {R}")
        return AsdimWitness(
            scale_R=R,
            bound_S=integer(data["bound_S"], "bound_S"),
            families=[list(map(_point_class, fam)) for fam in data["families"]],
        )


def verify_asdim_witness(X: FiniteMetricSpace, w: AsdimWitness) -> VerificationReport:
    """Exact check of cover, within-family separation > R, and diameters <= S.

    On a lattice space each class is read into cells once, in one
    vectorized step from its rows, and each family is one label array: the
    cover and "a point lies in two classes" are array writes, and
    separation is one shifted comparison per offset in half the R-ball.
    Any other space scans each point's R-ball.  Both report the same first
    fault: the lattice path finds the faulty step by arrays and then names
    the same points the scan would.  Off the lattice the diameters are the
    space's own; on it they come from the same cells
    (``Lattice.diameters``), and a class over S reports the space's own
    value, so that both paths report alike.
    """
    return _verify_asdim(X, w)


def _verify_asdim(X: FiniteMetricSpace, w: AsdimWitness) -> VerificationReport:
    """The body of ``verify_asdim_witness``, which the constructor and the
    bridge call, so that timing the public verifier by name leaves their
    checks out."""
    lat = X.lattice
    if lat is None:
        fault, cells = _scan_faults(X, w), None
    else:
        fault, cells = _lattice_faults(X, lat, w)
    if fault is not None:
        return fault
    for fi, fam in enumerate(w.families):
        diams = map(X.subset_diameter, fam) if lat is None else lat.diameters(cells[fi])
        for ci, (cls, diam) in enumerate(zip(fam, diams)):
            if diam > w.bound_S:
                # a class holding 0.0 for 0 has diameter 1.0, not 1
                diam = X.subset_diameter(cls)
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


def _unknown_points(cls, point_set) -> VerificationReport:
    bad = set(cls) - point_set
    return VerificationReport(
        False, "CoverGap", f"class references unknown points {sorted(map(repr, bad))[:3]}"
    )


def _uncovered(missing) -> VerificationReport:
    missing = sorted(map(repr, missing))
    return VerificationReport(
        False, "CoverGap", f"{len(missing)} points uncovered", {"missing": missing[:5]}
    )


def _class_of(fi: int, fam):
    """(point -> class index, None), or (None, report) at the first point
    that lies in two classes of the family."""
    class_of: dict = {}
    for ci, cls in enumerate(fam):
        for p in cls:
            if p in class_of:
                return None, VerificationReport(
                    False, "SeparationViolation",
                    f"family {fi}: point {p!r} lies in two classes (distance 0 <= R)",
                    {"family": fi, "point": repr(p)},
                )
            class_of[p] = ci
    return class_of, None


def _meet(X, fi: int, R: int, p, ci: int, q, cj: int) -> VerificationReport:
    return VerificationReport(
        False, "SeparationViolation",
        f"family {fi}: classes {ci} and {cj} meet at distance {X.dist(p, q)} <= R={R}",
        {"family": fi, "points": [repr(p), repr(q)]},
    )


def _scan_faults(X: FiniteMetricSpace, w: AsdimWitness):
    """The first cover or separation fault by ball scans, or None."""
    point_set = set(X.points)
    covered: set = set()
    for fam in w.families:
        for cls in fam:
            if not point_set.issuperset(cls):
                return _unknown_points(cls, point_set)
            covered |= set(cls)
    if covered != point_set:
        return _uncovered(point_set - covered)
    for fi, fam in enumerate(w.families):
        class_of, fault = _class_of(fi, fam)
        if fault is not None:
            return fault
        for p, ci in class_of.items():
            for q in X.iter_ball(p, w.scale_R):
                cj = class_of.get(q)
                if cj is not None and cj != ci:
                    return _meet(X, fi, w.scale_R, p, ci, q, cj)
    return None


def _lattice_faults(X: FiniteMetricSpace, lat: Lattice, w: AsdimWitness):
    """``_scan_faults`` on label arrays over the cells of each family's
    classes, each class's in its iteration order: (fault, None) or (None,
    cells).  Each step is checked by array operations, and only a failing
    step looks at single points."""
    cells = [[lat.cells_of(cls) for cls in fam] for fam in w.families]
    covered = np.zeros(lat.size, dtype=bool)
    for fam, row in zip(w.families, cells):
        for cls, c in zip(fam, row):
            if (c < 0).any():
                return _unknown_points(cls, set(X.points)), None
            covered[c] = True
    missing = np.flatnonzero(~covered)
    if len(missing):
        return _uncovered(map(lat.point, missing)), None
    for fi, (fam, row) in enumerate(zip(w.families, cells)):
        labels = lat.empty_labels(len(row))
        for ci, c in enumerate(row):
            labels[c] = ci
        if np.count_nonzero(labels >= 0) != sum(map(len, row)):
            return _class_of(fi, fam)[1], None
        hit = lat.conflicts(labels, w.scale_R)
        if hit is None:
            continue
        # the scan's first fault: the first point, in class order and
        # each class's iteration order, that meets another class, and the
        # first such point in its ball
        for ci, (cls, c) in enumerate(zip(fam, row)):
            if hit[c].any():
                j = int(np.argmax(hit[c]))
                p = next(islice(cls, j, None))
                keep = (labels >= 0) & (labels != ci)
                q = int(lat.ball_cells(c[j], w.scale_R, keep)[0])
                return _meet(X, fi, w.scale_R, p, ci, lat.point(q), int(labels[q])), None
    return None, cells


def construct_grid_witness(X: Grid1dSpace | Grid2dSpace, R: int) -> AsdimWitness:
    """Interval witness on a Grid1dSpace (two families, intervals of length
    5R) or brick-wall witness on a Grid2dSpace (three families, bricks of
    side 10R, alternate rows offset by half a brick).  Verified on X.

    Each class is a box of the grid, an interval or a brick cut to the
    grid, taken in increasing order of its index: its ``PointRows`` are
    the product of its coordinate ranges, in point order as built."""
    if R < 1:
        raise InvalidInput("R must be positive")
    if isinstance(X, Grid1dSpace):
        L = 5 * R
        w = AsdimWitness(R, L - 1, [[], []], meta={"pattern": "intervals", "L": L})
        boxes = [
            (k % 2, [range(max(X.lo, k * L), min(X.hi + 1, (k + 1) * L))])
            for k in range(X.lo // L, X.hi // L + 1)
        ]
    elif isinstance(X, Grid2dSpace):
        L = 10 * R  # even, so the half-brick offset is integral
        w = AsdimWitness(R, 2 * (L - 1), [[], [], []], meta={"pattern": "bricks", "L": L})
        boxes = []
        for r in range((X.h - 1) // L + 1):
            shift = L // 2 * (r % 2)
            # a shifted row starts with the cut brick c = -1
            for c in range(-shift // L, (X.w - 1 - shift) // L + 1):
                xs = range(max(0, c * L + shift), min(X.w, (c + 1) * L + shift))
                boxes.append(((c + (r + 1) // 2 + r) % 3, [xs, range(r * L, min(X.h, (r + 1) * L))]))
    else:
        raise InvalidInput("grid witnesses are constructed on 1d and 2d grids only")
    for k, axes in boxes:
        w.families[k].append(PointRows.box(axes))
    report = _verify_asdim(X, w)
    if not report:
        raise VerificationFailed(f"grid witness failed self-verification: {report.message}", report)
    w.meta["verified"] = True
    return w


# ---------------------------------------------------------------------------
# bridge to groupoids


def bridge_to_groupoid(X: FiniteMetricSpace, w: AsdimWitness):
    """Verify a coarse witness and translate it into a groupoid witness.

    The ambient groupoid is the pair groupoid of the tube of radius S; K is
    the tube of radius R; the colors are the unions of each family's
    classes, and each family's non-empty classes are declared as the
    blocks of its generated subgroupoid, which the verifier checks against
    the K-reachability blocks; a class that is not R-connected is rejected
    with NotClosed.  The classes themselves are handed over: a color is
    its family's classes read as one set (disjoint, as the witness is
    verified first), and its declared blocks are those classes, so on a
    grid the tube check reads cells from their rows and builds no set of
    points.  Returns (groupoid, witness, report).
    """
    rep = _verify_asdim(X, w)
    if not rep:
        raise VerificationFailed(f"asdim witness rejected: {rep.message}", rep)

    G = TubePairGroupoid(X, w.bound_S)
    K = TubeArrows(w.scale_R)
    colors = [_Color(fam) for fam in w.families]
    generated = [BlockArrows(_Blocks(cls for cls in fam if cls)) for fam in w.families]
    size_bound = max(map(len, generated), default=0)
    witness = GroupoidDadWitness(
        K, colors, generated, meta={"scale_R": w.scale_R, "bound_S": w.bound_S}
    )
    report = _verify_dad(G, witness, size_bound)
    if not report:
        raise VerificationFailed(f"bridged witness rejected: {report.message}", report)
    return G, witness, report


# ---------------------------------------------------------------------------
# serialization


def space_from_json(data: dict) -> FiniteMetricSpace:
    with malformed("space"):
        if "grid" in data:
            dims = [positive_int(k, "grid dims entry") for k in data["grid"]["dims"]]
            if len(dims) == 1:
                return Grid1dSpace(0, dims[0] - 1)
            if len(dims) == 2:
                return Grid2dSpace(dims[0], dims[1])
            raise InvalidInput("grids supported in dimensions 1 and 2")
        if "group_ball" in data:
            gb = data["group_ball"]
            return GroupBallSpace(
                [[integer(c, "generator coordinate") for c in g] for g in gb["generators"]],
                integer(gb["radius"], "group-ball radius"),
            )
        if "edges" in data:
            return TableMetricSpace.from_edges(data["points"], [tuple(e) for e in data["edges"]])
    raise InvalidInput("space file needs 'grid', 'group_ball', or 'edges'")
