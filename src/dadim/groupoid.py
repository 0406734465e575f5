"""Explicit finite etale groupoids.

Arrows are hashable labels with source/range/inverse maps and a partial
composition.  Three concrete flavors cover everything the artifact needs:

* ``FiniteGroupoid`` -- explicit arrow list with a composition table,
  axiom-checked exhaustively on construction (associativity over every
  composable triple);
* ``TransformationGroupoid`` -- Z/n rotating its residues 0..n-1, the
  finite quotients of a minimal Z-action and the library's one group
  action: it holds n alone, and every structure map is arithmetic on
  residues mod n.
  The rotation is free with one orbit, and the group parts of a block are
  its residue differences.  The arrow tuple is built only when asked for;
  ``moves(E)`` builds the symmetric arrow set K of a generating set E,
  read in Z through the quotient map to Z/n;
* ``TubePairGroupoid`` -- the pair groupoid of a finite metric space
  restricted to a tube radius, with arrows kept implicit.

An explicit groupoid computes its orbits once, by union-find over its
arrows.  A subgroupoid of a free groupoid has one form,
``BlockArrows``: an arrow is fixed by its source and range, so a
subgroupoid is the pair groupoid over a partition of some units (one
matrix algebra per block).  Generation reads the blocks off the
components of the seed graph, and consumers read sizes, membership and
group parts from them.  The worklist closure (a frozenset of arrows) runs
only on groupoids with isotropy.

Finiteness stands in for relative compactness throughout: a witness is
accepted when each color's generated subgroupoid is small against an
explicit size bound.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import InvalidInput, NotAnAction, TooLarge, int_keys, integer, malformed, positive_int
from .reporting import VerificationReport

__all__ = [
    "FiniteGroupoid",
    "TransformationGroupoid",
    "TubePairGroupoid",
    "BlockArrows",
    "TubeArrows",
    "GroupoidDadWitness",
    "transformation_groupoid",
    "cyclic_rotation_groupoid",
    "symmetrized",
    "pair_groupoid",
    "generate_subgroupoid",
    "verify_groupoid_dad",
    "groupoid_from_json",
]

# the axiom check compares both sides of every composable triple; they
# are counted first, and a groupoid with more is refused (about 1 s of
# checking at the limit on a 2-vCPU Xeon)
MAX_COMPOSABLE_TRIPLES = 1_000_000
# index differences formed at once by ``TransformationGroupoid.group_parts``
_DIFF_ROWS = 1 << 16


class FiniteGroupoid:
    """Explicit finite groupoid over hashable unit and arrow labels.

    ``compose`` maps composable pairs (g, h) with s(g) = r(h) to gh.  Units
    are embedded as identity arrows via ``unit_arrow``.  A checked groupoid
    with more than ``MAX_COMPOSABLE_TRIPLES`` composable triples raises
    ``TooLarge`` before any axiom is checked.
    """

    def __init__(
        self,
        units,
        arrows,
        source: dict,
        range_: dict,
        inverse: dict,
        compose_table: dict,
        unit_arrow: dict,
        check: bool = True,
    ):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self._source = source
        self._range = range_
        self._inverse = inverse
        self._compose = compose_table
        self._unit_arrow = unit_arrow
        self.unit_set = frozenset(self.units)
        self._free = None
        if check:
            self._check_axioms()

    # -- structure maps
    def source(self, g):
        return self._source[g]

    def range(self, g):
        return self._range[g]

    def inverse(self, g):
        return self._inverse[g]

    def unit_arrow(self, u):
        return self._unit_arrow[u]

    def compose(self, g, h):
        """gh if s(g) = r(h), else None."""
        return self._compose.get((g, h))

    # -- derived
    def isotropy_witness(self, at=None):
        """The first non-unit arrow with equal source and range, with that
        unit in ``at`` when given, or None."""
        for g in self.arrows:
            u = self.source(g)
            if u == self.range(g) and g != self.unit_arrow(u) and (at is None or u in at):
                return g
        return None

    def is_free(self) -> bool:
        """No isotropy; decided on the first call, read after."""
        if self._free is None:
            self._free = self.isotropy_witness() is None
        return self._free

    @cached_property
    def orbits(self) -> tuple[frozenset, ...]:
        """The orbits of the units: the components of the graph with an
        edge s(g) -- r(g) per arrow, in order of first appearance."""
        edges = ((self.source(a), self.range(a)) for a in self.arrows)
        return tuple(frozenset(c) for c in _connected_components(edges, self.units))

    def fiber(self, x) -> tuple:
        """The arrows with source x, in arrow order."""
        return tuple(a for a in self.arrows if self.source(a) == x)

    def regular_positions(self, basis, arrows) -> np.ndarray:
        """k x k array for a fiber basis of k arrows: [i, j] is the position
        in ``arrows`` of basis[i] basis[j]^-1, -1 where that arrow is not
        among them.  Each h in ``arrows`` and each basis arrow g_j with
        r(g_j) = s(h) place h at (h g_j, g_j)."""
        pos = {g: i for i, g in enumerate(basis)}
        by_range: dict = {}
        for j, g in enumerate(basis):
            by_range.setdefault(self.range(g), []).append(j)
        out = np.full((len(basis), len(basis)), -1, dtype=np.intp)
        for p, h in enumerate(arrows):
            for j in by_range.get(self.source(h), ()):
                out[pos[self.compose(h, basis[j])], j] = p
        return out

    def _check_axioms(self):
        by_source: dict = {}
        by_range: dict = {}
        for g in self.arrows:
            by_source.setdefault(self.source(g), []).append(g)
            by_range.setdefault(self.range(g), []).append(g)
        # (g, h, k) is composable when r(h) = s(g) and r(k) = s(h)
        fan_in = {u: len(hs) for u, hs in by_range.items()}
        paths = {u: sum(fan_in.get(self.source(h), 0) for h in hs) for u, hs in by_range.items()}
        triples = sum(paths.get(self.source(g), 0) for g in self.arrows)
        if triples > MAX_COMPOSABLE_TRIPLES:
            raise TooLarge(
                f"{triples} composable triples to check; the limit is {MAX_COMPOSABLE_TRIPLES}"
            )
        for u in self.units:
            e = self._unit_arrow[u]
            if self.source(e) != u or self.range(e) != u:
                raise InvalidInput(f"unit arrow of {u!r} has wrong endpoints")
        for g in self.arrows:
            if self.source(g) not in self.unit_set or self.range(g) not in self.unit_set:
                raise InvalidInput(f"arrow {g!r} has endpoints outside the unit space")
            gi = self.inverse(g)
            if self.inverse(gi) != g:
                raise InvalidInput(f"inverse map is not involutive at {g!r}")
            if self.source(gi) != self.range(g) or self.range(gi) != self.source(g):
                raise InvalidInput(f"inverse of {g!r} has wrong endpoints")
            if self.compose(g, gi) != self.unit_arrow(self.range(g)):
                raise InvalidInput(f"g g^-1 is not a unit at {g!r}")
            if self.compose(g, self.unit_arrow(self.source(g))) != g:
                raise InvalidInput(f"right unit law fails at {g!r}")
            if self.compose(self.unit_arrow(self.range(g)), g) != g:
                raise InvalidInput(f"left unit law fails at {g!r}")
        # composition defined exactly on composable pairs: every key is a
        # composable pair with a correctly placed value, and there are as
        # many keys as composable pairs
        arrow_set = frozenset(self.arrows)
        for (g, h), gh in self._compose.items():
            if g not in arrow_set or h not in arrow_set:
                raise InvalidInput(f"table key {(g, h)!r} is not a pair of arrows")
            if self.source(g) != self.range(h):
                raise InvalidInput(f"non-composable pair {(g, h)!r} present in table")
            if gh not in arrow_set:
                raise InvalidInput(f"composite of {(g, h)!r} is not an arrow")
            if self.source(gh) != self.source(h) or self.range(gh) != self.range(g):
                raise InvalidInput(f"composition endpoints wrong at {(g, h)!r}")
        pairs = sum(len(hs) * len(by_range.get(u, ())) for u, hs in by_source.items())
        if len(self._compose) != pairs:
            raise InvalidInput(
                f"composition table has {len(self._compose)} entries for {pairs} composable pairs"
            )
        # associativity over every composable triple
        for g in self.arrows:
            for h in by_range.get(self.source(g), ()):
                gh = self.compose(g, h)
                for k in by_range.get(self.source(h), ()):
                    if self.compose(gh, k) != self.compose(g, self.compose(h, k)):
                        raise InvalidInput(f"associativity fails at {(g, h, k)!r}")


def symmetrized(n: int, E) -> tuple:
    """{0} u E u -E in Z/n, sorted by repr: each e of E is an integer,
    read in Z/n through the quotient map e -> e mod n."""
    out = {0}
    for e in E:
        out.update((e % n, -e % n))
    return tuple(sorted(out, key=repr))


class TransformationGroupoid(FiniteGroupoid):
    """Z/n rotating its own residues 0..n-1: the arrow (g, x) runs from x
    to x + g mod n, and arrows compose by adding group parts mod n.

    The instance holds n and nothing it can derive: every structure map is
    arithmetic on residues.  An arrow with a group part or a point outside
    0..n-1 raises ``KeyError`` in ``range``.  Build through
    ``cyclic_rotation_groupoid``, which checks n.
    """

    def __init__(self, n: int):
        self.n = n
        self.units = tuple(range(n))
        self.unit_set = frozenset(self.units)
        self._free = None

    @cached_property
    def arrows(self) -> tuple:
        return tuple((g, x) for g in self.units for x in self.units)

    def moves(self, E) -> frozenset:
        """K for the generating set E, read in Z/n: the arrows (g, x) for g
        in ``symmetrized(n, E)`` and every residue x.  It is symmetric, as
        the symmetrized set is, and holds every unit arrow."""
        return frozenset((g, x) for g in symmetrized(self.n, E) for x in self.units)

    source = staticmethod(itemgetter(1))

    def range(self, a):
        g, x = a
        if g not in self.unit_set or x not in self.unit_set:
            raise KeyError(a)
        return (x + g) % self.n

    def inverse(self, a):
        return ((-a[0]) % self.n, self.range(a))

    def unit_arrow(self, u):
        return (0, u)

    def compose(self, g, h):
        """gh for arrows g, h of this groupoid if s(g) = r(h), else None."""
        if g[1] != self.range(h):
            return None
        return ((g[0] + h[0]) % self.n, h[1])

    def isotropy_witness(self, at=None):
        """None: a rotation of the residues fixes none of them."""
        return None

    @cached_property
    def orbits(self) -> tuple[frozenset, ...]:
        """The one orbit: every residue."""
        return (self.unit_set,)

    def fiber(self, x) -> tuple:
        return tuple((g, x) for g in self.units)

    def group_parts(self, gen: BlockArrows) -> set:
        """The group parts of the arrows of a subgroupoid, which is in block
        form since the rotation is free: on each block, the differences of
        its residues mod n, a bounded number of rows at a time."""
        found = np.zeros(self.n, dtype=bool)
        for b in gen.blocks:
            idx = np.fromiter(b, np.intp, len(b))
            rows = max(1, _DIFF_ROWS // len(idx))
            for lo in range(0, len(idx), rows):
                found[(idx - idx[lo:lo + rows, None]) % self.n] = True
        return set(np.flatnonzero(found).tolist())


def cyclic_rotation_groupoid(n: int) -> TransformationGroupoid:
    """Z/n acting on its residues by rotation, for an order n >= 1."""
    if n < 1:
        raise InvalidInput(f"Z/n needs a positive order n, not {n}")
    return TransformationGroupoid(n)


def transformation_groupoid(n: int, space) -> TransformationGroupoid:
    """``cyclic_rotation_groupoid(n)`` for the points 0..n-1 in order, the
    one space Z/n rotates here; any other ``space`` raises NotAnAction."""
    space = tuple(space)
    if space != tuple(range(n)):
        raise NotAnAction(f"Z/{n} rotates the residues 0..{n - 1} in order; got {space[:5]!r}")
    return cyclic_rotation_groupoid(n)


def pair_groupoid(points) -> FiniteGroupoid:
    """Full pair groupoid: arrows (x, y) from y to x."""
    return block_union_pair_groupoid([tuple(points)])


def block_union_pair_groupoid(blocks) -> FiniteGroupoid:
    """Disjoint union of full pair groupoids over the given blocks."""
    blocks = [tuple(b) for b in blocks]
    units = tuple(u for b in blocks for u in b)
    arrows = tuple((x, y) for b in blocks for x in b for y in b)
    return FiniteGroupoid(
        units, arrows,
        source={a: a[1] for a in arrows},
        range_={a: a[0] for a in arrows},
        inverse={a: (a[1], a[0]) for a in arrows},
        compose_table={
            ((x, y), (y, z)): (x, z) for b in blocks for x in b for y in b for z in b
        },
        unit_arrow={u: (u, u) for u in units},
        check=len(arrows) <= 400,
    )


# ---------------------------------------------------------------------------
# implicit pair groupoid over a metric tube


@dataclass(frozen=True)
class TubeArrows:
    """The arrow set {(x, y) : d(x, y) <= radius} kept implicit."""

    radius: int


@dataclass(frozen=True)
class BlockArrows:
    """A subgroupoid of a free groupoid as a partition of units: the arrows
    joining two units of one block.  A free groupoid has at most one arrow
    between two units, so ``len`` counts the arrows exactly."""

    blocks: frozenset[frozenset]

    def __len__(self) -> int:
        return sum(len(b) ** 2 for b in self.blocks)

    @cached_property
    def label(self) -> dict:
        """unit -> index of its block."""
        return {u: i for i, b in enumerate(self.blocks) for u in b}

    def holds(self, G, a) -> bool:
        """Whether arrow ``a`` of G has both endpoints in one block."""
        s = self.label.get(G.source(a))
        return s is not None and s == self.label.get(G.range(a))


class TubePairGroupoid:
    """Pair groupoid of a finite metric space restricted to a tube.

    Composition is partial: (x, y)(y, z) = (x, z) only when d(x, z) stays
    within the ambient radius.  Used as the finite stand-in for the coarse
    groupoid of the space.
    """

    def __init__(self, space, radius: int):
        self.space = space
        self.radius = int(radius)
        self.units = tuple(space.points)
        self.unit_set = frozenset(self.units)

    # (x, y) is the arrow from y to x
    source = staticmethod(itemgetter(1))
    range = staticmethod(itemgetter(0))

    def inverse(self, a):
        return (a[1], a[0])

    def compose(self, a, b):
        if a[1] != b[0]:
            return None
        if self.space.dist(a[0], b[1]) > self.radius:
            return None
        return (a[0], b[1])

    def is_free(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# subgroupoid generation


def _connected_components(pairs, units=()) -> list[list]:
    """Connected components of the graph on ``units`` plus the endpoints
    of ``pairs``, with an edge per pair; in order of first appearance."""
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


def generate_subgroupoid(G, seed):
    """Least subgroupoid of G containing ``seed``.

    In a free groupoid an arrow is fixed by its source and range, so the
    result is the pair groupoid over the connected components of the seed
    graph, returned as ``BlockArrows``.  The seed is arrows, or a
    ``_UnitSeed`` that gives the graph itself (the tube arrows inside a
    color, or K^3's inside a color).  A tube seed on a lattice space has
    for components the color's r-components read off the label array;
    every other seed takes the union-find over its pairs.  Groupoids with
    isotropy take the worklist closure and return a frozenset of arrows.
    """
    if not G.is_free():
        return _closure(G, seed)
    if isinstance(seed, _UnitSeed):
        comps = None if seed.lattice is None else seed.lattice.components(seed.units, seed.radius)
        if comps is None:
            comps = _connected_components(seed)
    else:
        comps = _connected_components((G.source(a), G.range(a)) for a in seed)
    return BlockArrows(frozenset(frozenset(c) for c in comps))


def _closure(G, seed) -> frozenset:
    """Worklist closure of ``seed`` under inverse, endpoint units, and
    composition, for explicit groupoids with or without isotropy."""
    by_source: dict = {}
    by_range: dict = {}
    result: set = set()
    queue: list = []

    def push(a):
        if a not in result:
            result.add(a)
            by_source.setdefault(G.source(a), []).append(a)
            by_range.setdefault(G.range(a), []).append(a)
            queue.append(a)

    for a in seed:
        push(a)
    while queue:
        a = queue.pop()
        push(G.inverse(a))
        push(G.unit_arrow(G.source(a)))
        push(G.unit_arrow(G.range(a)))
        for b in list(by_range.get(G.source(a), ())):
            c = G.compose(a, b)
            if c is not None:
                push(c)
        for b in list(by_source.get(G.range(a), ())):
            c = G.compose(b, a)
            if c is not None:
                push(c)
    return frozenset(result)


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class GroupoidDadWitness:
    """K plus colors on units plus the declared generated subgroupoids."""

    K: object  # frozenset of arrows, or TubeArrows
    colors: list[frozenset]
    generated: list  # per color: BlockArrows (a frozenset under isotropy) or None
    meta: dict = field(default_factory=dict)


def _endpoint_units(G, K):
    if isinstance(K, TubeArrows):
        return frozenset(G.units)
    out = set()
    for a in K:
        out.add(G.source(a))
        out.add(G.range(a))
    return frozenset(out)


@dataclass(frozen=True)
class _UnitSeed:
    """The arrows of a free groupoid with both endpoints in ``units``, kept
    as a unit graph: ``near(x)`` gives the units one arrow away from x.
    Iterating gives one pair per edge, which is enough to generate; x in
    ``near(x)`` keeps isolated units.  A tube seed carries its space's
    lattice (None off the grids) and radius for the label-array path."""

    units: frozenset
    near: Callable
    lattice: object = None
    radius: int = 0

    def __iter__(self):
        for x in self.units:
            for y in self.near(x):
                if y in self.units:
                    yield (x, y)


def _seed_in_color(G, K, color):
    if isinstance(K, TubeArrows):
        space, r = G.space, K.radius
        # one pair (x, y), y >= x, per unordered pair of the tube
        near = lambda x: (y for y in space.iter_ball(x, r) if y >= x)  # noqa: E731
        return _UnitSeed(frozenset(color), near, space.lattice, r)
    return [a for a in K if G.source(a) in color and G.range(a) in color]


def verify_groupoid_dad(G, witness: GroupoidDadWitness, size_bound: int | None) -> VerificationReport:
    """Check that colors cover s(K) u r(K) and every color generates a
    subgroupoid of at most ``size_bound`` arrows equal to the declared one."""
    needed = _endpoint_units(G, witness.K)
    colors = list(map(frozenset, witness.colors))
    covered = set()
    for c in colors:
        bad = c - G.unit_set
        if bad:
            return VerificationReport(False, "CoverGap", f"color uses unknown units {sorted(map(repr, bad))[:3]}")
        covered |= c
    if not needed <= covered:
        missing = sorted(map(repr, needed - covered))[:5]
        return VerificationReport(
            False, "CoverGap", f"colors do not cover s(K) u r(K); missing {missing}",
            {"missing_count": len(needed - covered)},
        )

    sizes = []
    for i, color in enumerate(colors):
        gen = generate_subgroupoid(G, _seed_in_color(G, witness.K, color))
        if isinstance(G, TubePairGroupoid):
            # containment in the ambient tube
            for b in gen.blocks:
                diam = G.space.subset_diameter(b)
                if diam > G.radius:
                    return VerificationReport(
                        False, "NotClosed",
                        f"color {i}: generated blocks leave the ambient tube "
                        f"(block diameter {diam} > {G.radius})",
                        {"color": i, "diameter": diam},
                    )
        size = len(gen)
        sizes.append(size)
        if size_bound is not None and size > size_bound:
            return VerificationReport(
                False, "SizeExceeded",
                f"color {i}: generated subgroupoid has {size} arrows > bound {size_bound}",
                {"color": i, "size": size, "size_bound": size_bound},
            )
        declared = witness.generated[i]
        if declared is not None and declared != gen:
            return VerificationReport(
                False, "NotClosed",
                f"color {i}: declared subgroupoid differs from the generated one",
                {"color": i},
            )
    return VerificationReport(
        True, "ok", "groupoid witness verified",
        {"sizes": sizes, "size_bound": size_bound},
    )


# ---------------------------------------------------------------------------
# serialization


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    """The Z/n rotation of an ``{"action": {"cyclic": n}}`` file, or the
    explicit groupoid of a file of units, arrows, compose table and inverse
    map; every arrow id is a JSON integer, and an inverse key its
    canonical decimal text."""

    def arrow_id(value) -> int:
        return integer(value, "arrow id")

    with malformed("groupoid"):
        if "action" in data:
            return cyclic_rotation_groupoid(positive_int(data["action"]["cyclic"], "order"))
        units = [tuple(u) if isinstance(u, list) else u for u in data["units"]]
        source = {}
        range_ = {}
        for a in data["arrows"]:
            g = arrow_id(a["id"])
            source[g] = tuple(a["s"]) if isinstance(a["s"], list) else a["s"]
            range_[g] = tuple(a["r"]) if isinstance(a["r"], list) else a["r"]
        compose = {
            (arrow_id(g), arrow_id(h)): arrow_id(gh) for g, h, gh in data["compose"]
        }
        if "inverse" not in data:
            raise InvalidInput("explicit groupoid files must carry an 'inverse' map")
        inverse = {g: arrow_id(v) for g, v in int_keys(data["inverse"], "inverse").items()}
        if not all(g in inverse and inverse[g] in source for g in source):
            raise InvalidInput("the inverse map must send every arrow id to an arrow id")
        # identity candidates: the idempotent loops, grouped by unit (a
        # TypeError here is a unit that is not hashable)
        loops: dict = {}
        for g, s in source.items():
            if s == range_[g] and compose.get((g, g)) == g:
                loops.setdefault(s, []).append(g)
        loops_at = {u: loops.get(u, []) for u in units}
    for u, cands in loops_at.items():
        if len(cands) != 1:
            raise InvalidInput(f"unit {u!r} needs exactly one idempotent identity arrow")
    unit_arrow = {u: cands[0] for u, cands in loops_at.items()}
    return FiniteGroupoid(units, sorted(source), source, range_, inverse, compose, unit_arrow)
