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
  ``moves(E)`` gives the symmetric arrow set K of a generating set E, read
  in Z through the quotient map to Z/n, as a ``Moves``: n and the offsets
  of its full classes, which every layer reads as arrays;
* ``TubePairGroupoid`` -- the pair groupoid of a finite metric space
  restricted to a tube radius, with arrows kept implicit.

Components of a graph on units come from one kernel,
``_edge_components``: edge endpoints as unit positions in, each node's
least position in its component out.  An explicit groupoid computes its
orbits with it once, over its arrows.  A subgroupoid of a free groupoid
has one form, ``BlockArrows``: an arrow is fixed by its source and range,
so a subgroupoid is the pair groupoid over a partition of some units (one
matrix algebra per block).  Generation reads the blocks off the
components of the seed graph, and consumers read sizes and group parts
from them; the norms and the partition-of-unity layer read the kernel's
labels directly.  The worklist closure (a frozenset of arrows) runs only
on groupoids with isotropy.

Finiteness stands in for relative compactness throughout: a witness is
accepted when each color's generated subgroupoid is small against an
explicit size bound.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import InvalidInput, NotAnAction, TooLarge, int_keys, integer, malformed, positive_int
from .reporting import VerificationReport

__all__ = [
    "FiniteGroupoid",
    "TransformationGroupoid",
    "TubePairGroupoid",
    "BlockArrows",
    "Moves",
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
    def index(self) -> dict:
        """unit -> its position in ``units``."""
        return {u: i for i, u in enumerate(self.units)}

    @cached_property
    def orbits(self) -> tuple[frozenset, ...]:
        """The orbits of the units: the components of the graph with an
        edge s(g) -- r(g) per arrow and a loop at every unit, in order of
        their first units."""
        n, loops = len(self.units), np.arange(len(self.units))
        src, rng = _positions(self, self.arrows)
        label = _edge_components(n, np.concatenate([src, loops]), np.concatenate([rng, loops]))
        return tuple(_blocks(self.units, label))

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


def _shared(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # shared by every layer that reads one K
    return a


class Moves(Set):
    """A union of full classes {(g, x) : x in Z/n} of arrows of Z/n rotating
    its residues, held as n and the sorted distinct offsets g: a set of the
    arrows (g, x), offset by offset and then by residue, with O(1) ``in``.
    The layers read it as the gather arrays ``to[j, x]`` = x + g_j and
    ``back[j, x]`` = x - g_j mod n, built on first use; the array methods
    take one residue mask, or a (layers, n) stack of them."""

    def __init__(self, n: int, offsets: np.ndarray):
        self.n = n
        self.offsets = _shared(offsets)
        self._parts = frozenset(offsets.tolist())

    @classmethod
    def read(cls, n: int, K) -> Moves | None:
        """K as ``Moves`` of Z/n, or None unless K is a union of full classes
        of arrows (g, x), pairs of ints in 0..n-1."""
        if isinstance(K, Moves) and K.n == n:
            return K
        try:
            pairs = list(K)
            ints = list(chain.from_iterable(pairs))
            ok = set(map(len, pairs)) <= {2} and set(map(type, ints)) <= {int}
            flat = np.fromiter(ints, np.int64, len(ints)) if ok else None
        except (TypeError, OverflowError):
            return None
        if not ok or ((flat < 0) | (flat >= n)).any():
            return None
        g, x = flat[0::2], flat[1::2]
        has = np.zeros(n, bool)
        has[g] = True
        offsets = np.flatnonzero(has)
        seen = np.zeros((len(offsets), n), bool)
        seen[np.searchsorted(offsets, g), x] = True
        return cls(n, offsets) if seen.all() else None

    def __len__(self) -> int:
        return len(self.offsets) * self.n

    def __iter__(self):
        return ((g, x) for g in self.offsets.tolist() for x in range(self.n))

    def __contains__(self, a) -> bool:
        """Whether ``a`` equals an arrow, as for a frozenset; never raises."""
        if not isinstance(a, tuple) or len(a) != 2:
            return False
        try:
            return a[0] in self._parts and int(a[1]) == a[1] and 0 <= a[1] < self.n
        except (TypeError, ValueError, OverflowError):
            return False

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    @cached_property
    def to(self) -> np.ndarray:
        return _shared((np.arange(self.n) + self.offsets[:, None]) % self.n)

    @cached_property
    def back(self) -> np.ndarray:
        return _shared((np.arange(self.n) - self.offsets[:, None]) % self.n)

    def near(self, masks: np.ndarray) -> np.ndarray:
        """s(K cap r^-1(mask)): the residues x with x + g in the mask for
        some offset g."""
        return masks[..., self.to].any(axis=-2)

    def step(self, masks: np.ndarray) -> np.ndarray:
        """One K-propagation step: the mask together with its ``near``."""
        return masks | self.near(masks)

    def components(self, masks: np.ndarray) -> np.ndarray:
        """The blocks of the subgroupoid that the arrows inside a mask
        generate: per residue, the least residue of its component in the
        graph with an edge x -- x + g for every offset g joining two
        residues of the mask, and -1 for a residue on no edge (isolated
        residues are on their unit arrow when 0 is an offset).  The masks
        of a stack are the layers of one graph, its nodes the positions
        layer * n + x, and ``_edge_components`` takes its edges."""
        n = self.n
        stack = masks.reshape(-1, n)
        layer, x = np.nonzero(stack)
        to = self.to[:, x]
        hit = stack[layer, to]
        base = layer * n
        label = _edge_components(stack.size, (base + x)[np.nonzero(hit)[1]], (base + to)[hit])
        return np.where(label >= 0, label % n, -1).reshape(masks.shape)


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

    def moves(self, E) -> Moves:
        """K for the generating set E, read in Z/n: the arrows (g, x) for g
        in ``symmetrized(n, E)`` and every residue x.  It is symmetric, as
        the symmetrized set is, and holds every unit arrow."""
        return Moves(self.n, np.sort(np.array(symmetrized(self.n, E), np.intp)))

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

    @property
    def index(self) -> range:
        """Each residue is its own position in ``units``."""
        return range(self.n)

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
    between two units, so ``len`` counts the arrows exactly.  The blocks
    are a frozenset of frozensets, or any set of sets of units (the coarse
    bridge declares its classes)."""

    blocks: Set

    def __len__(self) -> int:
        return sum(len(b) ** 2 for b in self.blocks)


class TubePairGroupoid:
    """Pair groupoid of a finite metric space restricted to a tube.

    Composition is partial: (x, y)(y, z) = (x, z) only when d(x, z) stays
    within the ambient radius.  Used as the finite stand-in for the coarse
    groupoid of the space.
    """

    def __init__(self, space, radius: int):
        self.space = space
        self.radius = int(radius)

    # built only off the lattice: a grid's tube is checked on cells
    @cached_property
    def units(self) -> tuple:
        return tuple(self.space.points)

    @cached_property
    def unit_set(self) -> frozenset:
        return frozenset(self.units)

    index = FiniteGroupoid.index  # unit -> position, built on first use

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


def _edge_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of the graph on the nodes 0..n-1 with an edge a[k] -- b[k]
    for each k: per node, the least node of its component, and -1 for a
    node on no edge (a loop puts its node on one).  Minimum labels are
    hooked along the edges and compressed by pointer jumping until every
    edge joins one label (the Shiloach-Vishkin scheme): the least node of a
    component only ever points at itself, so it ends as the one root."""
    touched = np.zeros(n, bool)
    touched[a] = True
    touched[b] = True
    apart = a != b
    a, b = a[apart], b[apart]
    label = np.arange(n)
    while a.size:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            break
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    return np.where(touched, label, -1)


def _positions(G, arrows) -> tuple[np.ndarray, np.ndarray]:
    """The sources and ranges of a list of arrows, as positions in
    ``G.units``; on the rotation, of an int array with a row (g, x) per
    arrow, x and x + g mod n."""
    if isinstance(arrows, np.ndarray):
        g, x = arrows.T
        return x, (x + g) % G.n
    index, m = G.index, len(arrows)
    return (
        np.fromiter((index[G.source(a)] for a in arrows), np.intp, m),
        np.fromiter((index[G.range(a)] for a in arrows), np.intp, m),
    )


def _blocks(units, label: np.ndarray) -> list[frozenset]:
    """The units that share each label, in order of their first units;
    -1 labels no block."""
    blocks: dict = {}
    for u, k in zip(units, label.tolist()):
        if k >= 0:
            blocks.setdefault(k, []).append(u)
    return [frozenset(b) for b in blocks.values()]


def generate_subgroupoid(G, seed):
    """Least subgroupoid of G containing the arrows of ``seed``.

    In a free groupoid an arrow is fixed by its source and range, so the
    result is the pair groupoid over the connected components of the seed
    graph (``_edge_components`` on the positions of the seed's ends),
    returned as ``BlockArrows``.  Groupoids with isotropy take the worklist
    closure and return a frozenset of arrows.
    """
    if not G.is_free():
        return _closure(G, seed)
    if not isinstance(seed, np.ndarray):
        seed = list(seed)
    label = _edge_components(len(G.units), *_positions(G, seed))
    return BlockArrows(frozenset(_blocks(G.units, label)))


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

    K: object  # Moves on Z/n, TubeArrows on a tube, or any set of arrows
    colors: list[Set]  # sets of units (frozensets, or the coarse bridge's views)
    generated: list  # per color: BlockArrows (a frozenset under isotropy) or None
    meta: dict = field(default_factory=dict)


def _of_rotation(G, K) -> bool:
    """Whether K is the ``Moves`` of an arrow set of G, a rotation."""
    return isinstance(K, Moves) and isinstance(G, TransformationGroupoid) and K.n == G.n


def _endpoint_units(G, K):
    """s(K) u r(K): every unit for the tube, and for the moves of the
    rotation unless they have no offset; any other K is scanned."""
    if isinstance(K, TubeArrows) or _of_rotation(G, K) and len(K.offsets):
        return G.unit_set
    out = set()
    for a in K:
        out.add(G.source(a))
        out.add(G.range(a))
    return frozenset(out)


def _seeds(G, K, colors):
    """The seed of each color in turn: the arrows of K with both ends in
    it.  For the tube, one arrow (x, y) with y >= x per pair within the
    tube radius, (x, x) included.  For the ``Moves`` of the rotation a
    color's seed is an int row (g, x) per entry of ``to`` whose residue x
    and image x + g mod n lie in the color, in K's order.  Any other K is
    scanned per color, where an arrow outside Z/n raises ``KeyError`` in
    ``range`` once the scan meets it with its source in the color."""
    if isinstance(K, TubeArrows):
        space, r = G.space, K.radius
        for color in colors:
            yield [(x, y) for x in color for y in space.iter_ball(x, r) if y >= x and y in color]
        return
    if not _of_rotation(G, K):
        for color in colors:
            yield [a for a in K if G.source(a) in color and G.range(a) in color]
        return
    for color in colors:
        inside = np.fromiter(map(color.__contains__, G.units), bool, G.n)
        j, x = np.nonzero(inside[K.to] & inside)
        yield np.stack([K.offsets[j], x], axis=1)


class _CellBlocks:
    """The blocks that the tube arrows generate inside one color of a
    lattice space, as labels over the color's cells (in its iteration
    order, such as the order of the color's classes in the bridge): each
    cell carries the least cell of its block, its r-component in the
    color (see ``_component_labels``; for r < 0 no cell is in a block, and
    the labels are empty).  It stands in for the ``BlockArrows`` of
    ``generate_subgroupoid`` without a set per block; blocks go in order
    of their least cells."""

    def __init__(self, lat, color: Set, cells: np.ndarray, labels: np.ndarray):
        self.lat, self.color, self.cells, self.labels = lat, color, cells, labels
        self.order = np.argsort(labels, kind="stable")
        self.starts = np.flatnonzero(np.diff(labels[self.order], prepend=-1))
        self.sizes = np.diff(self.starts, append=len(labels))

    def __len__(self) -> int:
        return int(self.sizes @ self.sizes)

    def wider_than(self, radius: int):
        """The first block of diameter over ``radius``, as a frozenset of the
        color's points, or None: the points whose cells are that block's,
        in the color's iteration order."""
        row = np.split(self.cells[self.order], self.starts[1:]) if len(self.starts) else []
        k = next((k for k, d in enumerate(self.lat.diameters(row)) if d > radius), None)
        if k is None:
            return None
        inside = np.zeros(self.lat.size, dtype=bool)
        inside[row[k]] = True
        return frozenset(p for p, t in zip(self.color, inside[self.cells]) if t)

    def matches(self, declared) -> bool:
        """Whether ``declared`` equals the ``BlockArrows`` of these blocks.

        Its blocks, each a set of units read into cells, must be as many
        as the components and hold as many cells as the color, all of
        them: then they partition the color's cells, and they are the
        components when each cell's block and component have the same
        least cell."""
        if type(declared) is not BlockArrows or not isinstance(declared.blocks, Set):
            return False
        blocks = list(declared.blocks)
        if len(blocks) != len(self.sizes):
            return False
        if not blocks:
            return True
        if not all(isinstance(b, Set) and b for b in blocks) or (
            sum(map(len, blocks)) != len(self.cells)
        ):
            return False
        owner = np.full(self.lat.size, -1, dtype=np.intp)
        least = np.empty(len(blocks), dtype=np.intp)
        for j, c in enumerate(map(self.lat.cells_of, blocks)):
            if (c < 0).any():
                return False
            owner[c] = j
            least[j] = c.min()
        mine = owner[self.cells]
        return bool((mine >= 0).all() and (least[mine] == self.labels).all())


def _component_labels(lat, cells: list, r: int) -> list:
    """For each color, given by its cells, the least cell of each cell's
    r-component within the color, and no cell at all for r < 0 (no pair is
    within r, not even (x, x)).  The cover check has put every cell in a
    color, so colors with as many cells as the box are disjoint and take
    one propagation together; otherwise each color takes its own."""
    if r < 0:
        return [c[:0] for c in cells]
    group = np.full(lat.size, -1, dtype=np.intp)
    if sum(map(len, cells)) == lat.size:
        for i, c in enumerate(cells):
            group[c] = i
        every = lat.components(group, r)
        return [every[c] for c in cells]
    out = []
    for c in cells:
        group[:] = -1
        group[c] = 0
        out.append(lat.components(group, r)[c])
    return out


def _unknown_units(bad) -> VerificationReport:
    return VerificationReport(False, "CoverGap", f"color uses unknown units {sorted(map(repr, bad))[:3]}")


def _uncovered_units(missing) -> VerificationReport:
    missing = sorted(map(repr, missing))
    return VerificationReport(
        False, "CoverGap", f"colors do not cover s(K) u r(K); missing {missing[:5]}",
        {"missing_count": len(missing)},
    )


def _cover_fault(G, K, colors: list):
    """The first cover fault of the colors, or None."""
    needed = _endpoint_units(G, K)
    covered: set = set()
    for c in colors:
        bad = c - G.unit_set
        if bad:
            return _unknown_units(bad)
        covered |= c
    if not needed <= covered:
        return _uncovered_units(needed - covered)
    return None


def _cell_cover_fault(lat, colors: list):
    """``_cover_fault`` for the tube of a lattice space, whose every unit
    needs a color, on the colors' cells, each color's in its iteration
    order: (fault, None) or (None, cells)."""
    cells = [lat.cells_of(c) for c in colors]
    covered = np.zeros(lat.size, dtype=bool)
    for c, cc in zip(colors, cells):
        if (cc < 0).any():
            return _unknown_units([p for p, x in zip(c, cc < 0) if x]), None
        covered[cc] = True
    missing = np.flatnonzero(~covered)
    if len(missing):
        return _uncovered_units(map(lat.point, missing)), None
    return None, cells


def verify_groupoid_dad(G, witness: GroupoidDadWitness, size_bound: int | None) -> VerificationReport:
    """Check that colors cover s(K) u r(K) and every color generates a
    subgroupoid of at most ``size_bound`` arrows equal to the declared one.

    On the tube of a lattice space (a ``TubePairGroupoid`` over a grid, K a
    ``TubeArrows``) every step reads cells: each color is read into cells
    once and the cover is a mask, each color's blocks are its r-components
    labelled over its cells (``_CellBlocks``), and each declared block is
    read into cells once, a second labeling of the same cells.  There a
    color that is a ``collections.abc.Set`` (a frozenset, or a color of the
    coarse bridge) is read as it is, any other becomes a frozenset, and a
    declared block may be any set of units.  Everywhere
    else each color generates its subgroupoid with
    ``generate_subgroupoid``.  Both give the same report, except that when
    several blocks leave the ambient tube they may name different ones.
    On the rotation K is read once through ``Moves.read``; a K that is no
    union of full classes is scanned per arrow, as on explicit groupoids.
    """
    return _verify_dad(G, witness, size_bound)


def _verify_dad(G, witness: GroupoidDadWitness, size_bound: int | None):
    """The body of ``verify_groupoid_dad``, which the coarse bridge calls,
    so that timing the public verifier by name leaves the bridge out."""
    K = witness.K
    if isinstance(G, TransformationGroupoid):
        moves = Moves.read(G.n, K)
        K = K if moves is None else moves
    tube = isinstance(G, TubePairGroupoid) and isinstance(K, TubeArrows)
    lat = G.space.lattice if tube else None
    if lat is None:
        colors = list(map(frozenset, witness.colors))
        fault, cells = _cover_fault(G, K, colors), None
    else:
        colors = [c if isinstance(c, Set) else frozenset(c) for c in witness.colors]
        fault, cells = _cell_cover_fault(lat, colors)
    if fault is not None:
        return fault

    labels = None if lat is None else _component_labels(lat, cells, K.radius)
    seeds = _seeds(G, K, colors) if lat is None else None
    sizes = []
    for i in range(len(colors)):
        if lat is None:
            gen = generate_subgroupoid(G, next(seeds))
            blocks = gen.blocks if isinstance(G, TubePairGroupoid) else ()
            wide = next((b for b in blocks if G.space.subset_diameter(b) > G.radius), None)
        else:
            gen = _CellBlocks(lat, colors[i], cells[i], labels[i])
            wide = gen.wider_than(G.radius)
        if wide is not None:
            # containment in the ambient tube
            diam = G.space.subset_diameter(wide)
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
        if declared is not None and not (
            declared == gen if lat is None else gen.matches(declared)
        ):
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
    canonical decimal text.  An arrow id or a compose pair named twice is
    refused, not merged."""

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
            if g in source:
                raise InvalidInput(f"groupoid names arrow id {g} twice")
            source[g] = tuple(a["s"]) if isinstance(a["s"], list) else a["s"]
            range_[g] = tuple(a["r"]) if isinstance(a["r"], list) else a["r"]
        compose = {}
        for g, h, gh in data["compose"]:
            pair = (arrow_id(g), arrow_id(h))
            if pair in compose:
                raise InvalidInput(f"compose table names the pair {pair!r} twice")
            compose[pair] = arrow_id(gh)
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
