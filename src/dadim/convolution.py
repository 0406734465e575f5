"""Convolution *-algebra of a finite groupoid and the cut-down estimates.

Elements are finitely supported coefficient maps on arrows; the product is

    (f1 f2)(g) = sum over g1 g2 = g of f1(g1) f2(g2),

and the reduced norm is the sup over units x of ||pi_x(f)||.  On a free
groupoid pi_x(f) is block diagonal, one block per component of the support
graph of f, so the norm is the largest block norm of ``block_decompose``;
under isotropy it is the largest over one unit per orbit of the
regular-representation matrix on the source fiber.
Coefficients stay exact (Fraction pairs) under the algebra operations;
norms are computed in floats as largest singular values (LAPACK SVD).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GroupoidMismatch, InvalidInput, NotFree, SupportLeak
from .groupoid import BlockArrows, generate_subgroupoid

__all__ = [
    "ConvElement",
    "RegularRep",
    "BlockDecomposition",
    "convolve",
    "reduced_norm",
    "regular_representation",
    "cutdown",
    "commutator_report",
    "decompose_via_pou",
    "block_decompose",
    "spectral_norm",
]

NORM_TOL = 1e-9


def _cnum(z):
    """Normalize a scalar to an exact-friendly (re, im) pair."""
    if isinstance(z, tuple):
        return z
    if isinstance(z, complex):
        return (z.real, z.imag)
    return (z, 0)


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def _to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


@dataclass
class ConvElement:
    """Finitely supported function on the arrows of a finite groupoid."""

    G: object
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {
            g: _cnum(z) for g, z in self.coeffs.items() if not _is_zero(_cnum(z))
        }

    @classmethod
    def delta(cls, G, arrow, value=1) -> "ConvElement":
        return cls(G, {arrow: _cnum(value)})

    def support(self):
        return frozenset(self.coeffs)

    def scale(self, z) -> "ConvElement":
        z = _cnum(z)
        return ConvElement(self.G, {g: _cmul(z, c) for g, c in self.coeffs.items()})

    def add(self, other: "ConvElement") -> "ConvElement":
        if other.G is not self.G:
            raise GroupoidMismatch("elements live on different groupoids")
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = _cadd(out.get(g, (0, 0)), c)
        return ConvElement(self.G, out)

    def sub(self, other: "ConvElement") -> "ConvElement":
        return self.add(other.scale(-1))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        if isinstance(other, ConvElement):
            return convolve(self, other)
        return self.scale(other)

    def pointwise(self, weight) -> "ConvElement":
        """Pointwise product with a scalar function on arrows."""
        return ConvElement(
            self.G, {g: _cmul(_cnum(weight(g)), c) for g, c in self.coeffs.items()}
        )

    def to_json(self, arrow_key=repr) -> list:
        return sorted(
            [arrow_key(g), str(c[0]), str(c[1])] for g, c in self.coeffs.items()
        )


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
            out[gh] = _cadd(out.get(gh, (0, 0)), _cmul(cg, ch))
    return ConvElement(G, out)


# ---------------------------------------------------------------------------
# regular representations and the reduced norm


@dataclass
class RegularRep:
    """pi_x(f) on the source fiber of x: entry (i, j) is f(g_i g_j^-1),
    kept as ``index``, positions into ``values`` (the coefficients of f)
    with -1 for a zero entry."""

    x: object
    basis: tuple
    values: tuple
    index: np.ndarray

    def to_numpy(self) -> np.ndarray:
        """Each coefficient converted to a complex once, then gathered."""
        return np.array([_to_complex(c) for c in self.values] + [0j])[self.index]


def regular_representation(f: ConvElement, x) -> RegularRep:
    """pi_x(f) on the fiber of x sorted by repr; the groupoid places the
    support of f in the matrix (``regular_positions``)."""
    G = f.G
    basis = tuple(sorted(G.fiber(x), key=repr))
    return RegularRep(x, basis, tuple(f.coeffs.values()), G.regular_positions(basis, tuple(f.coeffs)))


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of A (LAPACK SVD); 0.0 for an empty matrix."""
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def reduced_norm(f: ConvElement) -> float:
    """sup over units of ||pi_x(f)||.  On a free groupoid pi_x(f) permutes
    to one block per component of the support graph of f (zero elsewhere),
    so the norm is the largest block norm over the subgroupoid f generates.
    Under isotropy one representative per orbit suffices, because the
    regular representations along an orbit are unitarily conjugate, and
    orbits missing the support contribute zero."""
    G = f.G
    if G.is_free():
        return block_decompose(G, generate_subgroupoid(G, f.coeffs)).max_block_norm(f)
    touched = {u for g in f.coeffs for u in (G.source(g), G.range(g))}
    best = 0.0
    for orbit in G.orbits:
        if touched.isdisjoint(orbit):
            continue
        rep = regular_representation(f, min(orbit, key=repr))
        best = max(best, spectral_norm(rep.to_numpy()))
    return best


# ---------------------------------------------------------------------------
# cut-downs and commutators


def cutdown(f: ConvElement, phi: dict) -> ConvElement:
    """phi f phi for a real function phi on units, given as a dict (0 where
    absent): coefficients phi(r(g)) f(g) phi(s(g))."""
    G = f.G
    return f.pointwise(lambda g: phi.get(G.range(g), 0) * phi.get(G.source(g), 0))


def _min_bisection_cover(G, arrows):
    """Fewest r- and s-injective pieces covering the arrow set, and whether
    that count is exact.

    Arrows form a bipartite multigraph between source units and range
    units; a bisection is a matching, so the cover number is the chromatic
    index, which for bipartite graphs equals the maximum fiber degree
    (König's theorem).  Up to 64 arrows that degree is returned as exact;
    above, a greedy coloring gives an upper bound, flagged.
    """
    if len(arrows) <= 64:
        deg = Counter(("s", G.source(a)) for a in arrows)
        deg.update(("r", G.range(a)) for a in arrows)
        return max(deg.values(), default=0), True
    used: set = set()  # (node, color)
    count = 0
    for a in sorted(arrows, key=repr):
        u = ("s", G.source(a))
        v = ("r", G.range(a))
        c = 0
        while (u, c) in used or (v, c) in used:
            c += 1
        used.add((u, c))
        used.add((v, c))
        count = max(count, c + 1)
    return count, False


def commutator_report(f: ConvElement, phi: dict) -> dict:
    """[f, phi](g) = f(g) (phi(s(g)) - phi(r(g))), its norm, the oscillation
    of phi over supp f, and the bisection-cover constant of supp f; phi as
    for ``cutdown``."""
    G = f.G
    comm = f.pointwise(lambda g: phi.get(G.source(g), 0) - phi.get(G.range(g), 0))
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


# ---------------------------------------------------------------------------
# block decomposition of free finite groupoids


@dataclass
class BlockDecomposition:
    """Blocks of a subgroupoid of a free groupoid with matrix-unit
    coordinates: the arrow from s to r is e_{r, s} in the block of both."""

    G: object
    classes: list  # list of (base unit, tuple of units)

    def sizes(self) -> list[int]:
        return [len(units) for _, units in self.classes]

    @cached_property
    def where(self) -> dict:
        """unit -> (class index, position in its class)."""
        return {u: (k, i) for k, (_, units) in enumerate(self.classes) for i, u in enumerate(units)}

    def block_matrices(self, f: ConvElement) -> list[np.ndarray]:
        mats = [np.zeros((m, m), dtype=complex) for m in self.sizes()]
        for g, c in f.coeffs.items():
            s = self.where.get(self.G.source(g))
            r = self.where.get(self.G.range(g))
            if s is None or r is None or s[0] != r[0]:
                raise SupportLeak(f"element supported outside the decomposed groupoid at {g!r}")
            mats[s[0]][r[1], s[1]] += _to_complex(c)
        return mats

    def max_block_norm(self, f: ConvElement) -> float:
        return max((spectral_norm(m) for m in self.block_matrices(f)), default=0.0)


def block_decompose(G, sub: BlockArrows | None = None) -> BlockDecomposition:
    """Split a subgroupoid of a free finite groupoid into full matrix
    blocks, one per block of ``sub`` (default: the orbits of G).

    Raises NotFree on isotropy of G at the units of ``sub``, and when a
    block is not a full matrix algebra of arrows of G: it leaves an orbit
    of G, or shares a unit with another block.
    """
    if sub is None:
        sub = BlockArrows(frozenset(G.orbits))
    classes = sorted((tuple(sorted(b, key=repr)) for b in sub.blocks), key=lambda m: repr(m[0]))
    units = [u for members in classes for u in members]
    iso = G.isotropy_witness(frozenset(units))
    if iso is not None:
        raise NotFree(f"isotropy arrow {iso!r} at unit {G.source(iso)!r}")
    # with no isotropy at these units G has exactly one arrow between two
    # of them in one orbit and none across orbits, so each block gives
    # every matrix unit exactly once when it lies in one orbit and no
    # other block holds its units
    orbit_of = {u: k for k, orbit in enumerate(G.orbits) for u in orbit}
    inside = all(
        members[0] in orbit_of and len({orbit_of.get(u) for u in members}) == 1
        for members in classes
    )
    if len(set(units)) != len(units) or not inside:
        raise NotFree("a block is not inside one orbit: its matrix units are not all arrows")
    return BlockDecomposition(G, [(m[0], m) for m in classes])


# ---------------------------------------------------------------------------
# the cut-down decomposition


def decompose_via_pou(f: ConvElement, pou) -> dict:
    """Cut f down along the partition of unity and measure the defect.

    sum_i phi_i f phi_i differs from f by sum_i phi_i [f, phi_i], so the
    defect norm is bounded by sum_i ||phi_i||_inf ||[f, phi_i]||, each
    commutator by M_i * osc_i * ||f||.  Every cut-down must stay inside its
    color's small subgroupoid (SupportLeak otherwise), where it is
    expressed in matrix blocks.  The blocks lie in orbits (``block_decompose``
    checks it), so the cut-down's reduced norm is its largest block norm,
    reported as both ``cutdown_norm`` and ``cutdown_block_norm``.
    """
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
        leak = [g for g in c.coeffs if not subgroupoids[i].holds(G, g)]
        if leak:
            raise SupportLeak(
                f"cut-down {i} escapes its small subgroupoid at {sorted(map(repr, leak))[:3]}"
            )
        cutdowns.append(c)
        total = total + c

    defect = reduced_norm(total - f)
    per_color = []
    bound = 0.0
    for i, phi in enumerate(phis):
        rep = commutator_report(f, phi)
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
