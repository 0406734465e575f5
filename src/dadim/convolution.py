"""Convolution *-algebra of a finite groupoid and the cut-down estimates.

Elements are finitely supported coefficient maps on arrows, with the
product

    (f1 f2)(g) = sum over g1 g2 = g of f1(g1) f2(g2),

which nothing here needs to form, nor sums and scalar multiples (the
tests' oracle forms them); the reduced norm is the sup over units x of
||pi_x(f)||.  On a free groupoid pi_x(f) is block diagonal, one
block per component of the support graph of f, so the norm is the
largest block norm of the ``BlockDecomposition`` whose labels the
component kernel reads off f's arrays; under isotropy it is the largest
over one unit per orbit of the regular-representation matrix on the
source fiber.
Coefficients are kept as given, exact (Fraction pairs) when they are.
Norms are computed in floats: the blocks are scattered into one stack
per block size, and each stack goes to LAPACK's ``eigvalsh`` once, as
itself when it is Hermitian and as A^H A otherwise.

The cut-down decomposition works on arrays over supp f (``SupportVector``):
phi is one (d+1) x n array over the units, and each cut-down, the defect
and each commutator is a coefficient vector on f's arrows.  The blocks of
each color's small subgroupoid are the label arrays of the partition of
unity, and nothing on this path generates a subgroupoid.  The defect is
kept only on arrows whose ends carry different exact pou data, or data
whose squares do not sum to S; everywhere else it is exactly 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import GroupoidMismatch, InvalidInput, NotFree, SupportLeak
from .groupoid import BlockArrows, _edge_components, _positions

__all__ = [
    "ConvElement",
    "SupportVector",
    "RegularRep",
    "BlockDecomposition",
    "reduced_norm",
    "regular_representation",
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

    def support(self):
        return frozenset(self.coeffs)


@dataclass(frozen=True, eq=False)
class SupportVector:
    """Coefficients on a fixed list of arrows of a finite groupoid, as arrays.

    ``src`` and ``rng`` hold each arrow's source and range as positions in
    ``G.units`` (read through ``G.index``), and ``values`` its complex
    coefficient; an arrow whose value is 0 is off the support.  The cut-down
    decomposition keeps f's arrows and varies only the values
    (``with_values``).
    """

    G: object
    arrows: tuple
    src: np.ndarray
    rng: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, f: ConvElement) -> "SupportVector":
        """f on its own support, each coefficient converted to a complex once."""
        arrows = tuple(f.coeffs)
        return cls(
            f.G, arrows, *_positions(f.G, arrows),
            np.fromiter(map(_to_complex, f.coeffs.values()), complex, len(arrows)),
        )

    def with_values(self, values: np.ndarray) -> "SupportVector":
        return replace(self, values=values)

    def support(self) -> list:
        """The arrows with a nonzero value, in arrow order."""
        return [self.arrows[k] for k in np.flatnonzero(self.values)]

    def element(self) -> ConvElement:
        return ConvElement(self.G, dict(zip(self.arrows, self.values.tolist())))

    @cached_property
    def bisection(self) -> tuple[int, bool]:
        """``_min_bisection_cover`` of the support, taken once per vector."""
        return _min_bisection_cover(self.G, self.support())


def _as_vector(f) -> SupportVector:
    return f if isinstance(f, SupportVector) else SupportVector.of(f)


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
    """Largest singular value of a matrix, or of any matrix of a stack
    (b, k, k); 0.0 when there is no entry.

    A stack equal entry for entry to its conjugate transpose is Hermitian,
    and its singular values are the |eigenvalues| (``eigvalsh``); any other
    stack gives sqrt(lambda_max(A^H A)), with lambda_max clamped at 0.
    Either runs on a real array when the imaginary part is zero.
    """
    if A.size == 0:
        return 0.0
    if np.iscomplexobj(A) and not A.imag.any():
        A = A.real
    AH = A.conj().swapaxes(-1, -2)
    if np.array_equal(A, AH):
        return float(np.abs(np.linalg.eigvalsh(A)).max())
    return float(np.sqrt(max(np.linalg.eigvalsh(AH @ A).max(), 0.0)))


def reduced_norm(f) -> float:
    """sup over units of ||pi_x(f)|| for a ``ConvElement`` or a
    ``SupportVector``.  On a free groupoid pi_x(f) permutes to one block
    per component of the support graph of f (zero elsewhere), so the norm
    is the largest block norm over the subgroupoid f generates, whose
    labels come from the ends of the nonzero values.  Under isotropy one
    representative per orbit suffices, because the regular representations
    along an orbit are unitarily conjugate, and orbits missing the support
    contribute zero."""
    G = f.G
    if G.is_free():
        v = _as_vector(f)
        on = np.flatnonzero(v.values)
        label = _edge_components(len(G.units), v.src[on], v.rng[on])
        return BlockDecomposition(G, label).max_block_norm(v)
    if isinstance(f, SupportVector):
        f = f.element()
    touched = {u for g in f.coeffs for u in (G.source(g), G.range(g))}
    best = 0.0
    for orbit in G.orbits:
        if touched.isdisjoint(orbit):
            continue
        rep = regular_representation(f, min(orbit, key=repr))
        best = max(best, spectral_norm(rep.to_numpy()))
    return best


# ---------------------------------------------------------------------------
# commutators


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


def commutator_report(f, phi: np.ndarray) -> dict:
    """For a real phi given as an array over ``G.units``: the norm of
    [f, phi](g) = f(g) (phi(s(g)) - phi(r(g))), the oscillation of phi over
    supp f, the bisection-cover constant of supp f and sup |phi|.  f is a
    ``ConvElement`` or a ``SupportVector``; a vector keeps its bisection
    cover, so reports on one vector for several phi take it once."""
    v = _as_vector(f)
    step = phi[v.src] - phi[v.rng]
    M, exact = v.bisection
    return {
        "commutator_norm": reduced_norm(v.with_values(step * v.values)),
        "oscillation": float(np.abs(step[v.values != 0]).max(initial=0.0)),
        "bisection_count": M,
        "bisection_exact": exact,
        "phi_sup": float(np.abs(phi).max(initial=0.0)),
    }


# ---------------------------------------------------------------------------
# block decomposition of free finite groupoids


class BlockDecomposition:
    """Blocks of a subgroupoid of a free groupoid with matrix-unit
    coordinates: the arrow from s to r is e_{r, s} in the block of both.

    Built from a label per unit of ``G.units``: units with one label share
    a block, and -1 is in no block.  Blocks go in repr order of their
    repr-least units, and the units of a block in repr order.  ``block``
    and ``pos`` hold, over ``G.units``, each unit's block index (-1 outside
    every block) and its position in its block.
    """

    def __init__(self, G, label: np.ndarray):
        on = np.flatnonzero(label >= 0)
        keys = [repr(G.units[x]) for x in on.tolist()]
        on = on[np.array(sorted(range(len(on)), key=keys.__getitem__), np.intp)]
        # a block's rank is that of its repr-least unit, its head
        first = np.full(len(label), len(on), np.intp)
        np.minimum.at(first, label[on], np.arange(len(on)))
        heads = on[np.sort(first[first < len(on)])]
        rank = np.empty(len(label), np.intp)
        rank[label[heads]] = np.arange(len(heads))
        k = rank[label[on]]
        order = np.argsort(k, kind="stable")
        on, k = on[order], k[order]
        self._sizes = np.bincount(k).astype(np.intp)
        self.G = G
        self.block = np.full(len(label), -1, np.intp)
        self.block[on] = k
        self.pos = np.zeros(len(label), np.intp)
        self.pos[on] = np.arange(len(on)) - (np.cumsum(self._sizes) - self._sizes)[k]

    def sizes(self) -> list[int]:
        return self._sizes.tolist()

    def leaks(self, v: SupportVector) -> np.ndarray:
        """The indices into ``v.arrows`` of the nonzero values on arrows
        that no block holds, in arrow order."""
        on = np.flatnonzero(v.values)
        ks = self.block[v.src[on]]
        return on[(ks < 0) | (ks != self.block[v.rng[on]])]

    def stacks(self, f) -> list[tuple[np.ndarray, np.ndarray]]:
        """f in matrix-unit coordinates, one stack per block size k: the
        indices in ``classes`` of the b blocks of that size, and a (b, k, k)
        array whose [j, r, s] is the value on the arrow from the s-th to the
        r-th unit of the j-th of them.  f is a ``ConvElement`` or a
        ``SupportVector``; SupportLeak for a value off the blocks."""
        v = _as_vector(f)
        leak = self.leaks(v)
        if len(leak):
            raise SupportLeak(
                f"element supported outside the decomposed groupoid at {v.arrows[leak[0]]!r}"
            )
        pos, sizes = self.pos, self._sizes
        on = np.flatnonzero(v.values)
        s, r = v.src[on], v.rng[on]
        ks = self.block[s]
        slot = np.zeros(len(sizes), np.intp)  # a block's index in its size's stack
        out = []
        for k in sorted(set(self.sizes())):
            ids = np.flatnonzero(sizes == k)
            slot[ids] = np.arange(len(ids))
            here = sizes[ks] == k
            stack = np.zeros((len(ids), k, k), v.values.dtype)
            stack[slot[ks[here]], pos[r[here]], pos[s[here]]] = v.values[on[here]]
            out.append((ids, stack))
        return out

    def max_block_norm(self, f) -> float:
        return max((spectral_norm(stack) for _, stack in self.stacks(f)), default=0.0)


def block_decompose(G, sub: BlockArrows | None = None) -> BlockDecomposition:
    """Split a subgroupoid of a free finite groupoid into full matrix
    blocks, one per block of ``sub`` (default: the orbits of G).

    Raises InvalidInput for an empty block; NotFree on isotropy of G at the
    units of ``sub``, and when a block is not a full matrix algebra of
    arrows of G: it leaves an orbit of G, or shares a unit with another
    block.
    """
    blocks = list(G.orbits if sub is None else sub.blocks)
    if not all(blocks):
        raise InvalidInput("a block of a subgroupoid holds at least one unit")
    units = [u for b in blocks for u in b]
    iso = G.isotropy_witness(frozenset(units))
    if iso is not None:
        raise NotFree(f"isotropy arrow {iso!r} at unit {G.source(iso)!r}")
    # with no isotropy at these units G has exactly one arrow between two
    # of them in one orbit and none across orbits, so each block gives
    # every matrix unit exactly once when it lies in one orbit and no
    # other block holds its units
    orbit_of = {u: k for k, orbit in enumerate(G.orbits) for u in orbit}
    inside = all(u in orbit_of for u in units) and all(
        len({orbit_of[u] for u in b}) == 1 for b in blocks
    )
    if len(set(units)) != len(units) or not inside:
        raise NotFree("a block is not inside one orbit: its matrix units are not all arrows")
    block_of = {u: k for k, b in enumerate(blocks) for u in b}
    return BlockDecomposition(G, np.array([block_of.get(u, -1) for u in G.units], np.intp))


# ---------------------------------------------------------------------------
# the cut-down decomposition


def _pou_arrays(pou) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partition of unity over ``G.units``, read once per distinct
    exact tuple (psi_0, ..., psi_d, S): each unit's tuple id, phi as a
    (d+1) x n float array, and per tuple whether sum_i psi_i^2 != S."""
    off = np.array([sum(p * p for p in t[:-1]) != t[-1] for t in pou.tuples], bool)
    return pou.tid, pou.phi[:, pou.tid], off


def decompose_via_pou(f: ConvElement, pou) -> dict:
    """Cut f down along the partition of unity and measure the defect.

    sum_i phi_i f phi_i differs from f by sum_i phi_i [f, phi_i], so the
    defect norm is bounded by sum_i ||phi_i||_inf ||[f, phi_i]||, each
    commutator by M_i * osc_i * ||f||.  Every cut-down must stay inside its
    color's small subgroupoid (SupportLeak otherwise), where it is
    expressed in matrix blocks.  The blocks are components of K-arrows, so
    they lie in orbits, and the cut-down's reduced norm is its largest
    block norm, reported as both ``cutdown_norm`` and ``cutdown_block_norm``.

    Everything is computed on arrays over supp f.  The defect's coefficient
    f(g) (sum_i phi_i(r) phi_i(s) - 1) is exactly 0 on an arrow whose two
    ends carry one exact tuple (psi_0, ..., psi_d, S) with sum_i psi_i^2 = S,
    so it is kept only on the other arrows, and float residues do not join
    its blocks.  The groupoid must be free (NotFree otherwise).
    """
    G = pou.G
    if f.G is not G:
        raise GroupoidMismatch("element and partition live on different groupoids")
    if not f.support() <= pou.K:
        raise InvalidInput("element must be supported in K")
    if not G.is_free():
        raise NotFree("the cut-down decomposition needs a free groupoid")

    v = SupportVector.of(f)
    tid, phi, off = _pou_arrays(pou)
    norm_f = reduced_norm(v)

    blocks = []
    total = np.zeros(len(v.arrows), complex)
    cutdowns = []
    for i, label in enumerate(pou.small_subgroupoids()):
        bd = BlockDecomposition(G, label)
        cut = v.with_values(phi[i, v.rng] * phi[i, v.src] * v.values)
        leak = bd.leaks(cut)
        if len(leak):
            raise SupportLeak(
                f"cut-down {i} escapes its small subgroupoid at "
                f"{sorted(repr(v.arrows[k]) for k in leak)[:3]}"
            )
        blocks.append(bd)
        cutdowns.append(cut)
        total = total + cut.values

    # one tuple at both ends with sum psi_i^2 = S: sum_i phi_i(r) phi_i(s) = 1
    keep = (tid[v.src] != tid[v.rng]) | off[tid[v.src]] | off[tid[v.rng]]
    defect = reduced_norm(v.with_values(np.where(keep, total - v.values, 0)))
    per_color = []
    bound = 0.0
    for i, bd in enumerate(blocks):
        rep = commutator_report(v, phi[i])
        cut_norm = bd.max_block_norm(cutdowns[i])
        per_color.append(
            {
                "phi_sup": rep["phi_sup"],
                "commutator_norm": rep["commutator_norm"],
                "oscillation": rep["oscillation"],
                "bisection_count": rep["bisection_count"],
                "bisection_exact": rep["bisection_exact"],
                "commutator_bound": rep["bisection_count"] * rep["oscillation"] * norm_f,
                "block_sizes": bd.sizes(),
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
