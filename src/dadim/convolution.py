"""Convolution *-algebra of a finite groupoid and the cut-down estimates.

Elements are finitely supported coefficient maps on arrows, with the
product

    (f1 f2)(g) = sum over g1 g2 = g of f1(g1) f2(g2),

which nothing here needs to form, nor sums and scalar multiples (the
tests' oracle forms them); the reduced norm is the sup over units x of
||pi_x(f)||.  On a free groupoid pi_x(f) is block diagonal, one
block per component of the support graph of f, so the norm is the
largest block norm of ``block_decompose``; under isotropy it is the
largest over one unit per orbit of the regular-representation matrix on
the source fiber.
Coefficients are kept as given, exact (Fraction pairs) when they are.
Norms are computed in floats: the blocks are scattered into one stack
per block size, and each stack goes to LAPACK's ``eigvalsh`` once, as
itself when it is Hermitian and as A^H A otherwise.

The cut-down decomposition works on arrays over supp f (``SupportVector``):
phi is one (d+1) x n array over the units, and each cut-down, the defect
and each commutator is a coefficient vector on f's arrows.  The defect is
kept only on arrows whose ends carry different exact pou data, or data
whose squares do not sum to S; everywhere else it is exactly 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import GroupoidMismatch, InvalidInput, NotFree, SupportLeak
from .groupoid import BlockArrows, generate_subgroupoid

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
    ``G.units``, and ``values`` its complex coefficient; an arrow whose
    value is 0 is off the support.  The cut-down decomposition keeps f's
    arrows and varies only the values (``with_values``).
    """

    G: object
    arrows: tuple
    src: np.ndarray
    rng: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, f: ConvElement) -> "SupportVector":
        """f on its own support, each coefficient converted to a complex once."""
        G = f.G
        index = {u: j for j, u in enumerate(G.units)}
        arrows = tuple(f.coeffs)
        m = len(arrows)
        return cls(
            G, arrows,
            np.fromiter((index[G.source(a)] for a in arrows), np.intp, m),
            np.fromiter((index[G.range(a)] for a in arrows), np.intp, m),
            np.fromiter(map(_to_complex, f.coeffs.values()), complex, m),
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
    is the largest block norm over the subgroupoid f generates.  Under
    isotropy one representative per orbit suffices, because the regular
    representations along an orbit are unitarily conjugate, and orbits
    missing the support contribute zero."""
    G = f.G
    if G.is_free():
        v = _as_vector(f)
        return block_decompose(G, generate_subgroupoid(G, v.support())).max_block_norm(v)
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

    @cached_property
    def labels(self) -> tuple[np.ndarray, np.ndarray]:
        """``where`` as two arrays over ``G.units``: each unit's class
        index (-1 outside every block) and its position in the class."""
        at = [self.where.get(u, (-1, 0)) for u in self.G.units]
        return np.array([k for k, _ in at], np.intp), np.array([i for _, i in at], np.intp)

    def leaks(self, v: SupportVector) -> np.ndarray:
        """The indices into ``v.arrows`` of the nonzero values on arrows
        that no block holds, in arrow order."""
        block = self.labels[0]
        on = np.flatnonzero(v.values)
        ks = block[v.src[on]]
        return on[(ks < 0) | (ks != block[v.rng[on]])]

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
        block, pos = self.labels
        on = np.flatnonzero(v.values)
        s, r = v.src[on], v.rng[on]
        ks = block[s]
        sizes = np.array(self.sizes(), np.intp)
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


def _pou_arrays(pou) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partition of unity over ``G.units``, read once per distinct
    exact tuple (psi_0, ..., psi_d, S): each unit's tuple id, phi as a
    (d+1) x n float array, and per tuple whether sum_i psi_i^2 != S."""
    ids: dict = {}  # tuple -> its id, in order of first appearance
    first = []  # id -> the first unit that carries the tuple
    tid = np.zeros(len(pou.G.units), np.intp)
    for j, u in enumerate(pou.G.units):
        key = tuple(p.get(u, 0) for p in pou.psi) + (pou.norm_sq.get(u, 1),)
        tid[j] = t = ids.setdefault(key, len(ids))
        if t == len(first):
            first.append(u)
    phi = np.array(
        [[pou.phi_float(i, u) for u in first] for i in range(pou.d + 1)], float,
    ).reshape(pou.d + 1, len(first))
    off = np.array([sum(p * p for p in key[:-1]) != key[-1] for key in ids], bool)
    return tid, phi[:, tid], off


def decompose_via_pou(f: ConvElement, pou) -> dict:
    """Cut f down along the partition of unity and measure the defect.

    sum_i phi_i f phi_i differs from f by sum_i phi_i [f, phi_i], so the
    defect norm is bounded by sum_i ||phi_i||_inf ||[f, phi_i]||, each
    commutator by M_i * osc_i * ||f||.  Every cut-down must stay inside its
    color's small subgroupoid (SupportLeak otherwise), where it is
    expressed in matrix blocks.  The blocks lie in orbits (``block_decompose``
    checks it), so the cut-down's reduced norm is its largest block norm,
    reported as both ``cutdown_norm`` and ``cutdown_block_norm``.

    Everything is computed on arrays over supp f.  The defect's coefficient
    f(g) (sum_i phi_i(r) phi_i(s) - 1) is exactly 0 on an arrow whose two
    ends carry one exact tuple (psi_0, ..., psi_d, S) with sum_i psi_i^2 = S,
    so it is kept only on the other arrows, and float residues do not join
    its blocks.  The groupoid must be free (NotFree otherwise).
    """
    G = pou.G
    if f.G is not G:
        raise GroupoidMismatch("element and partition live on different groupoids")
    if not f.support() <= frozenset(pou.K):
        raise InvalidInput("element must be supported in K")
    if not G.is_free():
        raise NotFree("the cut-down decomposition needs a free groupoid")

    v = SupportVector.of(f)
    tid, phi, off = _pou_arrays(pou)
    norm_f = reduced_norm(v)

    blocks = []
    total = np.zeros(len(v.arrows), complex)
    cutdowns = []
    for i, sub in enumerate(pou.small_subgroupoids()):
        bd = block_decompose(G, sub)
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
