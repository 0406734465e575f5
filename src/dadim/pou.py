"""Almost-invariant partitions of unity on Z/q rotating its residues.

Pipeline: a cover witnessing small generated subgroupoids for K^3 is
enlarged so that each partial orbit s(r^-1(x) cap K) sits inside a single
color; nested towers grow each color by one K-propagation step per level;
indicator step functions averaged over the tower give psi_i with exact
rational values, and

    phi_i = psi_i / max(sqrt(sum_j psi_j^2), 1)

squares to a partition of unity on r(K) u s(K).  Every verification is
done in exact arithmetic; inequalities involving square roots are decided
on squares (see exactmath).

The layer runs on arrays over the residues 0..q-1 of
``cyclic_rotation_groupoid(q)``, with K = ``G.moves(E)``: a ``Moves``,
the offsets that are the group parts of its arrows (a K handed in as arrow
tuples is read into one).  A color or a tower level is a boolean array,
one K-propagation step is the OR of the rolls of a level by the offsets,
and the subgroupoid that K (or K^3) generates inside a set of residues is
a component label per residue, from the groupoid layer's one edge-list
kernel; the cut-down decomposition reads these labels as its blocks
(``PartitionOfUnity.small_subgroupoids``).  Each residue carries the id of
its exact tuple (psi_0, ..., psi_d, S), and every exact decision is taken
once per distinct tuple, or once per distinct pair of ids at the two ends
of an arrow; the work per arrow is array indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInput,
    PropagationEscapesColor,
    TowerInvalid,
    WitnessInsufficient,
    malformed,
    positive_int,
    rational,
)
from .exactmath import diff_lt_osc_bound, diff_lt_rational, osc_bound_float, sqrt_pair_float
from .groupoid import Moves, TransformationGroupoid, cyclic_rotation_groupoid
from .reporting import VerificationReport

__all__ = [
    "NestedColorTower",
    "PartitionOfUnity",
    "enlarge_cover",
    "build_tower",
    "build_pou",
    "verify_pou",
    "pou_from_group_action",
]

Rat = Fraction
# the JSON types of an exact value; a float or bool equal to one is no key
_EXACT_JSON = frozenset({int, str})


# ---------------------------------------------------------------------------
# K on Z/q as its offsets


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an int array (np.unique would import
    numpy.ma)."""
    s = np.sort(a)
    return s[_run_starts(s)]


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts."""
    return np.concatenate(([True], s[1:] != s[:-1]))[:len(s)]


def _moves(G, K) -> Moves:
    """K as the ``Moves`` that the stages read: G must be Z/q rotating its
    residues and K a union of full classes of its arrows, as ``G.moves(E)``
    is; any other G or K is InvalidInput."""
    if not isinstance(G, TransformationGroupoid):
        raise InvalidInput("the partition-of-unity stages run on Z/q rotating its residues")
    moves = Moves.read(G.n, K)
    if moves is None:
        raise InvalidInput(f"K must be a set of arrows (g, x) of Z/{G.n} holding every "
                           "arrow (g, x) of each of its group parts g")
    return moves


def _generated_sizes(labels: np.ndarray) -> list[int]:
    """Arrows of the subgroupoid with blocks ``labels``, per layer of a
    (colors, q) stack: sum of |block|^2."""
    c, q = labels.shape
    on = labels >= 0
    counts = np.bincount((labels + np.arange(c)[:, None] * q)[on], minlength=c * q)
    return (counts.reshape(c, q) ** 2).sum(axis=1).tolist()


def _color_masks(G, colors) -> np.ndarray:
    """Colors as a (colors, q) boolean array; a color is a boolean array
    over the residues or a collection of residues, whose other entries
    name no unit and are ignored."""
    out = np.zeros((len(colors), G.n), bool)
    for i, c in enumerate(colors):
        if isinstance(c, np.ndarray) and c.dtype == bool:
            out[i] = c
        else:
            out[i, np.fromiter((x for x in c if x in G.unit_set), np.intp)] = True
    return out


# ---------------------------------------------------------------------------
# the stages


def enlarge_cover(G, K, colors, size_bound: int | None):
    """Fatten a cover so every partial orbit lands inside one color.

    K is symmetric and holds the unit arrows of its endpoints, as
    ``TransformationGroupoid.moves`` builds it; then K <= K^3 and both
    have the endpoints r(K) u s(K).  Requires the input colors to witness
    small generated subgroupoids for K^3 (WitnessInsufficient otherwise).
    The enlarged color is U_i = s(K cap r^-1(V_i)) cap (r(K) u s(K)); the
    generated subgroupoid for (K, U_i) is checked to stay inside
    K . G_i . K, with G_i generated from (K^3, V_i).  K^3 is the offsets
    that are sums of one, two or three offsets of K.

    Returns (new_colors, report), the new colors as a (colors, q) boolean
    array.
    """
    moves = _moves(G, K)
    o = moves.offsets
    moves3 = Moves(moves.n, _distinct(np.concatenate([
        o, (o[:, None] + o).ravel(), (o[:, None, None] + o[:, None] + o).ravel(),
    ]) % moves.n))
    base = np.full(moves.n, o.size > 0)  # r(K) u s(K): every residue, or none
    masks = _color_masks(G, colors)

    missing = int((base & ~masks.any(axis=0)).sum())
    if missing:
        raise WitnessInsufficient(
            f"colors do not cover r(K^3) u s(K^3); {missing} units missing"
        )

    labels3 = moves3.components(masks & base)
    sizes3 = _generated_sizes(labels3)
    for i, size in enumerate(sizes3):
        if size_bound is not None and size > size_bound:
            raise WitnessInsufficient(
                f"color {i} generates {size} arrows for K^3 > bound {size_bound}"
            )

    # the partial orbit s(r^-1(x) cap K) of a unit is {x - g}
    enlarged = moves.near(masks) & base

    # partial-orbit containment
    orbit_fail = np.flatnonzero(base & ~enlarged[:, moves.back].all(axis=1).any(axis=0))
    if orbit_fail.size:
        raise WitnessInsufficient(
            f"partial orbits not contained in a single color at {orbit_fail[:3].tolist()!r}"
        )

    labels = moves.components(enlarged)
    for i, (label_i, label) in enumerate(zip(labels3, labels)):
        if not _envelope_holds(moves, label_i, label):
            raise WitnessInsufficient(
                f"color {i}: generated subgroupoid escapes K.G_i.K"
            )

    report = VerificationReport(
        True, "ok", "cover enlarged; partial orbits contained",
        {
            "generated_sizes_k3": sizes3,
            "generated_sizes": _generated_sizes(labels),
            "enlarged_sizes": enlarged.sum(axis=1).tolist(),
        },
    )
    return enlarged, report


def _envelope_holds(moves: Moves, label_i: np.ndarray, label: np.ndarray) -> bool:
    """The subgroupoid with blocks ``label`` lies in K . G_i . K, G_i with
    blocks ``label_i``: an arrow is fixed by its endpoints, so the arrow
    from x to y lies there exactly when K-arrows at x and at y end in one
    block of G_i, that is, when the blocks of G_i one K-step from x and
    from y meet.  A block passes at once when the blocks one step from its
    least residue hold one that every member reaches; the others compare
    their members' reaches pairwise."""
    reach = label_i[moves.back]  # (offsets, q): blocks of G_i one K-step away
    members = np.flatnonzero(label >= 0)
    root = label[members]
    passed = np.zeros(moves.n, bool)
    for cand in reach[:, root]:
        has = (cand >= 0) & (reach[:, members] == cand).any(axis=0)
        lacking = np.zeros(moves.n, bool)
        lacking[root[~has]] = True
        passed |= ~lacking
    for r in _distinct(root[~passed[root]]).tolist():
        sets = {
            frozenset(col[col >= 0].tolist()) for col in reach[:, members[root == r]].T
        }
        if any(s.isdisjoint(t) for s in sets for t in sets):
            return False
    return True


@dataclass
class NestedColorTower:
    """Nested unit sets U^(0) <= ... <= U^(N+1) for one color, where each
    level absorbs one K-propagation step of the previous one: a (levels, q)
    boolean array over the residues."""

    color: int
    levels: np.ndarray

    @property
    def top(self) -> np.ndarray:
        return self.levels[-1]


def build_tower(G, K, colors, N: int, size_bound: int | None):
    """Grow each color through N+1 propagation steps.

    K is symmetric and holds the unit arrows of its endpoints.  Each level
    is the K-propagation of the one below, which it contains, so nesting
    and propagation hold by construction; the checks are the base cover
    and, given ``size_bound``, the small top."""
    if N < 1:
        raise InvalidInput("tower depth N must be positive")
    moves = _moves(G, K)
    masks = _color_masks(G, colors)
    if moves.offsets.size:
        missing = int((~masks.any(axis=0)).sum())
        if missing:
            raise TowerInvalid(f"colors do not cover r(K) u s(K); {missing} units missing")
    levels = np.empty((len(masks), N + 2, moves.n), bool)
    levels[:, 0] = masks
    for n in range(N + 1):
        levels[:, n + 1] = moves.step(levels[:, n])
    towers = [NestedColorTower(i, lv) for i, lv in enumerate(levels)]

    if size_bound is not None:
        sizes = _generated_sizes(moves.components(levels[:, -1]))
        for t, size in zip(towers, sizes):
            if size > size_bound:
                raise PropagationEscapesColor(
                    f"color {t.color}: top level generates {size} arrows "
                    f"> bound {size_bound}; witness inadequate for depth {N}"
                )
    return towers


def _dense_ids(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank among the distinct values of ``key``, and the
    position of one entry per rank."""
    order = np.argsort(key, kind="stable")
    new = _run_starts(key[order])
    ids = np.empty(len(key), np.intp)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


@dataclass
class PartitionOfUnity:
    """phi_i = psi_i / sqrt(S) over the residues of Z/q, stored exactly.

    A step value psi_i(x) is any exact rational in [0, 1]: built ones are
    counts over N, and a certificate's may have any denominator.  Each
    residue x carries ``tid[x]``, the id of its exact tuple
    ``tuples[id] = (psi_0(x), ..., psi_d(x), S_x)`` with
    S_x = max(sum_j psi_j(x)^2, 1); ``entries[i]`` holds the residues that
    carry an explicit psi_i value, in the order given.  All checks run on
    squares.
    """

    G: object
    K: Moves
    towers: list[NestedColorTower]
    N: int
    tid: np.ndarray
    tuples: list[tuple]
    entries: list[np.ndarray]

    @classmethod
    def _of_values(cls, G, K, towers, N, values: list, vid: np.ndarray, entries):
        """The partition of unity whose psi_i(x) is ``values[vid[i, x]]``:
        residues are grouped by their column of value ids, and each
        distinct tuple's S is taken once."""
        key = vid[0]
        for row in vid[1:]:
            key = _dense_ids(key)[0] * len(values) + row
        tid, first = _dense_ids(key)
        tuples = []
        for col in vid[:, first].T.tolist():
            psi = tuple(values[v] for v in col)
            tuples.append(psi + (max(sum((p * p for p in psi), Fraction(0)), Fraction(1)),))
        return cls(G, K, towers, N, tid, tuples, entries)

    @property
    def d(self) -> int:
        return len(self.towers) - 1

    @cached_property
    def phi(self) -> np.ndarray:
        """(d+1, tuples) floats: phi_i of each tuple, through
        ``sqrt_pair_float`` once per tuple."""
        return np.array(
            [[sqrt_pair_float(t[i], t[-1]) for t in self.tuples] for i in range(self.d + 1)],
            float,
        ).reshape(self.d + 1, len(self.tuples))

    def small_subgroupoids(self) -> np.ndarray:
        """Per color, the blocks of the subgroupoid generated by the
        K-arrows inside the tower top, as a (colors, q) label array: each
        residue's least residue in its block, -1 in no block.  Cutdowns by
        phi_i land in its convolution algebra."""
        tops = np.array([t.top for t in self.towers])
        return self.K.components(tops)

    @classmethod
    def from_json(cls, G, K, data: dict) -> "PartitionOfUnity":
        """Inverse of ``to_json``: a unit key is a residue's decimal text,
        and a value a JSON integer or a rational string (``rational``),
        each distinct one parsed once.  A float or bool is refused even
        where it equals a value parsed before."""
        q = G.n
        index = dict(zip(np.arange(q).astype(str).tolist(), range(q)))

        def residues(keys) -> list:
            try:
                return [index[k] for k in keys]
            except KeyError:
                bad = next(k for k in keys if k not in index)
                raise InvalidInput(f"partition of unity names unknown unit {bad!r}") from None

        with malformed("partition of unity"):
            towers = []
            for i, levels in enumerate(data["tower_levels"]):
                masks = np.zeros((len(levels), q), bool)
                for n, lvl in enumerate(levels):
                    masks[n, residues(lvl)] = True
                towers.append(NestedColorTower(i, masks))
            psi = data["psi"]
            vid = np.zeros((len(psi), q), np.intp)
            ids, parsed = {Fraction(0): 0}, {}  # value -> its id; text -> its value's id
            entries = []
            for i, p in enumerate(psi):
                units = np.array(residues(p), np.intp)
                for v in p.values():
                    if v not in parsed or type(v) not in _EXACT_JSON:
                        parsed[v] = ids.setdefault(rational(v, "psi value"), len(ids))
                vid[i, units] = [parsed[v] for v in p.values()]
                entries.append(units)
            N = positive_int(data["N"], "averaging depth N")
        if not 1 <= len(entries) == len(towers) or not all(len(t.levels) for t in towers):
            raise InvalidInput("a partition of unity needs one psi and a nonempty tower per color")
        return cls._of_values(G, _moves(G, K), towers, N, list(ids), vid, entries)

    def to_json(self) -> dict:
        """Unit keys are decimal texts, sorted as texts."""
        q = self.G.n
        texts = np.arange(q).astype(str)
        order = np.argsort(texts)
        in_order = texts[order].astype(object)
        rank = np.empty(q, np.intp)
        rank[order] = np.arange(q)
        names = texts.tolist()
        psi = []
        for i, units in enumerate(self.entries):
            value = [str(t[i]) for t in self.tuples]
            units = units[np.argsort(rank[units])].tolist()
            tid = self.tid[units].tolist()
            psi.append({names[u]: value[k] for u, k in zip(units, tid)})
        return {
            "N": self.N,
            "colors": [in_order[t.top[order]].tolist() for t in self.towers],
            "psi": psi,
            "tower_levels": [
                [in_order[lvl[order]].tolist() for lvl in t.levels] for t in self.towers
            ],
        }


def build_pou(G, K, towers: list[NestedColorTower]) -> PartitionOfUnity:
    """Average the tower indicator steps and normalize in squared form.

    psi_i(x) = #{n in [1, N] : x in U_i^(n-1)} / N on the top level; at
    least one psi_i equals 1 on r(K) u s(K) because the base levels cover
    it, so the squared normalizer is the honest sum there and
    sum phi_i^2 = 1 exactly.  K is symmetric, as for ``build_tower``, and
    its ``Moves`` are kept in the result.
    """
    if not towers:
        raise TowerInvalid("need at least one tower")
    N = len(towers[0].levels) - 2
    if N < 3:
        raise TowerInvalid("averaging depth must satisfy N >= 3")
    if any(len(t.levels) - 2 != N for t in towers):
        raise TowerInvalid("towers have mismatched depths")
    moves = _moves(G, K)

    counts = np.array([t.levels[:N].sum(axis=0) * t.top for t in towers], np.intp)
    values = [Fraction(c, N) for c in range(N + 1)]
    pou = PartitionOfUnity._of_values(
        G, moves, towers, N, values, counts, [np.flatnonzero(c) for c in counts],
    )

    if moves.offsets.size:
        broken = np.flatnonzero(~(counts == N).any(axis=0))
        if broken.size:
            raise TowerInvalid(f"no step function equals 1 at {int(broken[0])!r}; base cover broken")
    return pou


def verify_pou(G, K, pou: PartitionOfUnity, eps: Rat | None = None) -> VerificationReport:
    """Exhaustive exact check of values, supports, normalization, and
    oscillation.

    Every psi_i must take its values in [0, 1].  With ``eps`` a rational,
    each arrow's oscillation is compared to it; with ``eps`` None the
    bound is sqrt(2)(1+sqrt(d+1))/sqrt(N).  Either way the comparison is
    decided on squares with zero tolerance.

    Each check is decided once per distinct tuple, or per distinct pair of
    tuple ids at the ends of an arrow of K, and gathered over the residues
    or the offsets of K.  A rejection names the first violation in the
    order of the per-unit loops: a psi_i's entries in their order, units
    in increasing order, and the arrows of K offset by offset, then by
    residue (the order of ``Moves``), found on the grid of their pairs of
    tuple ids.  Symmetrizing K would not change the verdict: both checks
    on an arrow are symmetric in its endpoints, and a unit arrow passes
    them.
    """
    moves = _moves(G, K)
    d, N = pou.d, pou.N
    tid, tuples = pou.tid, pou.tuples

    for i, units in enumerate(pou.entries):
        outside = np.array([not 0 <= t[i] <= 1 for t in tuples])
        hit = np.flatnonzero(outside[tid[units]])
        if hit.size:
            x = int(units[hit[0]])
            v = tuples[tid[x]][i]
            return VerificationReport(
                False, "StepValueOutOfRange",
                f"psi_{i} = {v} outside [0, 1] at {x!r}",
                {"color": i, "unit": repr(x), "value": str(v)},
            )

    for i, (units, t) in enumerate(zip(pou.entries, pou.towers)):
        positive = np.array([t_[i] > 0 for t_ in tuples])
        hit = np.flatnonzero(positive[tid[units]] & ~t.top[units])
        if hit.size:
            x = int(units[hit[0]])
            return VerificationReport(
                False, "SupportViolation",
                f"phi_{i} positive outside its color at {x!r}",
                {"color": i, "unit": repr(x)},
            )

    if moves.offsets.size:  # r(K) u s(K) is every residue
        defect = [
            "sum phi_i^2 != 1 at" if sum((p * p for p in t[:-1]), Fraction(0)) / t[-1] != 1
            else "sum psi_i < 1 at" if sum(t[:-1], Fraction(0)) < 1
            else ""
            for t in tuples
        ]
        hit = np.flatnonzero(np.array([bool(m) for m in defect])[tid])
        if hit.size:
            x = int(hit[0])
            return VerificationReport(
                False, "NormalizationDefect", f"{defect[tid[x]]} {x!r}", {"unit": repr(x)},
            )

    # the distinct (source, range) pairs of tuple ids over the arrows of K;
    # an arrow's checks on color i read the pairs (psi_i, S) at its ends,
    # which get ids, and are symmetric in the two ends
    T = len(tuples)
    at = tid * T + tid[moves.to]  # (offsets, q): the pair at each arrow's ends
    pairs = _distinct(at.ravel())
    src, rng = pairs // T, pairs % T
    pair_ids: dict = {}
    ids = [[pair_ids.setdefault((t[i], t[-1]), len(pair_ids)) for t in tuples]
           for i in range(d + 1)]
    values = list(pair_ids)
    step_bound = Fraction(2, N)
    bound = None if eps is None else Fraction(eps)
    decided: dict = {}

    def decide(key):
        (ps, Ss), (pr, Sr) = values[key[0]], values[key[1]]
        if abs(ps - pr) > step_bound:
            return "StepBoundViolation"
        if bound is None:
            ok = diff_lt_osc_bound(ps, Ss, pr, Sr, d, N)
        else:
            ok = diff_lt_rational(ps, Ss, pr, Sr, bound)
        return None if ok else "OscillationExceeded"

    failed: dict = {}  # position in pairs -> (color, code) of its first violation
    for p, (s, r) in enumerate(zip(src.tolist(), rng.tolist())):
        for i, color_ids in enumerate(ids):
            a, b = color_ids[s], color_ids[r]
            key = (a, b) if a <= b else (b, a)
            if key not in decided:
                decided[key] = decide(key)
            if decided[key] is not None:
                failed[p] = (i, decided[key])
                break
    if failed:
        bad = np.zeros(len(pairs), bool)
        bad[list(failed)] = True
        pos = np.searchsorted(pairs, at).ravel()
        k = int(np.flatnonzero(bad[pos])[0])
        j, x = divmod(k, moves.n)
        a = (int(moves.offsets[j]), x)
        i, code = failed[int(pos[k])]
        if code == "StepBoundViolation":
            message = f"|psi_{i}(s) - psi_{i}(r)| > 2/N on arrow {a!r}"
        else:
            message = f"|phi_{i}(s(g)) - phi_{i}(r(g))| too large on arrow {a!r}"
        return VerificationReport(False, code, message, {"arrow": repr(a), "color": i})

    phi = pou.phi
    max_osc_float = float(np.abs(phi[:, src] - phi[:, rng]).max(initial=0.0))
    return VerificationReport(
        True, "ok", "partition of unity verified",
        {
            "max_oscillation_float": max_osc_float,
            "bound_float": osc_bound_float(d, N) if eps is None else float(eps),
            "d": d,
            "N": N,
        },
    )


def pou_from_group_action(
    order: int, E, colors, N: int | None, size_bound: int | None,
    eps: Rat | None = None,
):
    """Group-action form: G is Z/order rotating itself, K the moves of E
    (``TransformationGroupoid.moves``, E read in Z/order); returns
    (G, K, towers, pou).

    Either pass the averaging depth N directly, or a rational eps from
    which the least admissible depth is derived.
    """
    from .exactmath import least_pou_depth

    G = cyclic_rotation_groupoid(order)
    K = G.moves(E)
    if N is None:
        if eps is None:
            raise InvalidInput("pass an averaging depth N or a rational eps")
        N = least_pou_depth(len(colors) - 1, Fraction(eps))
    enlarged, _ = enlarge_cover(G, K, colors, size_bound)
    towers = build_tower(G, K, enlarged, N, size_bound)
    pou = build_pou(G, K, towers)
    return G, K, towers, pou
