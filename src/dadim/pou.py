"""Almost-invariant partitions of unity on finite groupoids.

Pipeline: a cover witnessing small generated subgroupoids for K^3 is
enlarged so that each partial orbit s(r^-1(x) cap K) sits inside a single
color; nested towers grow each color by one K-propagation step per level;
indicator step functions averaged over the tower give psi_i with exact
rational values, and

    phi_i = psi_i / max(sqrt(sum_j psi_j^2), 1)

squares to a partition of unity on r(K) u s(K).  Every verification is
done in exact arithmetic; inequalities involving square roots are decided
on squares (see exactmath).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InvalidInput,
    NotFree,
    PropagationEscapesColor,
    TowerInvalid,
    WitnessInsufficient,
    malformed,
    positive_int,
)
from .exactmath import diff_lt_osc_bound, diff_lt_rational, osc_bound_float, sqrt_pair_float
from .groupoid import (
    _endpoint_units,
    _seed_in_color,
    _UnitSeed,
    cyclic_rotation_groupoid,
    generate_subgroupoid,
)
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


def _neighbours(G, K) -> dict:
    """unit -> its K-neighbours s(r^-1(x) cap K), from one pass over K.  For
    a symmetric K holding its unit arrows, the keys are r(K) u s(K) and
    each unit is among its own neighbours."""
    out: dict = {}
    for a in K:
        out.setdefault(G.range(a), set()).add(G.source(a))
    return out


def _propagate(nbrs: dict, units: frozenset) -> frozenset:
    """units u s(K cap r^-1(units))."""
    return units.union(*(nbrs.get(x, ()) for x in units))


def _in_envelope(nbrs: dict, G_i, gen) -> bool:
    """gen <= K . G_i . K for a symmetric K, in a free groupoid: an arrow
    is fixed by its endpoints, so the arrow from x to y lies in K . G_i . K
    exactly when K-arrows at x and at y end in one block of G_i."""
    label = G_i.label
    reach = {  # unit -> blocks of G_i one K-arrow away
        x: {label[y] for y in ys if y in label} for x, ys in nbrs.items()
    }
    return all(
        not reach.get(x, set()).isdisjoint(reach.get(y, ()))
        for b in gen.blocks for x in b for y in b
    )


def enlarge_cover(G, K, colors, size_bound: int | None):
    """Fatten a cover so every partial orbit lands inside one color.

    K is symmetric and holds the unit arrows of its endpoints, as
    ``TransformationGroupoid.moves`` builds it; then K <= K^3 and both
    have the endpoints r(K) u s(K).  Requires the input colors to witness
    small generated subgroupoids for K^3 (WitnessInsufficient otherwise).
    The enlarged color is U_i = s(K cap r^-1(V_i)) cap (r(K) u s(K)); the
    generated subgroupoid for (K, U_i) is checked to stay inside
    K . G_i . K, with G_i generated from (K^3, V_i).  G must be free
    (NotFree otherwise), so K^3 is fixed by its unit graph, units at most
    three K-steps apart, which is read off the neighbour map.

    Returns (new_colors, report).
    """
    if not G.is_free():
        raise NotFree("cover enlargement needs a free groupoid")
    nbrs = _neighbours(G, K)
    base = frozenset(nbrs)
    # K^3's unit graph: two more propagation steps from the K-neighbours
    near3 = {x: _propagate(nbrs, _propagate(nbrs, frozenset(ys))) for x, ys in nbrs.items()}

    covered = frozenset().union(*colors) if colors else frozenset()
    if not base <= covered:
        raise WitnessInsufficient(
            f"colors do not cover r(K^3) u s(K^3); {len(base - covered)} units missing"
        )

    G_is = []
    for i, color in enumerate(colors):
        gen = generate_subgroupoid(G, _UnitSeed(frozenset(color) & base, near3.__getitem__))
        if size_bound is not None and len(gen) > size_bound:
            raise WitnessInsufficient(
                f"color {i} generates {len(gen)} arrows for K^3 > bound {size_bound}"
            )
        G_is.append(gen)

    # the partial orbit s(r^-1(x) cap K) of a unit is its K-neighbours
    enlarged = [
        frozenset().union(*(nbrs.get(x, ()) for x in color)) & base for color in colors
    ]

    # partial-orbit containment
    orbit_fail = [x for x in base if not any(nbrs[x] <= u for u in enlarged)]
    if orbit_fail:
        raise WitnessInsufficient(
            f"partial orbits not contained in a single color at {orbit_fail[:3]!r}"
        )

    gen_sizes = []
    for i, u in enumerate(enlarged):
        gen = generate_subgroupoid(G, _seed_in_color(G, K, u))
        if not _in_envelope(nbrs, G_is[i], gen):
            raise WitnessInsufficient(
                f"color {i}: generated subgroupoid escapes K.G_i.K"
            )
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


@dataclass
class NestedColorTower:
    """Nested unit sets U^(0) <= ... <= U^(N+1) for one color, where each
    level absorbs one K-propagation step of the previous one."""

    color: int
    levels: list[frozenset]

    @property
    def depth(self) -> int:
        return len(self.levels) - 2

    @property
    def top(self) -> frozenset:
        return self.levels[-1]


def build_tower(G, K, colors, N: int, size_bound: int | None):
    """Grow each color through N+1 propagation steps.

    K is symmetric and holds the unit arrows of its endpoints.  Each level
    is the K-propagation of the one below, which it contains, so nesting
    and propagation hold by construction; the checks are the base cover
    and, given ``size_bound``, the small top."""
    if N < 1:
        raise InvalidInput("tower depth N must be positive")
    nbrs = _neighbours(G, K)
    base = frozenset(nbrs)
    covered = frozenset().union(*colors) if colors else frozenset()
    if not base <= covered:
        raise TowerInvalid(
            f"colors do not cover r(K) u s(K); {len(base - covered)} units missing"
        )
    towers = []
    for i, color in enumerate(colors):
        levels = [frozenset(color)]
        for _ in range(N + 1):
            levels.append(_propagate(nbrs, levels[-1]))
        towers.append(NestedColorTower(i, levels))

    if size_bound is not None:
        for t in towers:
            gen = generate_subgroupoid(G, _seed_in_color(G, K, t.top))
            if len(gen) > size_bound:
                raise PropagationEscapesColor(
                    f"color {t.color}: top level generates {len(gen)} arrows "
                    f"> bound {size_bound}; witness inadequate for depth {N}"
                )
    return towers


@dataclass
class PartitionOfUnity:
    """phi_i = psi_i / sqrt(S) stored as exact pairs (psi value, S).

    ``psi`` maps units to rationals with denominator N; ``norm_sq`` maps a
    unit x to S_x = max(sum_j psi_j(x)^2, 1).  All checks run on squares.
    """

    G: object
    K: frozenset
    towers: list[NestedColorTower]
    N: int
    psi: list[dict]
    norm_sq: dict
    meta: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.psi) - 1

    def phi_pair(self, i: int, x) -> tuple[Rat, Rat]:
        return self.psi[i].get(x, Fraction(0)), self.norm_sq.get(x, Fraction(1))

    def phi_float(self, i: int, x) -> float:
        p, S = self.phi_pair(i, x)
        return sqrt_pair_float(p, S)

    def small_subgroupoids(self) -> list:
        """Per color, the subgroupoid generated by the K-arrows inside the
        tower top, in block form; cutdowns by phi_i land in its convolution
        algebra."""
        return [
            generate_subgroupoid(self.G, _seed_in_color(self.G, self.K, t.top))
            for t in self.towers
        ]

    @classmethod
    def from_json(cls, G, K, data: dict) -> "PartitionOfUnity":
        """Inverse of ``to_json``; unit keys are matched to G's units by repr."""
        units = {repr(u): u for u in G.units}

        def unit(key):
            if key not in units:
                raise InvalidInput(f"partition of unity names unknown unit {key!r}")
            return units[key]

        with malformed("partition of unity"):
            towers = [
                NestedColorTower(i, [frozenset(map(unit, lvl)) for lvl in levels])
                for i, levels in enumerate(data["tower_levels"])
            ]
            psi = [{unit(u): Fraction(v) for u, v in p.items()} for p in data["psi"]]
            N = positive_int(data["N"], "averaging depth N")
        if not 1 <= len(psi) == len(towers) or not all(t.levels for t in towers):
            raise InvalidInput("a partition of unity needs one psi and a nonempty tower per color")
        return cls(G, K, towers, N, psi, _norm_sq(psi))

    def to_json(self) -> dict:
        def key(u):
            return repr(u)

        return {
            "N": self.N,
            "colors": [sorted(map(key, t.top)) for t in self.towers],
            "psi": [
                {key(u): str(v) for u, v in sorted(p.items(), key=lambda kv: key(kv[0]))}
                for p in self.psi
            ],
            "tower_levels": [
                [sorted(map(key, lvl)) for lvl in t.levels] for t in self.towers
            ],
        }


def _norm_sq(psi: list[dict]) -> dict:
    """x -> max(sum_j psi_j(x)^2, 1) on the union of the supports."""
    return {
        x: max(sum((p.get(x, Fraction(0)) ** 2 for p in psi), Fraction(0)), Fraction(1))
        for x in set().union(*psi)
    }


def build_pou(G, K, towers: list[NestedColorTower]) -> PartitionOfUnity:
    """Average the tower indicator steps and normalize in squared form.

    psi_i(x) = #{n in [1, N] : x in U_i^(n-1)} / N; at least one psi_i
    equals 1 on r(K) u s(K) because the base levels cover it, so the
    squared normalizer is the honest sum there and sum phi_i^2 = 1 exactly.
    K is symmetric, as for ``build_tower``, and is kept in the result.
    """
    if not towers:
        raise TowerInvalid("need at least one tower")
    N = towers[0].depth
    if N < 3:
        raise TowerInvalid("averaging depth must satisfy N >= 3")
    if any(t.depth != N for t in towers):
        raise TowerInvalid("towers have mismatched depths")
    base = _endpoint_units(G, K)

    psi: list[dict] = []
    for t in towers:
        vals: dict = {}
        for x in t.top:
            count = sum(1 for n in range(1, N + 1) if x in t.levels[n - 1])
            if count:
                vals[x] = Fraction(count, N)
        psi.append(vals)

    norm_sq = _norm_sq(psi)
    pou = PartitionOfUnity(G, K, towers, N, psi, norm_sq)

    for x in base:
        if not any(p.get(x) == 1 for p in psi):
            raise TowerInvalid(f"no step function equals 1 at {x!r}; base cover broken")
    return pou


def verify_pou(G, K, pou: PartitionOfUnity, eps: Rat | None = None) -> VerificationReport:
    """Exhaustive exact check of values, supports, normalization, and
    oscillation.

    Every psi_i must take its values in [0, 1].  With ``eps`` a rational,
    each arrow's oscillation is compared to it; with ``eps`` None the
    bound is sqrt(2)(1+sqrt(d+1))/sqrt(N).  Either way the comparison is
    decided on squares with zero tolerance.

    K is walked as given, once.  Its symmetrization would not change the
    verdict: both checks on an arrow are symmetric in its endpoints, and
    a unit arrow passes them.
    """
    ends = [(a, G.source(a), G.range(a)) for a in K]
    base = frozenset(x for _, sx, rx in ends for x in (sx, rx))
    d, N = pou.d, pou.N

    for i, p in enumerate(pou.psi):
        for x, v in p.items():
            if not 0 <= v <= 1:
                return VerificationReport(
                    False, "StepValueOutOfRange",
                    f"psi_{i} = {v} outside [0, 1] at {x!r}",
                    {"color": i, "unit": repr(x), "value": str(v)},
                )

    for i, t in enumerate(pou.towers):
        for x, v in pou.psi[i].items():
            if v > 0 and x not in t.top:
                return VerificationReport(
                    False, "SupportViolation",
                    f"phi_{i} positive outside its color at {x!r}",
                    {"color": i, "unit": repr(x)},
                )

    for x in base:
        total = sum(
            (p.get(x, Fraction(0)) ** 2 for p in pou.psi), Fraction(0)
        )
        if total / pou.norm_sq.get(x, Fraction(1)) != 1:
            return VerificationReport(
                False, "NormalizationDefect",
                f"sum phi_i^2 != 1 at {x!r}",
                {"unit": repr(x)},
            )
        if sum((p.get(x, Fraction(0)) for p in pou.psi), Fraction(0)) < 1:
            return VerificationReport(
                False, "NormalizationDefect",
                f"sum psi_i < 1 at {x!r}", {"unit": repr(x)},
            )

    # an arrow's checks read only the pairs (psi_i, S) at its endpoints:
    # each unit gets the id of its pair per color, and each distinct pair
    # of ids is decided once; K is walked in its order, so the first
    # violation is the one the per-arrow loop reports
    step_bound = Fraction(2, N)
    pair_ids: dict = {}
    ids = [
        {x: pair_ids.setdefault(pou.phi_pair(i, x), len(pair_ids)) for x in base}
        for i in range(d + 1)
    ]
    pairs = list(pair_ids)

    def decide(key):
        (ps, Ss), (pr, Sr) = pairs[key[0]], pairs[key[1]]
        if abs(ps - pr) > step_bound:
            return "StepBoundViolation", None
        if eps is None:
            ok = diff_lt_osc_bound(ps, Ss, pr, Sr, d, N)
        else:
            ok = diff_lt_rational(ps, Ss, pr, Sr, Fraction(eps))
        if not ok:
            return "OscillationExceeded", None
        return None, abs(sqrt_pair_float(ps, Ss) - sqrt_pair_float(pr, Sr))

    decided: dict = {}
    max_osc_float = 0.0
    for a, sx, rx in ends:
        for i in range(d + 1):
            key = (ids[i][sx], ids[i][rx])
            verdict = decided.get(key)
            if verdict is None:
                verdict = decided[key] = decide(key)
            code, osc = verdict
            if code == "StepBoundViolation":
                return VerificationReport(
                    False, code,
                    f"|psi_{i}(s) - psi_{i}(r)| > 2/N on arrow {a!r}",
                    {"arrow": repr(a), "color": i},
                )
            if code == "OscillationExceeded":
                return VerificationReport(
                    False, code,
                    f"|phi_{i}(s(g)) - phi_{i}(r(g))| too large on arrow {a!r}",
                    {"arrow": repr(a), "color": i},
                )
            max_osc_float = max(max_osc_float, osc)
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
    (``TransformationGroupoid.moves``, E read mod order); returns
    (G, K, towers, pou).

    Either pass the averaging depth N directly, or a rational eps from
    which the least admissible depth is derived.
    """
    from .exactmath import least_pou_depth

    G = cyclic_rotation_groupoid(order)
    K = G.moves(e % order for e in E)
    if N is None:
        if eps is None:
            raise InvalidInput("pass an averaging depth N or a rational eps")
        N = least_pou_depth(len(colors) - 1, Fraction(eps))
    enlarged, _ = enlarge_cover(G, K, colors, size_bound)
    towers = build_tower(G, K, enlarged, N, size_bound)
    pou = build_pou(G, K, towers)
    return G, K, towers, pou
