"""Test inputs and all-pairs oracles shared by several test modules."""

from collections import deque
from fractions import Fraction

from dadim.errors import (
    EmptySkeleton,
    InvalidInput,
    NotAnAction,
    NotFree,
    NotInComplex,
    PropagationEscapesColor,
    TowerInvalid,
    WitnessInsufficient,
)
from dadim.exactmath import diff_lt_osc_bound, diff_lt_rational, osc_bound_float, sqrt_pair_float
from dadim.groupoid import (
    BlockArrows,
    FiniteGroupoid,
    _endpoint_units,
    _seed_in_color,
    generate_subgroupoid,
)
from dadim.reporting import VerificationReport
from dadim.certify import file_hash, rational_str
from dadim.nerve import SimplicialPoint, inner_radius, l1_distance, nice_cover_assign, outer_radius
from dadim.pou import NestedColorTower, PartitionOfUnity
from dadim.symbolic import ClopenSet, SymbolicSystem


def z2_pair_groupoid_json(n: int, corrupt: bool = False) -> dict:
    """Z/2 x the pair groupoid on n units as an explicit groupoid file.

    Arrow (g, x, y) runs from y to x and has id g*n*n + x*n + y.  There
    are 8 n^4 composable triples, 405 000 at n = 15.
    With ``corrupt`` one composite, (1, 0, 1)(1, 1, 2), is (1, 0, 2)
    instead of (0, 0, 2): endpoints, units and inverses stay right, so
    only associativity can catch it.
    """

    def aid(g, x, y):
        return g * n * n + x * n + y

    cells = [(g, x, y) for g in (0, 1) for x in range(n) for y in range(n)]
    compose = [
        [aid(g, x, y), aid(h, y, z), aid((g + h) % 2, x, z)]
        for g, x, y in cells for h in (0, 1) for z in range(n)
    ]
    if corrupt:
        for triple in compose:
            if triple[:2] == [aid(1, 0, 1), aid(1, 1, 2)]:
                triple[2] = aid(1, 0, 2)
    return {
        "units": list(range(n)),
        "arrows": [{"id": aid(*c), "s": c[2], "r": c[1]} for c in cells],
        "compose": compose,
        "inverse": {str(aid(g, x, y)): aid(g, y, x) for g, x, y in cells},
    }


def arrow_positions(bd) -> dict:
    """arrow -> (block, row, column) of a block decomposition, read off
    ``bd.where``: every arrow of G with both endpoints in one block, at
    the row of its range and the column of its source."""
    G = bd.G
    out = {}
    for g in G.arrows:
        s, r = bd.where.get(G.source(g)), bd.where.get(G.range(g))
        if s is not None and r is not None and s[0] == r[0]:
            out[g] = (s[0], r[1], s[1])
    return out


def matrix_unit_defects(bd) -> list:
    """Pairs (a, b) of arrows of a block decomposition whose matrix units
    do not multiply like the arrows compose, over all pairs: e_a e_b must
    be the matrix unit of ab when ab is defined, and 0 when it is not."""
    pos = arrow_positions(bd)
    out = []
    for a, (ka, ia, ja) in pos.items():
        for b, (kb, ib, jb) in pos.items():
            ab = bd.G.compose(a, b)
            want = (ka, ia, jb) if ka == kb and ja == ib else None
            got = None if ab is None else pos.get(ab, ())
            if got != want:
                out.append((a, b))
    return out


def constraint_bfs(
    system: SymbolicSystem,
    color: ClopenSet,
    E: tuple[int, ...],
    blowup_bound: int,
):
    """Breadth-first exploration of the broken-orbit element set of one color.

    Returns (elements, complete) where ``complete`` is False when the search
    was cut off at ``blowup_bound`` distinct elements with frontier still
    active.  States are (element, constraint) pairs; the constraint is the
    clopen set of starting points x in U such that every partial sum s of
    the path satisfies s.x in U; a state is retained iff it is nonempty.
    """
    if color.is_empty():
        return frozenset(), True
    if color.is_whole() and any(e != 0 for e in E):
        # the whole space puts no constraint on paths, so every element of
        # the subgroup generated by E is reached; on an infinite system the
        # element set is infinite
        if getattr(system, "infinite", True):
            return None, False

    translate_cache: dict[int, ClopenSet] = {0: color}

    def constraint_at(n: int) -> ClopenSet:
        if n not in translate_cache:
            translate_cache[n] = color.translate(-n)
        return translate_cache[n]

    start = (0, color)
    seen = {start}
    elements = {0}
    queue = deque([start])
    while queue:
        n, cset = queue.popleft()
        for e in E:
            if e == 0:
                continue
            n2 = n + e
            c2 = cset.intersect(constraint_at(n2))
            if c2.is_empty():
                continue
            state = (n2, c2)
            if state in seen:
                continue
            seen.add(state)
            elements.add(n2)
            if len(elements) > blowup_bound:
                return frozenset(elements), False
            queue.append(state)
    return frozenset(elements), True


# ---------------------------------------------------------------------------
# nerve: points as dicts of Fractions


class FractionPoint:
    """Finitely supported probability vector with ``Fraction`` weights; the
    oracle of ``dadim.nerve.SimplicialPoint``."""

    __slots__ = ("weights",)

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
        self.weights = w

    def support(self) -> frozenset:
        return frozenset(self.weights)

    def mass_on(self, vertices) -> Fraction:
        return sum((t for v, t in self.weights.items() if v in vertices), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, FractionPoint) and self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def to_json(self) -> dict:
        return {repr(v): str(t) for v, t in sorted(self.weights.items(), key=lambda kv: repr(kv[0]))}


def mass_on(mu: SimplicialPoint, vertices) -> Fraction:
    """The mass a ``SimplicialPoint`` puts on a vertex set, as a ``Fraction``."""
    return Fraction(mu._mass_num(vertices), mu.den)


def maximal_faces_oracle(vertices, faces) -> tuple:
    """``SimplicialComplex.maximal_faces`` from one all-pairs scan: the
    distinct faces, then the lone vertices, keeping each face that lies
    inside no other one."""
    faces = list({frozenset(f) for f in faces})
    covered = set().union(*faces) if faces else set()
    for v in frozenset(vertices) - covered:
        faces.append(frozenset({v}))
    return tuple(f for f in faces if not any(f < g for g in faces))


def is_face_oracle(C, subset) -> bool:
    """A nonempty subset of some maximal face, by a scan of them all."""
    s = frozenset(subset)
    return bool(s) and any(s <= f for f in C.maximal_faces)


def faces_of_dim_at_most(C, i: int) -> list:
    return [f for f in C.faces if len(f) <= i + 1]


def check_simplicial_action_oracle(C, group, act_V) -> None:
    """``nerve.check_simplicial_action`` with each image tested by
    ``is_face_oracle``."""
    for g in group.elements:
        for f in C.maximal_faces:
            image = frozenset(act_V(g, v) for v in f)
            if not is_face_oracle(C, image):
                raise InvalidInput(
                    f"action of {g!r} sends face {sorted(map(repr, f))} outside the complex"
                )


def l1_distance_oracle(mu: FractionPoint, nu: FractionPoint) -> Fraction:
    total = Fraction(0)
    for v in mu.support() | nu.support():
        total += abs(mu.weights.get(v, Fraction(0)) - nu.weights.get(v, Fraction(0)))
    return total


def skeleton_mass_oracle(mu: FractionPoint, C, i: int) -> Fraction:
    """The largest mass of mu on one face of dimension <= i, over every
    maximal face: the top i + 1 weights on each."""
    best = Fraction(0)
    for f in C.maximal_faces:
        if len(f) <= i + 1:
            mass = mu.mass_on(f)
        else:
            top = sorted((mu.weights.get(v, Fraction(0)) for v in f), reverse=True)
            mass = sum(top[: i + 1], Fraction(0))
        if mass > best:
            best = mass
    return best


def distance_to_skeleton_oracle(mu: FractionPoint, C, i: int) -> Fraction:
    if not is_face_oracle(C, mu.support()):
        raise NotInComplex(f"support {sorted(map(repr, mu.support()))} is not a face")
    if i < 0:
        raise EmptySkeleton("the (-1)-skeleton is empty")
    return 2 * (1 - skeleton_mass_oracle(mu, C, i))


def nice_cover_assign_oracle(mu: FractionPoint, C):
    """Least level i with mu in V_i, and its unique i-simplex piece, by
    comparing ``Fraction`` distances with the radii."""
    if not is_face_oracle(C, mu.support()):
        raise NotInComplex("point is outside the complex")
    for i in range(C.dimension + 1):
        if distance_to_skeleton_oracle(mu, C, i) >= inner_radius(i):
            continue
        if i > 0 and distance_to_skeleton_oracle(mu, C, i - 1) <= outer_radius(i):
            continue
        pieces = [
            delta
            for delta in C.simplices_of_dim(i)
            if 2 * (1 - mu.mass_on(delta)) < inner_radius(i)
        ]
        if len(pieces) != 1:
            raise InvalidInput(
                f"level {i} piece is not unique ({len(pieces)} candidates); "
                "separation violated"
            )
        return i, pieces[0]
    raise InvalidInput("point escaped the cover; levels are inconsistent")


def compositions(total: int, parts: int):
    """Every way to write total as ``parts`` nonnegative integers, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def nerve_certificate_pair_loop(C, den: int) -> dict:
    """The certificate of ``dadim nerve`` from one ``SimplicialPoint`` and
    one ``nice_cover_assign`` call per sample, and one ``l1_distance`` call
    per pair of samples in distinct pieces of a level; the oracle of
    ``dadim.nerve.grid_certificate``."""
    counts: dict = {}
    by_piece: dict = {}
    for face in C.maximal_faces:
        verts = sorted(face, key=repr)
        for combo in compositions(den, len(verts)):
            mu = SimplicialPoint.from_numerators(dict(zip(verts, combo)), den)
            i, delta = nice_cover_assign(mu, C)
            counts[str(i)] = counts.get(str(i), 0) + 1
            by_piece.setdefault((i, delta), []).append(mu)
    seps: dict = {}
    pieces = list(by_piece.items())
    for a, ((i, _), pts) in enumerate(pieces):
        for (j, _), pts2 in pieces[a + 1:]:
            if j == i:
                d = min(l1_distance(mu, nu) for mu in pts for nu in pts2)
                seps[str(i)] = min(seps.get(str(i), d), d)
    return {
        "certified_on": "sample-grid",
        "denominator": den,
        "level_counts": counts,
        "min_cross_piece_separation": {i: rational_str(s) for i, s in seps.items()},
        "samples": sum(counts.values()),
        "separation_ok": all(s >= inner_radius(int(i)) for i, s in seps.items()),
    }


# ---------------------------------------------------------------------------
# group actions


def verify_action_oracle(group, space, act):
    """Exhaustive check that ``act`` is an action of ``group`` on ``space``,
    one call of ``act`` per use, over every (g, h, x) in order."""
    elems = set(group.elements)
    points = set(space)
    for g in group.elements:
        if group.inv(g) not in elems:
            raise NotAnAction(f"group inverse of {g!r} missing")
        for x in space:
            if act(g, x) not in points:
                raise NotAnAction(f"action leaves the space at ({g!r}, {x!r})")
    for x in space:
        if act(group.unit, x) != x:
            raise NotAnAction("identity does not act trivially")
    for g in group.elements:
        for h in group.elements:
            gh = group.mult(g, h)
            if gh not in elems:
                raise NotAnAction("group multiplication escapes the element set")
            for x in space:
                if act(g, act(h, x)) != act(gh, x):
                    raise NotAnAction(f"not an action at ({g!r}, {h!r}, {x!r})")


def action_groupoid_oracle(group, space, act) -> FiniteGroupoid:
    """The transformation groupoid of an action as an explicit groupoid:
    a dict entry per arrow for each structure map, the full composition
    table (g, h.x)(h, x) = (gh, x), and the exhaustive axiom check."""
    space = tuple(space)
    arrows = tuple((g, x) for g in group.elements for x in space)
    range_ = {a: act(*a) for a in arrows}
    return FiniteGroupoid(
        space, arrows,
        source={a: a[1] for a in arrows},
        range_=range_,
        inverse={a: (group.inv(a[0]), range_[a]) for a in arrows},
        compose_table={
            ((g, y), (h, x)): (group.mult(g, h), x)
            for (h, x), y in range_.items() for g in group.elements
        },
        unit_arrow={u: (group.unit, u) for u in space},
        check=True,
    )


def regular_representation_oracle(f, x) -> tuple:
    """(basis, matrix) of pi_x(f) by its definition: the source fiber of x
    sorted by repr, and matrix[i][j] = f(g_i g_j^-1) from one ``compose``
    per entry."""
    G = f.G
    basis = tuple(sorted((g for g in G.arrows if G.source(g) == x), key=repr))
    matrix = []
    for gi in basis:
        row = []
        for gj in basis:
            arrow = G.compose(gi, G.inverse(gj))
            row.append(f.coeffs.get(arrow, (0, 0)) if arrow is not None else (0, 0))
        matrix.append(row)
    return basis, matrix


# ---------------------------------------------------------------------------
# block decompositions and partitions of unity, arrow by arrow


def block_decompose_oracle(G, sub=None) -> tuple:
    """(classes, arrow_pos) of ``convolution.block_decompose`` from one scan
    of every arrow of G: an arrow with both endpoints in one block is
    placed at (block, row of its range, column of its source); isotropy
    at a block unit raises NotFree, and so do coordinates that are not
    distinct or do not fill every block."""
    if sub is None:
        sub = BlockArrows(frozenset(G.orbits))
    classes = sorted((tuple(sorted(b, key=repr)) for b in sub.blocks), key=lambda m: repr(m[0]))
    where = {u: (k, i) for k, members in enumerate(classes) for i, u in enumerate(members)}
    arrow_pos: dict = {}
    for g in G.arrows:
        s = where.get(G.source(g))
        r = where.get(G.range(g))
        if s is None or r is None or s[0] != r[0]:
            continue
        if s == r and g != G.unit_arrow(G.source(g)):
            raise NotFree(f"isotropy arrow {g!r} at unit {G.source(g)!r}")
        arrow_pos[g] = (s[0], r[1], s[1])
    if len(set(arrow_pos.values())) != len(arrow_pos) or len(arrow_pos) != len(sub):
        raise NotFree("a block is not inside one orbit: its matrix units are not all arrows")
    return [(m[0], m) for m in classes], arrow_pos


def symmetrize_arrows(G, K):
    """K u K^-1 u unit arrows of all endpoints of K."""
    out = set(K)
    for a in K:
        out.add(G.inverse(a))
        out.add(G.unit_arrow(G.source(a)))
        out.add(G.unit_arrow(G.range(a)))
    return frozenset(out)


def _propagate_oracle(G, K, units):
    """units u s(K cap r^-1(units)), one scan of K."""
    return frozenset(units) | {G.source(a) for a in K if G.range(a) in units}


def in_envelope_oracle(G, K, G_i, gen) -> bool:
    """gen <= K . G_i . K read from the blocks, with each unit's reach
    scanned off a symmetrized K."""
    reach: dict = {}
    for a in K:
        k = G_i.label.get(G.range(a))
        if k is not None:
            reach.setdefault(G.source(a), set()).add(k)
    return all(
        not reach.get(x, set()).isdisjoint(reach.get(y, ()))
        for b in gen.blocks for x in b for y in b
    )


def arrow_set_power(G, K, p: int):
    """K^p as a set of arrows, one ``compose`` per composable pair (K
    assumed symmetrized so powers nest)."""
    by_range: dict = {}
    for b in K:
        by_range.setdefault(G.range(b), []).append(b)
    out = cur = frozenset(K)
    for _ in range(p - 1):
        cur = frozenset(
            c for a in cur for b in by_range.get(G.source(a), ())
            if (c := G.compose(a, b)) is not None
        )
        out |= cur
    return out


def enlarge_cover_oracle(G, K, colors, size_bound):
    """``pou.enlarge_cover`` symmetrizing K itself and rescanning it for
    the endpoints of K and of K^3, the partial orbits and each reach."""
    if not G.is_free():
        raise NotFree("cover enlargement needs a free groupoid")
    K = symmetrize_arrows(G, K)
    K3 = arrow_set_power(G, K, 3)
    base = _endpoint_units(G, K)
    base3 = _endpoint_units(G, K3)
    covered = frozenset().union(*colors) if colors else frozenset()
    if not base3 <= covered:
        raise WitnessInsufficient(
            f"colors do not cover r(K^3) u s(K^3); {len(base3 - covered)} units missing"
        )
    G_is = []
    for i, color in enumerate(colors):
        gen = generate_subgroupoid(G, _seed_in_color(G, K3, color))
        if size_bound is not None and len(gen) > size_bound:
            raise WitnessInsufficient(
                f"color {i} generates {len(gen)} arrows for K^3 > bound {size_bound}"
            )
        G_is.append(gen)
    partial = {x: {G.source(a) for a in K if G.range(a) == x} for x in base}
    enlarged = [
        frozenset().union(*(partial.get(x, ()) for x in color)) & base for color in colors
    ]
    orbit_fail = [x for x in base if not any(partial[x] <= u for u in enlarged)]
    if orbit_fail:
        raise WitnessInsufficient(
            f"partial orbits not contained in a single color at {orbit_fail[:3]!r}"
        )
    gen_sizes = []
    for i, u in enumerate(enlarged):
        gen = generate_subgroupoid(G, _seed_in_color(G, K, u))
        if not in_envelope_oracle(G, K, G_is[i], gen):
            raise WitnessInsufficient(f"color {i}: generated subgroupoid escapes K.G_i.K")
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


def build_tower_oracle(G, K, colors, N, size_bound):
    """``pou.build_tower`` symmetrizing K itself and scanning it once per
    level and color."""
    if N < 1:
        raise InvalidInput("tower depth N must be positive")
    K = symmetrize_arrows(G, K)
    base = _endpoint_units(G, K)
    covered = frozenset().union(*colors) if colors else frozenset()
    if not base <= covered:
        raise TowerInvalid(f"colors do not cover r(K) u s(K); {len(base - covered)} units missing")
    towers = []
    for i, color in enumerate(colors):
        levels = [frozenset(color)]
        for _ in range(N + 1):
            levels.append(_propagate_oracle(G, K, levels[-1]))
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


def build_pou_oracle(G, K, towers):
    """``pou.build_pou`` symmetrizing K itself: psi counts the levels below
    N holding a unit, norm_sq is max(sum_j psi_j^2, 1) on their supports."""
    K = symmetrize_arrows(G, K)
    if not towers:
        raise TowerInvalid("need at least one tower")
    N = towers[0].depth
    if N < 3:
        raise TowerInvalid("averaging depth must satisfy N >= 3")
    if any(t.depth != N for t in towers):
        raise TowerInvalid("towers have mismatched depths")
    psi = []
    for t in towers:
        counts = {x: sum(1 for n in range(1, N + 1) if x in t.levels[n - 1]) for x in t.top}
        psi.append({x: Fraction(c, N) for x, c in counts.items() if c})
    norm_sq = {
        x: max(sum((p.get(x, Fraction(0)) ** 2 for p in psi), Fraction(0)), Fraction(1))
        for x in set().union(*psi)
    }
    for x in _endpoint_units(G, K):
        if not any(p.get(x) == 1 for p in psi):
            raise TowerInvalid(f"no step function equals 1 at {x!r}; base cover broken")
    return PartitionOfUnity(G, K, towers, N, psi, norm_sq)


def verify_pou_oracle(G, K, pou, eps=None) -> VerificationReport:
    """``pou.verify_pou`` with the step and oscillation checks decided
    afresh on every (arrow, color), walking K as given."""
    base = _endpoint_units(G, K)
    d, N = pou.d, pou.N
    for i, p in enumerate(pou.psi):
        for x, v in p.items():
            if not 0 <= v <= 1:
                return VerificationReport(
                    False, "StepValueOutOfRange", f"psi_{i} = {v} outside [0, 1] at {x!r}",
                    {"color": i, "unit": repr(x), "value": str(v)},
                )
    for i, t in enumerate(pou.towers):
        for x, v in pou.psi[i].items():
            if v > 0 and x not in t.top:
                return VerificationReport(
                    False, "SupportViolation", f"phi_{i} positive outside its color at {x!r}",
                    {"color": i, "unit": repr(x)},
                )
    for x in base:
        total = sum((p.get(x, Fraction(0)) ** 2 for p in pou.psi), Fraction(0))
        if total / pou.norm_sq.get(x, Fraction(1)) != 1:
            return VerificationReport(
                False, "NormalizationDefect", f"sum phi_i^2 != 1 at {x!r}", {"unit": repr(x)},
            )
        if sum((p.get(x, Fraction(0)) for p in pou.psi), Fraction(0)) < 1:
            return VerificationReport(
                False, "NormalizationDefect", f"sum psi_i < 1 at {x!r}", {"unit": repr(x)},
            )
    step_bound = Fraction(2, N)
    max_osc_float = 0.0
    for a in K:
        sx, rx = G.source(a), G.range(a)
        for i in range(d + 1):
            ps, Ss = pou.phi_pair(i, sx)
            pr, Sr = pou.phi_pair(i, rx)
            if abs(ps - pr) > step_bound:
                return VerificationReport(
                    False, "StepBoundViolation",
                    f"|psi_{i}(s) - psi_{i}(r)| > 2/N on arrow {a!r}",
                    {"arrow": repr(a), "color": i},
                )
            if eps is None:
                ok = diff_lt_osc_bound(ps, Ss, pr, Sr, d, N)
            else:
                ok = diff_lt_rational(ps, Ss, pr, Sr, Fraction(eps))
            if not ok:
                return VerificationReport(
                    False, "OscillationExceeded",
                    f"|phi_{i}(s(g)) - phi_{i}(r(g))| too large on arrow {a!r}",
                    {"arrow": repr(a), "color": i},
                )
            max_osc_float = max(
                max_osc_float, abs(sqrt_pair_float(ps, Ss) - sqrt_pair_float(pr, Sr))
            )
    return VerificationReport(
        True, "ok", "partition of unity verified",
        {
            "max_oscillation_float": max_osc_float,
            "bound_float": osc_bound_float(d, N) if eps is None else float(eps),
            "d": d,
            "N": N,
        },
    )


# the stages of ``run_pipeline`` with their hand-written links, as the
# two-step chain recorded them: (kind, inputs, outputs)
PIPELINE_LINKS = [
    ("system", {}, {"system": "01_system.json"}),
    ("witness", {"system": "01_system.json"}, {"witness": "02_witness.json"}),
    ("groupoid", {"witness": "02_witness.json"},
     {"groupoid_witness": "03_groupoid_witness.json"}),
    ("enlarge", {"groupoid_witness": "03_groupoid_witness.json"},
     {"enlarged": "04_enlarged.json"}),
    ("tower", {"enlarged": "04_enlarged.json"}, {"towers": "05_towers.json"}),
    ("pou", {"towers": "05_towers.json"}, {"pou": "06_pou.json"}),
    ("decompose", {"pou": "06_pou.json"}, {"decomposition": "07_decomposition.json"}),
]


class TwoStepChain:
    """``certify.CertificateChain`` as a caller first wrote each artifact
    and ``add_stage`` then hashed every input and output again from disk."""

    def __init__(self, directory):
        self.directory = directory
        self.stages: list[dict] = []

    def add_stage(self, kind: str, inputs: dict, outputs: dict, status: str, details=None):
        self.stages.append(
            {
                "index": len(self.stages),
                "kind": kind,
                "inputs": {name: file_hash(self.directory / p) for name, p in inputs.items()},
                "input_files": {name: str(p) for name, p in inputs.items()},
                "outputs": {name: file_hash(self.directory / p) for name, p in outputs.items()},
                "output_files": {name: str(p) for name, p in outputs.items()},
                "status": status,
                "details": details or {},
            }
        )
