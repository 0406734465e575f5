"""Test inputs and all-pairs oracles shared by several test modules."""

from collections import deque

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


def matrix_unit_defects(bd) -> list:
    """Pairs (a, b) of arrows of a block decomposition whose matrix units
    do not multiply like the arrows compose, over all pairs: e_a e_b must
    be the matrix unit of ab when ab is defined, and 0 when it is not."""
    out = []
    for a, (ka, ia, ja) in bd.arrow_pos.items():
        for b, (kb, ib, jb) in bd.arrow_pos.items():
            ab = bd.G.compose(a, b)
            want = (ka, ia, jb) if ka == kb and ja == ib else None
            got = None if ab is None else bd.arrow_pos.get(ab, ())
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
