"""Input variants and an independent check for odometer witnesses.

Nothing here imports dadim: the benchmark makes its seeded inputs and
checks odometer witnesses that have no golden file with plain integer
arithmetic, so a defect in the library's clopen algebra cannot hide in
the check.
"""

from __future__ import annotations


def _base_at(base, i):
    return base[i % len(base)]


def _word_digits(word):
    return [int(c) for c in (word.split(".") if "." in word else word)] if word else []


def _word_residue(base, word):
    """(depth, residue mod q_depth) of a cylinder word, least significant digit first."""
    value, weight = 0, 1
    digits = _word_digits(word)
    for i, d in enumerate(digits):
        value += d * weight
        weight *= _base_at(base, i)
    return len(digits), value


def _level_size(base, depth):
    q = 1
    for i in range(depth):
        q *= _base_at(base, i)
    return q


def _residue_word(base, depth, value):
    digits = []
    for i in range(depth):
        k = _base_at(base, i)
        digits.append(value % k)
        value //= k
    sep = "" if all(_base_at(base, i) <= 10 for i in range(depth)) else "."
    return sep.join(str(d) for d in digits)


def odometer_residues(base, cylinders, depth):
    """Residues mod q_depth covered by a union of cylinder words."""
    q = _level_size(base, depth)
    out = set()
    for word in cylinders:
        k, v = _word_residue(base, word)
        if k > depth:
            raise ValueError(f"cylinder of depth {k} below quotient depth {depth}")
        qk = _level_size(base, k)
        out.update(range(v, q, qk))
    return frozenset(out)


def translate_color(system, color, shift):
    """JSON of the odometer clopen set shift.U, computed without the library:
    x -> x + shift on every cylinder residue."""
    if system["kind"] != "odometer":
        raise ValueError(f"translate_color takes odometer colors, not {system['kind']}")
    base = system["base"]
    words = []
    for word in color["cylinders"]:
        depth, v = _word_residue(base, word)
        words.append(_residue_word(base, depth, (v + shift) % _level_size(base, depth)))
    return {"cylinders": sorted(words)}


def residue_walk(q, residues, E, disp_cap):
    """Broken-orbit element set of a union of residues on the rotation Z/q.

    States are (position, displacement) pairs; a displacement beyond the
    cap means the set is not finite within the cap, and None is returned.
    """
    steps = sorted({e for x in E for e in (x, -x)} - {0})
    reached = set()
    frontier = [(p, 0) for p in residues]
    seen = set(frontier)
    while frontier:
        pos, disp = frontier.pop()
        reached.add(disp)
        for e in steps:
            state = ((pos + e) % q, disp + e)
            if abs(state[1]) > disp_cap:
                return None
            if state[0] in residues and state not in seen:
                seen.add(state)
                frontier.append(state)
    return frozenset(reached)


def check_odometer_witness(system, witness):
    """Problems found in a two-color odometer witness (empty when it is right).

    The declared finite sets must equal the residue walk at the deepest
    cylinder depth, the colors must cover Z/q, and F_0 and F_1 must lie in
    [-3N, 3N] and [-M-N, M+N].
    """
    base = system["base"]
    colors = [c["cylinders"] for c in witness["colors"]]
    depth = max(_word_residue(base, w)[0] for words in colors for w in words)
    q = _level_size(base, depth)
    residues = [odometer_residues(base, words, depth) for words in colors]
    problems = []
    if frozenset().union(*residues) != frozenset(range(q)):
        problems.append(f"colors do not cover Z/{q}")
    N, M = witness["meta"]["N"], witness["meta"]["M"]
    E = witness["E"]
    for i, (res, F) in enumerate(zip(residues, witness["finite_sets"])):
        walk = residue_walk(q, res, E, 2 * (M + N))
        if walk != frozenset(F):
            problems.append(f"color {i}: finite set differs from the residue walk on Z/{q}")
    bounds = (3 * N, M + N)
    for i, (F, b) in enumerate(zip(witness["finite_sets"], bounds)):
        if any(abs(n) > b for n in F):
            problems.append(f"F_{i} leaves [-{b}, {b}]")
    return problems


def rotate_units(order, units, r):
    """Units of Z/order, given as strings or ints, moved by r."""
    return sorted(str((int(u) + r) % order) for u in units)


def rotate_pou(order, pou, r):
    """Partition-of-unity JSON moved by the rotation x -> x + r of Z/order.

    Rotation is an automorphism of the rotation groupoid that preserves a
    symmetric generating set, so the moved certificate verifies with the
    same oscillation.
    """
    return {
        "N": pou["N"],
        "colors": [rotate_units(order, c, r) for c in pou["colors"]],
        "psi": [{str((int(u) + r) % order): v for u, v in p.items()} for p in pou["psi"]],
        "tower_levels": [
            [rotate_units(order, lvl, r) for lvl in levels] for levels in pou["tower_levels"]
        ],
    }
