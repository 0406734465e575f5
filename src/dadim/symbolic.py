"""Exact symbolic models of Cantor-type Z-systems.

Two families of systems are supported, both zero-dimensional so that every
clopen set is represented exactly and closure is the identity:

* odometers with an eventually periodic base pattern -- a depth-m cylinder
  is a residue class modulo q_m = k_1*...*k_m, and the +1 map acts on
  depth-m cylinders as +1 mod q_m, so every translate is exact at the same
  depth;
* subshifts (primitive substitutions, or shifts of finite type given by
  forbidden words) -- a clopen set is a finite union of word cylinders over
  an integer window, and the shift moves the window.

All set operations return canonical representations; verification code
upstream relies on determinism, not on any floating approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    DepthExceeded,
    EmptySet,
    InvalidInput,
    integer,
    malformed,
    positive_int,
)

__all__ = [
    "SymbolicSystem",
    "Odometer",
    "SubstitutionSubshift",
    "ForbiddenWordSubshift",
    "ClopenSet",
    "OdometerClopen",
    "SubshiftClopen",
    "ReturnTimeReport",
    "disjoint_translates_radius",
    "return_time_report",
    "system_from_json",
    "clopen_from_json",
]


# ---------------------------------------------------------------------------
# systems


class SymbolicSystem:
    """Base class: a compact zero-dimensional space with a Z-action."""

    kind: str
    depth_limit: int
    minimal: bool
    infinite: bool

    def empty(self) -> "ClopenSet":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class Odometer(SymbolicSystem):
    """Adding machine over a periodic base pattern (entries >= 2).

    The pattern [2] gives the dyadic odometer; [k1, k2, ...] repeats
    periodically, so arbitrary depths stay exact.
    """

    kind = "odometer"

    def __init__(self, base: list[int], depth_limit: int = 64):
        if not base or any(int(b) < 2 for b in base):
            raise InvalidInput("odometer base entries must be integers >= 2")
        if depth_limit < 1:
            raise InvalidInput("depth_limit must be positive")
        self.base = tuple(int(b) for b in base)
        self.depth_limit = int(depth_limit)
        self.minimal = True
        self.infinite = True
        sizes = [1]
        for i in range(self.depth_limit):
            sizes.append(sizes[-1] * self.base_at(i))
        self._sizes = sizes

    def base_at(self, i: int) -> int:
        return self.base[i % len(self.base)]

    def level_size(self, depth: int) -> int:
        """q_depth = product of the first `depth` base entries."""
        if depth > self.depth_limit:
            raise DepthExceeded(f"depth {depth} exceeds depth_limit {self.depth_limit}")
        return self._sizes[depth]

    def empty(self) -> "OdometerClopen":
        return OdometerClopen(self, 0, frozenset())

    def clopen(self, depth: int, values) -> "OdometerClopen":
        q = self.level_size(depth)
        vals = frozenset(int(v) % q for v in values)
        return OdometerClopen(self, depth, vals)

    def cylinder(self, digits) -> "OdometerClopen":
        """Cylinder fixing the first len(digits) digits (least significant first)."""
        depth = len(digits)
        q = self.level_size(depth)
        value = 0
        weight = 1
        for i, d in enumerate(digits):
            d = int(d)
            if not 0 <= d < self.base_at(i):
                raise InvalidInput(f"digit {d} out of range at position {i}")
            value += d * weight
            weight *= self.base_at(i)
        if value >= q:
            raise InvalidInput(f"cylinder value {value} is not below q_{depth} = {q}")
        return OdometerClopen(self, depth, frozenset({value}))

    def digits_of(self, depth: int, value: int) -> tuple[int, ...]:
        out = []
        v = value
        for i in range(depth):
            k = self.base_at(i)
            out.append(v % k)
            v //= k
        return tuple(out)

    def to_json(self) -> dict:
        return {"kind": "odometer", "base": list(self.base), "depth_limit": self.depth_limit}

    def __repr__(self):
        return f"Odometer(base={list(self.base)})"


class _Subshift(SymbolicSystem):
    """Common machinery for two-sided subshifts over a finite alphabet.

    Cylinders are anchored to integer windows; the admissible words of each
    length (the language) are materialized lazily up to 2*depth_limit, which
    is the widest window the clopen algebra may need.
    """

    def __init__(self, alphabet: list[str], depth_limit: int):
        alph = tuple(str(a) for a in alphabet)
        if not alph or any(len(a) != 1 for a in alph):
            raise InvalidInput("alphabet symbols must be single characters")
        if len(set(alph)) != len(alph):
            raise InvalidInput("alphabet has repeated symbols")
        if depth_limit < 1:
            raise InvalidInput("depth_limit must be positive")
        self.alphabet = alph
        self.depth_limit = int(depth_limit)
        self._lang_cache: dict[int, frozenset[str]] = {0: frozenset({""})}
        self._group_cache: dict[int, tuple[dict, dict]] = {}

    # subclasses fill the cache through _materialize
    def _materialize(self, length: int) -> frozenset[str]:
        raise NotImplementedError

    def max_window(self) -> int:
        return 2 * self.depth_limit

    def language(self, length: int) -> frozenset[str]:
        """All admissible words of the given length."""
        if length < 0:
            raise InvalidInput("length must be nonnegative")
        if length > self.max_window():
            raise DepthExceeded(
                f"language length {length} exceeds window budget {self.max_window()}"
            )
        if length not in self._lang_cache:
            self._lang_cache[length] = self._materialize(length)
        return self._lang_cache[length]

    def _groupings(self, length: int) -> tuple[dict, dict]:
        """The words of the given length grouped by their prefix and by
        their suffix of length ``length - 1``."""
        if length not in self._group_cache:
            by_prefix: dict[str, set[str]] = {}
            by_suffix: dict[str, set[str]] = {}
            for w in self.language(length):
                by_prefix.setdefault(w[:-1], set()).add(w)
                by_suffix.setdefault(w[1:], set()).add(w)
            self._group_cache[length] = (by_prefix, by_suffix)
        return self._group_cache[length]

    def empty(self) -> "SubshiftClopen":
        return SubshiftClopen(self, 0, frozenset())

    def clopen(self, left: int, words) -> "SubshiftClopen":
        ws = frozenset(str(w) for w in words)
        if ws:
            n = len(next(iter(ws)))
            if any(len(w) != n for w in ws):
                raise InvalidInput("all cylinder words must have equal length")
            bad = ws - self.language(n)
            if bad:
                raise InvalidInput(f"inadmissible cylinder words: {sorted(bad)[:3]}")
        left, ws = _canonical_subshift(self, left, ws)
        return SubshiftClopen(self, left, ws)

    def cylinder(self, word: str, left: int = 0) -> "SubshiftClopen":
        return self.clopen(left, [word])


class SubstitutionSubshift(_Subshift):
    """Subshift of a primitive substitution.

    The language is read off longer and longer prefixes of a fixed point of
    a power of the substitution; iteration stops as soon as the factor set
    of the maximal requested length stabilizes between consecutive
    substitution steps, which is a sound stopping rule because a length-n
    factor of sigma(w) is always a factor of sigma(u) for some length-<=n
    factor u of w.
    """

    kind = "subshift"

    def __init__(self, alphabet, rules: dict[str, str], depth_limit: int = 64):
        super().__init__(alphabet, depth_limit)
        self.rules = {str(a): str(w) for a, w in rules.items()}
        for a in self.alphabet:
            if a not in self.rules or not self.rules[a]:
                raise InvalidInput(f"substitution must map every letter; missing {a!r}")
            if any(c not in self.alphabet for c in self.rules[a]):
                raise InvalidInput(f"substitution image of {a!r} uses unknown letters")
        if not self._is_primitive():
            raise InvalidInput(
                "substitution is not primitive; model it with forbidden words instead"
            )
        self.minimal = True
        self._seed, self._power = self._fixed_point_seed()
        self._prefixes = [self._seed]
        self.infinite = self._check_infinite()

    def _incidence_reachable(self) -> bool:
        # primitive iff some power of the incidence matrix is positive
        idx = {a: i for i, a in enumerate(self.alphabet)}
        m = len(self.alphabet)
        mat = [[0] * m for _ in range(m)]
        for a in self.alphabet:
            for c in self.rules[a]:
                mat[idx[a]][idx[c]] = 1
        cur = [row[:] for row in mat]
        for _ in range((m - 1) * (m - 1) + 1):
            if all(all(x > 0 for x in row) for row in cur):
                return True
            cur = [
                [int(any(cur[i][k] and mat[k][j] for k in range(m))) for j in range(m)]
                for i in range(m)
            ]
        return all(all(x > 0 for x in row) for row in cur)

    def _is_primitive(self) -> bool:
        return self._incidence_reachable()

    def _fixed_point_seed(self) -> tuple[str, int]:
        # find a letter a and power p with sigma^p(a) starting with a
        first = {a: self.rules[a][0] for a in self.alphabet}
        a = self.alphabet[0]
        seen = {}
        while a not in seen:
            seen[a] = len(seen)
            a = first[a]
        # a is on a cycle of the "first letter" map
        p = 1
        b = first[a]
        while b != a:
            b = first[b]
            p += 1
        return a, p

    def _apply_power(self, word: str) -> str:
        out = word
        for _ in range(self._power):
            out = "".join(self.rules[c] for c in out)
        return out

    def _prefix(self, i: int) -> str:
        """The i-th power of the substitution's power applied to the seed,
        i >= 1; the powers built for one word length serve the next."""
        while len(self._prefixes) <= i:
            self._prefixes.append(self._apply_power(self._prefixes[-1]))
        return self._prefixes[i]

    def _materialize(self, length: int) -> frozenset[str]:
        if length == 0:
            return frozenset({""})
        prev: frozenset[str] | None = None
        for step in range(1, 513):  # ample; stabilization is typically fast
            prefix = self._prefix(step)
            if len(prefix) < length + 1:
                continue
            cur = frozenset(prefix[i : i + length] for i in range(len(prefix) - length + 1))
            if prev is not None and cur == prev:
                return cur
            prev = cur
            if len(prefix) > 4_000_000:
                break
        raise InvalidInput("substitution language failed to stabilize")

    def _check_infinite(self) -> bool:
        # Morse-Hedlund: eventually periodic iff p(n) <= n for some n
        for n in range(1, min(self.depth_limit, 24) + 1):
            if len(self.language(n)) <= n:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "kind": "subshift",
            "alphabet": list(self.alphabet),
            "substitution": dict(sorted(self.rules.items())),
            "depth_limit": self.depth_limit,
        }

    def __repr__(self):
        return f"SubstitutionSubshift({dict(sorted(self.rules.items()))})"


class ForbiddenWordSubshift(_Subshift):
    """Shift of finite type: bi-infinite sequences avoiding the given words.

    Admissible words are walks in the pruned de Bruijn graph, so every word
    in the language genuinely extends to a bi-infinite point.
    """

    kind = "subshift"

    def __init__(self, alphabet, forbidden: list[str], depth_limit: int = 64):
        super().__init__(alphabet, depth_limit)
        self.forbidden = tuple(sorted(set(str(w) for w in forbidden)))
        for w in self.forbidden:
            if not w or any(c not in self.alphabet for c in w):
                raise InvalidInput(f"bad forbidden word {w!r}")
        self.minimal = False  # not verifiable in general
        self._order = max((len(w) for w in self.forbidden), default=1)
        self._nodes, self._edges = self._prune()
        if not self._nodes:
            raise InvalidInput("forbidden words leave an empty subshift")
        self.infinite = True  # not verified; unused by constructors requiring minimality

    def _avoids(self, word: str) -> bool:
        return not any(f in word for f in self.forbidden)

    def _prune(self):
        m = self._order
        nodes = {w for w in self._all_words(m) if self._avoids(w)}
        while True:
            edges = {
                (u, v)
                for u in nodes
                for a in self.alphabet
                if (v := (u + a)[1:]) in nodes and self._avoids(u + a)
            }
            outs = {u for u, _ in edges}
            ins = {v for _, v in edges}
            keep = {w for w in nodes if w in outs and w in ins}
            if keep == nodes:
                return nodes, edges
            nodes = keep
            if not nodes:
                return set(), set()

    def _all_words(self, n: int):
        if n == 0:
            yield ""
            return
        for w in self._all_words(n - 1):
            for a in self.alphabet:
                yield w + a

    def _materialize(self, length: int) -> frozenset[str]:
        m = self._order
        if length <= m:
            return frozenset({w[:length] for w in self._nodes})
        succ: dict[str, list[str]] = {}
        for u, v in self._edges:
            succ.setdefault(u, []).append(v)
        words = set(self._nodes)
        for _ in range(length - m):
            words = {w + v[-1] for w in words for v in succ.get(w[-m:], ())}
        return frozenset(words)

    def to_json(self) -> dict:
        return {
            "kind": "subshift",
            "alphabet": list(self.alphabet),
            "forbidden": list(self.forbidden),
            "depth_limit": self.depth_limit,
        }

    def __repr__(self):
        return f"ForbiddenWordSubshift(forbidden={list(self.forbidden)})"


# ---------------------------------------------------------------------------
# clopen sets


class ClopenSet:
    """Interface shared by the two exact clopen representations."""

    system: SymbolicSystem

    def is_empty(self) -> bool:
        raise NotImplementedError

    def is_whole(self) -> bool:
        raise NotImplementedError

    def union(self, other: "ClopenSet") -> "ClopenSet":
        raise NotImplementedError

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        raise NotImplementedError

    def complement(self) -> "ClopenSet":
        raise NotImplementedError

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def translate(self, n: int) -> "ClopenSet":
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class OdometerClopen(ClopenSet):
    """Union of residue classes mod q_depth, reduced to minimal depth."""

    system: Odometer
    depth: int
    values: frozenset[int]

    def __post_init__(self):
        depth, values = _canonical_odometer(self.system, self.depth, self.values)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "values", values)

    def values_at_depth(self, depth: int) -> frozenset[int]:
        """Residues mod q_depth; exact lift of the canonical form."""
        q_here = self.system.level_size(self.depth)
        q_new = self.system.level_size(depth)
        if q_new % q_here:
            raise InvalidInput(f"depth {depth} does not refine depth {self.depth}")
        lifts = q_new // q_here
        return frozenset(v + j * q_here for v in self.values for j in range(lifts))

    def is_empty(self) -> bool:
        return not self.values

    def is_whole(self) -> bool:
        return self.depth == 0 and self.values == frozenset({0})

    def _binop(self, other, op):
        if self.system is not other.system:
            raise InvalidInput("clopen sets belong to different systems")
        depth = max(self.depth, other.depth)
        a = self.values_at_depth(depth)
        b = other.values_at_depth(depth)
        return OdometerClopen(self.system, depth, frozenset(op(a, b)))

    def union(self, other):
        return self._binop(other, lambda a, b: a | b)

    def intersect(self, other):
        return self._binop(other, lambda a, b: a & b)

    def complement(self):
        q = self.system.level_size(self.depth)
        return OdometerClopen(self.system, self.depth, frozenset(range(q)) - self.values)

    def translate(self, n: int) -> "OdometerClopen":
        q = self.system.level_size(self.depth)
        return OdometerClopen(self.system, self.depth, frozenset((v + n) % q for v in self.values))

    def to_json(self) -> dict:
        words = []
        for v in sorted(self.values):
            digits = self.system.digits_of(self.depth, v)
            if all(self.system.base_at(i) <= 10 for i in range(self.depth)):
                words.append("".join(str(d) for d in digits))
            else:
                words.append(".".join(str(d) for d in digits))
        return {"cylinders": words}

    def __repr__(self):
        return f"OdometerClopen(depth={self.depth}, values={sorted(self.values)})"


def _canonical_odometer(system: Odometer, depth: int, values) -> tuple[int, frozenset[int]]:
    q = system.level_size(depth)
    vals = frozenset(v % q for v in values)
    if not vals:
        return 0, frozenset()
    while depth > 0:
        k = system.base_at(depth - 1)
        q_prev = system.level_size(depth - 1)
        buckets: dict[int, int] = {}
        for v in vals:
            buckets[v % q_prev] = buckets.get(v % q_prev, 0) + 1
        if all(c == k for c in buckets.values()):
            vals = frozenset(buckets.keys())
            depth -= 1
        else:
            break
    return depth, vals


@dataclass(frozen=True)
class SubshiftClopen(ClopenSet):
    """Union of word cylinders over the window [left, left+len)."""

    system: _Subshift
    left: int
    words: frozenset[str]

    def __post_init__(self):
        left, words = _canonical_subshift(self.system, self.left, self.words)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "words", words)

    @property
    def wlen(self) -> int:
        return len(next(iter(self.words))) if self.words else 0

    def _window_depth(self, left: int, wlen: int) -> int:
        return max(abs(left), abs(left + wlen))

    def _check_window(self, left: int, wlen: int):
        if self._window_depth(left, wlen) > self.system.depth_limit:
            raise DepthExceeded(
                f"window [{left},{left + wlen}) exceeds depth_limit {self.system.depth_limit}"
            )

    def _extended(self, new_left: int, new_len: int) -> frozenset[str]:
        if not self.words:
            return frozenset()
        off = self.left - new_left
        wl = self.wlen
        if off < 0 or off + wl > new_len:
            raise InvalidInput(
                f"window [{new_left},{new_left + new_len}) does not contain "
                f"[{self.left},{self.left + wl})"
            )
        lang = self.system.language(new_len)
        return frozenset(w for w in lang if w[off : off + wl] in self.words)

    def is_empty(self) -> bool:
        return not self.words

    def is_whole(self) -> bool:
        return self.words == frozenset({""})

    def _binop(self, other: "SubshiftClopen", op):
        if self.system is not other.system:
            raise InvalidInput("clopen sets belong to different systems")
        if self.is_empty() and other.is_empty():
            return self.system.empty()
        lefts = [s.left for s in (self, other) if not s.is_empty()]
        rights = [s.left + s.wlen for s in (self, other) if not s.is_empty()]
        left = min(lefts)
        right = max(rights)
        self._check_window(left, right - left)
        a = self._extended(left, right - left)
        b = other._extended(left, right - left)
        return SubshiftClopen(self.system, left, frozenset(op(a, b)))

    def union(self, other):
        return self._binop(other, lambda a, b: a | b)

    def intersect(self, other):
        return self._binop(other, lambda a, b: a & b)

    def complement(self):
        lang = self.system.language(self.wlen)
        return SubshiftClopen(self.system, self.left, lang - self.words)

    def translate(self, n: int) -> "SubshiftClopen":
        if self.is_empty() or self.is_whole():
            return self
        self._check_window(self.left - n, self.wlen)
        return SubshiftClopen(self.system, self.left - n, self.words)

    def to_json(self) -> dict:
        return {"left": self.left, "words": sorted(self.words)}

    def __repr__(self):
        return f"SubshiftClopen(left={self.left}, words={sorted(self.words)})"


def _canonical_subshift(system: _Subshift, left: int, words: frozenset[str]):
    """Greedy window shrinking: drop boundary positions that carry no information."""
    if not words:
        return 0, frozenset()
    wlen = len(next(iter(words)))
    changed = True
    while changed and wlen > 0:
        changed = False
        full_by_prefix, full_by_suffix = system._groupings(wlen)
        # shrink on the right: group by the word minus its last letter
        groups: dict[str, set[str]] = {}
        for w in words:
            groups.setdefault(w[:-1], set()).add(w)
        if all(groups[u] == full_by_prefix[u] for u in groups):
            words = frozenset(groups.keys())
            wlen -= 1
            changed = True
            continue
        # shrink on the left
        groups.clear()
        for w in words:
            groups.setdefault(w[1:], set()).add(w)
        if all(groups[u] == full_by_suffix[u] for u in groups):
            words = frozenset(groups.keys())
            left += 1
            wlen -= 1
            changed = True
    if wlen == 0:
        left = 0
    return left, words


# ---------------------------------------------------------------------------
# operations


def disjoint_translates_radius(s: ClopenSet, radius: int) -> bool:
    """True iff n.s and s are disjoint for all 0 < |n| <= radius: on a
    subshift, iff s's first return is later than ``radius``."""
    if radius < 1:
        raise InvalidInput("radius must be positive")
    if s.is_empty():
        return True
    if isinstance(s, SubshiftClopen):
        return _first_return(s, radius) is None
    for n in range(1, radius + 1):
        if not s.translate(n).intersect(s).is_empty():
            return False
    return True


def _first_return(s: "SubshiftClopen", bound: int) -> int | None:
    """The least n in 1..bound with n.s meeting s, or None: the least n for
    which some word of length n+L of the language starts and ends with a
    word of s.  The words that start with one are grown a letter at a time.
    Each n checks the windows that ``s.translate(n).intersect(s)`` would
    check, in its order, so DepthExceeded is raised where that would raise.
    The whole space, whose window is empty, returns at 1, where no depth
    limit fails those checks."""
    l, W, L = s.left, s.words, s.wlen
    starts = list(W)  # the words of length n+L that start with a word of W
    for n in range(1, bound + 1):
        s._check_window(l - n, L)
        s._check_window(l - n, n + L)
        by_prefix = s.system._groupings(n + L)[0]
        starts = [v for w in starts for v in by_prefix.get(w, ())]
        if any(v[n:] in W for v in starts):
            return n
    return None


def _syndeticity_bound(s: "SubshiftClopen", bound: int) -> int | None:
    """The least n in 1..bound for which every point visits s at some time
    in (0, n] and in [-n, 0), or None: the least n for which no word of
    length n+L-1 of the language avoids the words of s.  The words that
    avoid them are grown a letter at a time.  Each n checks the windows of
    ``s.translate(-n)`` and ``s.translate(n)``, in that order, so
    DepthExceeded is raised where the union of those translates would
    raise.  The whole space, whose window is empty, gives 1."""
    l, W, L = s.left, s.words, s.wlen
    free = None  # the words of length n+L-1 with no factor in W
    for n in range(1, bound + 1):
        s._check_window(l + n, L)
        s._check_window(l - n, L)
        if free is None:
            free = [w for w in s.system.language(L) if w not in W]
        else:
            by_prefix = s.system._groupings(n + L - 1)[0]
            free = [v for w in free for v in by_prefix.get(w, ()) if v[n - 1 :] not in W]
        if not free:
            return n
    return None


@dataclass(frozen=True)
class ReturnTimeReport:
    """First return and syndeticity data for a clopen set.

    ``max_gap`` is the least M such that every point visits the set at some
    time in (0, M] and in [-M, 0); None means unknown beyond the search
    bound (reported, never silently truncated).
    """

    set: ClopenSet
    min_forward_return: int
    max_gap: int | None
    search_bound: int


def return_time_report(s: ClopenSet, search_bound: int = 4096) -> ReturnTimeReport:
    """The first return and the syndeticity bound of a nonempty clopen set.

    On an odometer both are read off the gaps between the set's residues.
    On a subshift, with W the words of s on its window of length L, they
    are read off the language: the first return is the least n for which a
    word of length n+L starts and ends with a word of W, and ``max_gap``
    the least n for which every word of length n+L-1 has a factor in W (the
    whole space, L = 0, gives 1 and 1).  Both searches stop at
    ``search_bound``: no first return there raises BoundExceeded, no gap
    bound gives ``max_gap=None``.  Each n checks the windows its translates
    of s would take, so DepthExceeded is raised where translating s would
    raise.
    """
    if s.is_empty():
        raise EmptySet("return time of the empty set is undefined")
    if isinstance(s, OdometerClopen):
        q = s.system.level_size(s.depth)
        vals = sorted(s.values)
        min_ret = q
        max_gap = 0
        for i, v in enumerate(vals):
            nxt = vals[(i + 1) % len(vals)]
            gap = (nxt - v) % q or q
            min_ret = min(min_ret, gap)
            max_gap = max(max_gap, gap)
        if len(vals) == 1:
            min_ret = q
            max_gap = q
        return ReturnTimeReport(s, min_ret, max_gap, search_bound)

    min_ret = _first_return(s, search_bound)
    if min_ret is None:
        raise BoundExceeded(
            f"no forward return within search_bound={search_bound}"
        )
    return ReturnTimeReport(s, min_ret, _syndeticity_bound(s, search_bound), search_bound)


# ---------------------------------------------------------------------------
# serialization


def system_from_json(data: dict) -> SymbolicSystem:
    with malformed("system"):
        kind = data.get("kind")
        depth_limit = positive_int(data.get("depth_limit", 64), "depth_limit")
        if kind == "odometer":
            return Odometer([integer(b, "odometer base entry") for b in data["base"]], depth_limit)
        if kind == "subshift":
            if "substitution" in data:
                return SubstitutionSubshift(data["alphabet"], data["substitution"], depth_limit)
            if "forbidden" in data:
                return ForbiddenWordSubshift(data["alphabet"], data["forbidden"], depth_limit)
            raise InvalidInput("subshift needs 'substitution' or 'forbidden'")
    raise InvalidInput(f"unknown system kind {kind!r}")


def clopen_from_json(system: SymbolicSystem, data: dict) -> ClopenSet:
    with malformed("clopen set"):
        if isinstance(system, Odometer):
            out = system.empty()
            for w in data["cylinders"]:
                digits = [int(c) for c in (w.split(".") if "." in w else w)] if w else []
                out = out.union(system.cylinder(digits))
            return out
        return system.clopen(integer(data.get("left", 0), "clopen left"), data["words"])
