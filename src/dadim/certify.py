"""Certificate serialization, hashing, chaining, and the regression corpus.

Artifacts are canonical JSON: keys sorted, rationals as "p/q" strings,
floats rounded to 12 significant digits.  A certificate chain is linear:
each pipeline stage writes one certificate, recorded with the content hash
it was written with, and takes as its input the certificate of the stage
before, under that stage's recorded hash.  A chain is green iff every stage
verified.  Re-verification checks every link and the green flag against the
statuses, then recomputes every recorded hash from disk, so any tampering
with an intermediate file is detected.  Timestamps are carried for
provenance but excluded from hashes and comparisons.  ``load_certificate``
is the one reader of input files: a file it cannot read as strict UTF-8
JSON (no key twice in one object, no NaN, Infinity or overflowing number)
is InvalidInput (exit 2).  ``file_hash`` reads chain artifacts itself
through the same strict parse, which accepts only the NaN and Infinity
that the writer emits, so that one it cannot read is a HashMismatch.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import HashMismatch, InvalidInput

__all__ = [
    "canonical_json",
    "rational_str",
    "file_hash",
    "write_certificate",
    "load_certificate",
    "CertificateChain",
    "compare_artifacts",
    "corpus_dir",
]

VOLATILE_KEYS = {"created", "timestamp", "elapsed_seconds"}
STAGE_KEYS = {"index", "kind", "inputs", "input_files", "outputs", "output_files", "status"}


def rational_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# leaves that normalize to themselves, checked by exact type in the
# comprehensions below instead of a call each
_PLAIN = frozenset({int, str, bool, type(None)})
_INTS = frozenset({int})
_ROWS = frozenset({list, tuple})


def _int_rows(obj) -> bool:
    """Whether the list or tuple ``obj`` is non-empty and holds only
    non-empty lists or tuples of ints (bools excluded), which normalize
    and print in one step."""
    return (
        bool(obj) and type(obj[0]) in _ROWS and set(map(type, obj[0])) == _INTS
        and set(map(type, obj)) <= _ROWS and all(obj)
        and set(map(type, chain.from_iterable(obj))) == _INTS
    )


def _normalize(obj):
    """``obj`` as JSON data: str keys, lists, "p/q" rationals and floats
    rounded to 12 digits.  A list or tuple of int rows becomes a list of
    the same row objects, tuples or lists, which print alike: the rows are
    not copied."""
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN else _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if _int_rows(obj):
            return obj if type(obj) is list else list(obj)
        return [v if type(v) in _PLAIN else _normalize(v) for v in obj]
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (set, frozenset)):
        return sorted((_normalize(v) for v in obj), key=json.dumps)
    raise InvalidInput(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return _dumps(_normalize(obj))


def _dumps(data) -> str:
    """Canonical text of an already normalized payload."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _digest(data) -> str:
    """Content hash of an already normalized payload."""
    return hashlib.sha256(_dumps(_strip_volatile(data)).encode()).hexdigest()


def content_hash(obj) -> str:
    return _digest(_normalize(obj))


def _unique_keys(pairs: list) -> dict:
    out = dict(pairs)
    if len(out) != len(pairs):
        seen: set = set()
        dup = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {dup!r}")
    return out


def _no_constant(name: str):
    raise ValueError(f"{name} is not a number")


def _finite_float(text: str) -> float:
    value = float(text)
    if value in (_INF, -_INF):
        raise ValueError(f"{text} overflows a float")
    return value


def _load_strict(fh, parse_constant=_no_constant):
    """One JSON value, read strictly: an object that names a key twice, a
    NaN or Infinity constant and a number that overflows a float are
    ValueError, where ``json.load`` would keep the last key or the value."""
    return json.load(
        fh, object_pairs_hook=_unique_keys, parse_constant=parse_constant,
        parse_float=_finite_float,
    )


def file_hash(path) -> str:
    """The content hash of a written artifact, read strictly but for the
    NaN and Infinity constants, which ``write_certificate`` emits for
    non-finite floats."""
    with open(path, encoding="utf-8") as fh:
        return content_hash(_load_strict(fh, parse_constant=float))


_INF = float("inf")


def _leaf(v):
    """The text ``json.dumps`` gives a scalar, or None for a container."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    return None


# the most items the emitter joins into one piece
_BATCH = 256


def _row_lists(rows, depth: int):
    """``_indented`` of a list of non-empty rows of ints, ``_BATCH`` rows to
    a piece: each piece is one ``%`` template, a row's form for each of its
    rows, filled with the rows' ints."""
    outer, inner = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)
    forms = {
        k: "[" + inner + ("," + inner).join(["%d"] * k) + outer + "]" for k in set(map(len, rows))
    }
    sep = "[" + outer
    for i in range(0, len(rows), _BATCH):
        batch = rows[i:i + _BATCH]
        template = ("," + outer).join(map(forms.__getitem__, map(len, batch)))
        yield sep + template % tuple(chain.from_iterable(batch))
        sep = "," + outer
    yield "\n" + " " * depth + "]"


def _indented(data, depth: int = 0):
    """The text of ``json.dumps(data, sort_keys=True, indent=1)`` for a
    normalized payload, in pieces.  A row of ints (bools excluded) is
    joined in one step instead of one piece per int, a list of such rows
    fills one ``%`` template per ``_BATCH`` rows (``_row_lists``), and a
    container's other items are joined in batches, so that no piece holds
    the whole text."""
    leaf = _leaf(data)
    if leaf is not None:
        yield leaf
        return
    if not data:
        yield "{}" if isinstance(data, dict) else "[]"
        return
    if type(data) is list and _int_rows(data):
        yield from _row_lists(data, depth)
        return
    if isinstance(data, dict):
        opening, close = "{", "}"
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(data.items()))
    else:
        opening, close = "[", "]"
        items = zip(repeat(""), data)
    inner = "\n" + " " * (depth + 1)
    row_open, row_sep, row_close = "[" + inner + " ", "," + inner + " ", inner + "]"
    sep, buf = opening + inner, []
    for prefix, v in items:
        if type(v) is list and set(map(type, v)) == _INTS:
            buf.append(sep + prefix + row_open + row_sep.join(map(int.__repr__, v)) + row_close)
        else:
            text = _leaf(v)
            if text is None:
                buf.append(sep + prefix)
                yield "".join(buf)
                buf.clear()
                yield from _indented(v, depth + 1)
            else:
                buf.append(sep + prefix + text)
        if len(buf) >= _BATCH:
            yield "".join(buf)
            buf.clear()
        sep = "," + inner
    buf.append("\n" + " " * depth + close)
    yield "".join(buf)


def write_certificate(path, obj, stamp: bool = True):
    """Write ``obj`` normalized, with a creation stamp on a dict unless
    ``stamp`` is off.  The bytes are those of ``json.dump(data,
    sort_keys=True, indent=1)`` plus a newline, which the tests keep as the
    oracle; they come from ``_indented``, which joins rows of ints in one
    step and fills templates with lists of such rows, such as a grid
    witness's points.  Returns the normalized data as written, which
    shares its int rows with ``obj``."""
    data = _normalize(obj)
    if stamp and isinstance(data, dict):
        data["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(_indented(data))
        fh.write("\n")
    return data


def load_certificate(path):
    """The JSON value in the file at ``path``: the one reader of input files.
    A file that cannot be opened, is not UTF-8 JSON, names a key twice in
    one object, or holds NaN, Infinity or a number that overflows a float
    raises InvalidInput."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _load_strict(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidInput(f"bad JSON in {path}: {exc}") from None


class CertificateChain:
    """Ordered stages, each linked to the output of the one before."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.stages: list[dict] = []

    def add_stage(self, kind: str, name: str, path: str, payload, status: str, details=None):
        """Write ``payload`` to ``path`` in the chain directory as the stage's
        one output, under the hash it was written with; the stage's input is
        the previous stage's output (none for the first stage)."""
        digest = _digest(write_certificate(self.directory / path, payload))
        prev = self.stages[-1] if self.stages else {"outputs": {}, "output_files": {}}
        self.stages.append(
            {
                "index": len(self.stages),
                "kind": kind,
                "inputs": prev["outputs"],
                "input_files": prev["output_files"],
                "outputs": {name: digest},
                "output_files": {name: str(path)},
                "status": status,
                "details": details or {},
            }
        )

    @property
    def green(self) -> bool:
        return all(s["status"] == "verified" for s in self.stages)

    def write(self) -> None:
        write_certificate(
            self.directory / "chain.json",
            {"stages": self.stages, "green": self.green},
        )

    @classmethod
    def verify_directory(cls, directory) -> dict:
        """Check that each stage's input is the previous stage's output and
        that ``green`` is what the statuses give, then recompute every output
        hash.  Raise InvalidInput on a malformed chain, a broken link or an
        artifact path that leaves the directory, and HashMismatch on drift
        or an unreadable artifact."""
        directory = Path(directory)
        chain = load_certificate(directory / "chain.json")
        stages = chain.get("stages") if isinstance(chain, dict) else None
        if not isinstance(stages, list) or not all(
            isinstance(s, dict) and STAGE_KEYS <= s.keys() for s in stages
        ):
            raise InvalidInput(f"malformed chain in {directory}")
        prev = {"outputs": {}, "output_files": {}}
        for s in stages:
            label = f"stage {s['index']} ({s['kind']})"
            if s["inputs"] != prev["outputs"] or s["input_files"] != prev["output_files"]:
                raise InvalidInput(f"{label}: input is not the previous stage's output")
            files = s["output_files"]
            if not (isinstance(files, dict) and isinstance(s["outputs"], dict)
                    and files.keys() == s["outputs"].keys()):
                raise InvalidInput(f"{label}: malformed outputs")
            for p in files.values():
                if not isinstance(p, str) or Path(p).is_absolute() or ".." in Path(p).parts:
                    raise InvalidInput(f"{label}: artifact path leaves the chain directory")
            prev = s
        if chain.get("green") != all(s["status"] == "verified" for s in stages):
            raise InvalidInput(f"chain in {directory}: green does not match the stage statuses")
        for s in stages:
            for name, p in s["output_files"].items():
                label = f"stage {s['index']} ({s['kind']}): output {p}"
                try:
                    actual = file_hash(directory / p)
                except (OSError, ValueError) as exc:
                    raise HashMismatch(f"{label} unreadable: {exc}") from None
                if actual != s["outputs"][name]:
                    raise HashMismatch(f"{label} hash mismatch")
        return chain


# ---------------------------------------------------------------------------
# tolerant comparison for the corpus


def _is_float_like(x) -> bool:
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool))


def compare_artifacts(got, want, rel_tol: float = 1e-9, path: str = "$") -> list[str]:
    """Byte-exact comparison except for floats and volatile keys; returns a
    list of human-readable differences.

    Floats may differ by ``rel_tol * max(1, |want|)``: relative above 1,
    an absolute ``rel_tol`` below it.  ``got`` may be normalized data, whose
    int rows can be tuples: a tuple compares as the list it prints as."""
    diffs: list[str] = []
    if isinstance(want, dict) and isinstance(got, dict):
        keys = (set(got) | set(want)) - VOLATILE_KEYS
        for k in sorted(keys):
            if k not in got:
                diffs.append(f"{path}.{k}: missing")
            elif k not in want:
                diffs.append(f"{path}.{k}: unexpected")
            else:
                diffs += compare_artifacts(got[k], want[k], rel_tol, f"{path}.{k}")
        return diffs
    if isinstance(want, list) and isinstance(got, (list, tuple)):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        for i, (a, b) in enumerate(zip(got, want)):
            diffs += compare_artifacts(a, b, rel_tol, f"{path}[{i}]")
        return diffs
    if isinstance(want, float) or isinstance(got, float):
        if not (_is_float_like(want) and _is_float_like(got)):
            return [f"{path}: {got!r} != {want!r}"]
        scale = max(abs(float(want)), 1e-300)
        if abs(float(got) - float(want)) > rel_tol * max(1.0, scale):
            return [f"{path}: float {got} != {want} (rel tol {rel_tol})"]
        return diffs
    if got != want:
        diffs.append(f"{path}: {got!r} != {want!r}")
    return diffs


def corpus_dir() -> Path:
    env = os.environ.get("DADIM_CORPUS")
    if env:
        p = Path(env)
        if not p.is_dir():
            raise InvalidInput(f"DADIM_CORPUS={env} is not a directory")
        return p
    p = Path(__file__).parent / "corpus"
    if not p.is_dir():
        raise InvalidInput("bundled corpus directory is missing")
    return p
