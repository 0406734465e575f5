"""Certificate serialization, hashing, chaining, and the regression corpus.

Artifacts are canonical JSON: keys sorted, rationals as "p/q" strings,
floats rounded to 12 significant digits.  A certificate chain is linear:
each pipeline stage writes one certificate, recorded with the content hash
it was written with, and takes as its input the certificate of the stage
before, under that stage's recorded hash.  A chain is green iff every stage
verified.  Re-verification checks every link and the green flag against the
statuses, then recomputes every recorded hash from disk, so any tampering
with an intermediate file is detected.  Timestamps are carried
for provenance but excluded from hashes and comparisons.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from fractions import Fraction
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


def _normalize(obj):
    if obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
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


def file_hash(path) -> str:
    with open(path) as fh:
        return content_hash(json.load(fh))


def write_certificate(path, obj, stamp: bool = True):
    """Write ``obj`` normalized, keys sorted, one space per indent level,
    with a creation stamp on a dict unless ``stamp`` is off.  Returns the
    normalized data as written."""
    data = _normalize(obj)
    if stamp and isinstance(data, dict):
        data["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return data


def load_certificate(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


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
        try:
            chain = load_certificate(directory / "chain.json")
        except (OSError, ValueError) as exc:
            raise InvalidInput(f"unreadable chain in {directory}: {exc}") from None
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
    an absolute ``rel_tol`` below it."""
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
    if isinstance(want, list) and isinstance(got, list):
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
