"""Certificate serialization, hashing, chaining, and the regression corpus.

Artifacts are canonical JSON: keys sorted, rationals as "p/q" strings,
floats rounded to 12 significant digits.  A certificate chain records one
entry per pipeline stage with input/output file hashes; a chain is green
iff every stage verified and every recorded hash still matches, so any
tampering with an intermediate file is detected.  Timestamps are carried
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


def content_hash(obj) -> str:
    payload = _dumps(_strip_volatile(_normalize(obj)))
    return hashlib.sha256(payload.encode()).hexdigest()


def file_hash(path) -> str:
    with open(path) as fh:
        return content_hash(json.load(fh))


def write_certificate(path, obj, stamp: bool = True) -> None:
    """Write ``obj`` normalized, keys sorted, one space per indent level,
    with a creation stamp on a dict unless ``stamp`` is off."""
    data = _normalize(obj)
    if stamp and isinstance(data, dict):
        data["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_certificate(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class CertificateChain:
    """Ordered stages with hash links between consecutive artifacts."""

    def __init__(self, directory):
        self.directory = Path(directory)
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
        """Recompute every recorded hash; raise HashMismatch on any drift."""
        directory = Path(directory)
        chain = load_certificate(directory / "chain.json")
        produced: dict[str, str] = {}
        for stage in chain["stages"]:
            for name, p in stage["input_files"].items():
                actual = file_hash(directory / p)
                if actual != stage["inputs"][name]:
                    raise HashMismatch(
                        f"stage {stage['index']} ({stage['kind']}): input {p} hash mismatch"
                    )
                if p in produced and produced[p] != actual:
                    raise HashMismatch(f"artifact {p} changed between stages")
            for name, p in stage["output_files"].items():
                actual = file_hash(directory / p)
                if actual != stage["outputs"][name]:
                    raise HashMismatch(
                        f"stage {stage['index']} ({stage['kind']}): output {p} hash mismatch"
                    )
                produced[p] = actual
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
