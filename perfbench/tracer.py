"""Spans and counters around dadim's layers, installed from outside the library.

``Tracer.install`` wraps the public functions of every layer module and
rebinds each wrapper in every ``dadim`` module that imported the function
by name, so a nested call (``dadim.pou.generate_subgroupoid``,
``dadim.coarse.verify_groupoid_dad``, ``dadim.cli.l1_distance``) gets its
caller's span as parent.  Clopen-set operations, ``TransformationGroupoid
.compose`` and ``l1_distance`` are too frequent for a span each: they get
exact counters, and clopen operations also a time total per enclosing
span.  Spans are kept in memory, written out once at the end, and self
times are derived from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "symbolic", "witness", "groupoid", "coarse", "nerve",
    "pou", "convolution", "certify", "pipeline", "cli",
)

# functions called so often that a span each would dwarf their work
COUNTED_ONLY = {"nerve.l1_distance": "nerve.l1_calls"}
CLOPEN_OPS = ("union", "intersect", "complement", "difference", "translate")

# per-layer metric -> span names whose self times it sums
SELF_TIME = {
    "witness.construct_s": ["witness.construct_minimal_z_witness"],
    "witness.verify_s": ["witness.verify_dad_witness"],
    "witness.color_sets_s": ["witness.color_element_sets"],
    "groupoid.build_s": ["groupoid.cyclic_rotation_groupoid", "groupoid.transformation_groupoid"],
    "groupoid.generate_s": ["groupoid.generate_subgroupoid"],
    "groupoid.verify_s": ["groupoid.verify_groupoid_dad"],
    "pou.enlarge_s": ["pou.enlarge_cover"],
    "pou.tower_s": ["pou.build_tower"],
    "pou.build_s": ["pou.build_pou"],
    "pou.verify_s": ["pou.verify_pou"],
    "convolution.reduced_norm_s": ["convolution.reduced_norm"],
    "convolution.block_decompose_s": ["convolution.block_decompose"],
    "convolution.commutator_s": ["convolution.commutator_report"],
    "convolution.decompose_s": ["convolution.decompose_via_pou"],
    "coarse.construct_s": ["coarse.construct_grid_witness"],
    "coarse.verify_s": ["coarse.verify_asdim_witness"],
    "coarse.bridge_s": ["coarse.bridge_to_groupoid"],
    "nerve.assign_s": ["nerve.nice_cover_assign"],
    "nerve.blr_s": ["nerve.dad_witness_from_blr"],
    "certify.write_s": ["certify.write_certificate"],
    "certify.check_s": ["certify.CertificateChain.verify_directory"],
}
CALLS = {
    "witness.verify_calls": "witness.verify_dad_witness",
    "groupoid.generate_calls": "groupoid.generate_subgroupoid",
    "convolution.reduced_norm_calls": "convolution.reduced_norm",
    "nerve.assign_calls": "nerve.nice_cover_assign",
    "certify.write_calls": "certify.write_certificate",
}
# the return-time search is nearly all clopen calls, so its metric keeps them
INCLUSIVE = {"symbolic.return_time_s": "symbolic.return_time_report"}
LAYER_SELF = {"pipeline.self_s": "pipeline.", "cli.self_s": "cli."}
COUNTS = (
    "symbolic.clopen_ops", "witness.elements", "groupoid.arrows_generated",
    "groupoid.compose_calls", "pou.arrows_checked", "convolution.max_fiber_dim",
    "coarse.points", "nerve.l1_calls", "certify.bytes_written",
)


class Tracer:
    """Span list plus counters; records only between ``begin_job`` and ``end_job``."""

    def __init__(self):
        # span: [name, start, end, parent index, job id, clopen seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.active = False
        self.in_clopen = False
        self.job = None

    # -- recording ---------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self.active = True
        self._open("bench.job")

    def end_job(self):
        self._close(self.stack[-1])
        self.active = False

    def _open(self, name) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counters, args, result)
            return result

        return wrapper

    def counted(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def clopen_op(self, fn):
        """Count every call; time only the outermost, so nested calls
        (``difference`` calls ``intersect``) are not timed twice."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counters["symbolic.clopen_ops"] += 1
            if self.in_clopen:
                return fn(*args, **kwargs)
            self.in_clopen = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[self.stack[-1]][5] += perf_counter() - t0
                self.in_clopen = False

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import dadim.cli  # noqa: F401  (the package loads every other layer)
        from dadim import certify, groupoid, symbolic

        modules = [m for n, m in sys.modules.items() if n == "dadim" or n.startswith("dadim.")]
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"dadim.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{layer}.{fname}"
                if name in COUNTED_ONLY:
                    replaced[fn] = self.counted(COUNTED_ONLY[name], fn)
                else:
                    replaced[fn] = self.span(name, fn, ON_RESULT.get(name))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(mod, attr, replaced[val])

        for cls in _subclasses(symbolic.ClopenSet):
            for op in CLOPEN_OPS:
                if op in cls.__dict__:
                    setattr(cls, op, self.clopen_op(cls.__dict__[op]))
        TG = groupoid.TransformationGroupoid
        TG.compose = self.counted("groupoid.compose_calls", TG.__dict__["compose"])
        chain = certify.CertificateChain
        chain.verify_directory = classmethod(
            self.span("certify.CertificateChain.verify_directory",
                      chain.__dict__["verify_directory"].__func__)
        )

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name: duration minus child spans and clopen time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _clopen in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _parent, _job, clopen) in enumerate(self.spans):
            out[name] += (end - start) - child[i] - clopen
        return dict(out)

    def metrics(self) -> dict:
        self_s = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        m = {k: sum((self_s.get(n, 0.0) for n in names), 0.0) for k, names in SELF_TIME.items()}
        m["symbolic.clopen_s"] = sum((s[5] for s in self.spans), 0.0)
        for k, name in INCLUSIVE.items():
            m[k] = sum((s[2] - s[1] for s in self.spans if s[0] == name), 0.0)
        for k, prefix in LAYER_SELF.items():
            m[k] = sum((v for n, v in self_s.items() if n.startswith(prefix)), 0.0)
        for k, name in CALLS.items():
            m[k] = calls[name]
        for k in COUNTS:
            m[k] = self.counters[k]
        m["groupoid.arrows_per_compose"] = (
            m["groupoid.arrows_generated"] / m["groupoid.compose_calls"]
            if m["groupoid.compose_calls"] else 0.0
        )
        return m

    def layer_breakdown(self) -> dict:
        """Self seconds per layer, plus generate_subgroupoid seconds by caller layer."""
        self_s = self.self_times()
        layers: Counter = Counter()
        for name, v in self_s.items():
            layers[name.split(".")[0]] += v
        layers["symbolic"] += sum(s[5] for s in self.spans)
        by_caller: Counter = Counter()
        for name, start, end, parent, _job, _clopen in self.spans:
            if name == "groupoid.generate_subgroupoid":
                caller = self.spans[parent][0].split(".")[0] if parent >= 0 else "bench"
                by_caller[caller] += end - start
        return {"layer_self_s": dict(layers), "generate_s_by_caller": dict(by_caller)}

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, clopen) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "clopen_s": clopen,
                }) + "\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


# -- counters read from arguments and results, outside the library --------


def _elements(counters, args, report):
    details = report.details or {}
    if "sizes" in details:
        counters["witness.elements"] += sum(details["sizes"])
    elif "computed" in details:
        counters["witness.elements"] += sum(len(F) for F in details["computed"])


def _color_sets(counters, args, sets):
    counters["witness.elements"] += sum(len(F) for F in sets)


def _arrows(counters, args, gen):
    # block-form results count their arrows, so the number keeps its
    # meaning whichever representation the library returns
    counters["groupoid.arrows_generated"] += gen.size() if hasattr(gen, "size") else len(gen)


def _pou_arrows(counters, args, report):
    if report.accepted:
        counters["pou.arrows_checked"] += len(args[1])


def _fiber(counters, args, rep):
    counters["convolution.max_fiber_dim"] = max(counters["convolution.max_fiber_dim"],
                                                len(rep.basis))


def _points(counters, args, report):
    counters["coarse.points"] += len(args[0].points)


def _bytes(counters, args, digest):
    counters["certify.bytes_written"] += os.path.getsize(args[0])


ON_RESULT = {
    "witness.verify_dad_witness": _elements,
    "witness.color_element_sets": _color_sets,
    "groupoid.generate_subgroupoid": _arrows,
    "pou.verify_pou": _pou_arrows,
    "convolution.regular_representation": _fiber,
    "coarse.verify_asdim_witness": _points,
    "certify.write_certificate": _bytes,
}
