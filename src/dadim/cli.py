"""dadim command-line front end.

Every verification failure maps to a distinct nonzero exit code (table in
--help).  Certificates are canonical JSON; exact quantities are rationals
"p/q", floats appear only in norm reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import certify, errors
from .certify import CertificateChain, load_certificate, write_certificate
from .coarse import (
    asdim_witness_from_json,
    bridge_to_groupoid,
    construct_grid_witness,
    space_from_json,
    verify_asdim_witness,
)
from .convolution import ConvElement, decompose_via_pou, reduced_norm
from .errors import ALL_ERRORS, DadimError, InvalidInput, VerificationFailed
from .errors import int_keys, integer, malformed, positive_int, rational
from .groupoid import cyclic_rotation_groupoid, groupoid_from_json, symmetrized
from .nerve import (
    SimplicialComplex,
    SimplicialPoint,
    _residues,
    check_equivariance,
    dad_witness_from_blr,
    grid_certificate,
)
from .pipeline import corpus_check, run_pipeline
from .pou import PartitionOfUnity, pou_from_group_action, verify_pou
from .symbolic import system_from_json
from .witness import construct_minimal_z_witness, verify_dad_witness, witness_from_json


def _exit_code_table() -> str:
    rows = ["exit codes:", "  0   success / verified"]
    rows.append("  1   unexpected internal error")
    for cls in ALL_ERRORS:
        rows.append(f"  {cls.exit_code:<3} {cls.__name__}")
    return "\n".join(rows)


def _raise_if_rejected(report):
    """Map a rejected report to the matching error class."""
    if not report.accepted:
        by_name = {cls.__name__: cls for cls in ALL_ERRORS}
        raise by_name.get(report.code, VerificationFailed)(report.message)


def _print_report(report):
    """Print a verifier's report, then raise if it rejected."""
    print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    _raise_if_rejected(report)


def _emit(out: dict, output):
    """Write ``out`` to ``output`` when one is given, and print it.  Both
    come from one normalized payload; the print leaves out the creation
    stamp that the file gets."""
    if output:
        data = write_certificate(output, out)
        del data["created"]
    else:
        data = certify._normalize(out)
    sys.stdout.writelines(certify._indented(data))
    print()


def _rational(text, default=None):
    """A rational command-line value such as --epsilon 1/4."""
    if text is None:
        return default
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"expected a rational p/q, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_construct(args):
    system = system_from_json(load_certificate(args.system))
    witness = construct_minimal_z_witness(system, args.N)
    write_certificate(args.output, witness.to_json())
    print(f"witness written to {args.output} (M={witness.meta['M']}, "
          f"sizes={[len(F) for F in witness.finite_sets]})")
    return 0


def _positive_flag(value, flag: str):
    """A given integer flag value, refused unless it is at least 1."""
    return None if value is None else positive_int(value, f"{flag} value")


def cmd_verify(args):
    bound = _positive_flag(args.blowup_bound, "--blowup-bound")
    system = system_from_json(load_certificate(args.system))
    witness = witness_from_json(system, load_certificate(args.witness))
    _print_report(verify_dad_witness(system, witness, bound))
    return 0


def cmd_asdim_construct(args):
    data = load_certificate(args.space)
    # checked first, so that no other space is built
    if not isinstance(data, dict) or "grid" not in data:
        raise InvalidInput("asdim-construct needs a grid space file")
    witness = construct_grid_witness(space_from_json(data), args.R)
    write_certificate(args.output, witness.to_json())
    print(f"witness written to {args.output} "
          f"(families={len(witness.families)}, S={witness.bound_S})")
    return 0


def cmd_asdim_verify(args):
    X = space_from_json(load_certificate(args.space))
    witness = asdim_witness_from_json(load_certificate(args.witness))
    _print_report(verify_asdim_witness(X, witness))
    return 0


def cmd_bridge(args):
    X = space_from_json(load_certificate(args.space))
    witness = asdim_witness_from_json(load_certificate(args.witness))
    G, gw, report = bridge_to_groupoid(X, witness)
    _emit({
        "ambient_tube_radius": G.radius,
        "K_radius": witness.scale_R,
        "generated_sizes": [len(g) for g in gw.generated],
        "verification": report.to_json(),
        # each family came back as the blocks of its color's generated
        # subgroupoid: the report's declared-versus-generated check
        "roundtrip_exact": report.accepted,
    }, args.output)
    return 0


def _complex_from_json(data) -> SimplicialComplex:
    with malformed("simplicial complex"):
        return SimplicialComplex(data["vertices"], [set(f) for f in data["maximal_faces"]])


def cmd_nerve(args):
    if args.complex:
        C = _complex_from_json(load_certificate(args.complex))
    else:
        C = SimplicialComplex(["a", "b", "c"], [{"a", "b", "c"}])
    cert = grid_certificate(C, args.denominator)
    _emit(cert, args.output)
    if not cert["separation_ok"]:
        raise VerificationFailed("cross-piece separation violated on the grid")
    return 0


def cmd_blr_check(args):
    action = load_certificate(args.action)
    with malformed("action file"):
        n = positive_int(action["cyclic"], "order")
    C = _complex_from_json(load_certificate(args.complex))
    # Z/n rotates residues: a complex vertex outside 0..n-1 is no point of
    # the action, with or without --witness
    _residues(C.vertices, n, "complex vertices")
    with malformed("map file"):
        f = {
            x: SimplicialPoint(
                {v: rational(t, "map weight") for v, t in int_keys(wt, "vertex").items()}
            )
            for x, wt in int_keys(load_certificate(args.map)["samples"], "sample").items()
        }
    eps = _rational(args.epsilon, Fraction(1, 3 * 10**C.dimension))
    eq = check_equivariance(f, n, symmetrized(n, args.E), eps)
    out = {"equivariance": eq.to_json()}
    if args.witness:
        res = dad_witness_from_blr(f, args.E, C, cyclic_rotation_groupoid(n), eq)
        out["witness"] = {
            "colors": [sorted(c) for c in res.colors],
            "moving_set": sorted(res.moving_set),
            "verification": res.report.to_json(),
        }
    _emit(out, args.output)
    if not eq.accepted:
        raise errors.EquivarianceTooWeak(eq.message)
    return 0


def cmd_pou_build(args):
    with malformed("colors file"):
        colors = [
            frozenset(integer(v, "color entry") for v in c) for c in load_certificate(args.colors)
        ]
    for c in colors:
        _residues(c, args.order, "color entries", InvalidInput)
    if args.N is None and args.epsilon is None:
        raise InvalidInput("pass --N or --epsilon")
    G, K, towers, pou = pou_from_group_action(
        args.order, args.E, colors, args.N, _positive_flag(args.size_bound, "--size-bound"),
        eps=_rational(args.epsilon),
    )
    report = verify_pou(G, K, pou)
    write_certificate(args.output, {
        "order": args.order,
        "E": sorted(set(e % args.order for e in args.E)),
        "pou": pou.to_json(),
        "verification": report.to_json(),
    })
    print(f"partition of unity written to {args.output} "
          f"(max oscillation {report.details['max_oscillation_float']:.6g} "
          f"< bound {report.details['bound_float']:.6g})")
    _raise_if_rejected(report)
    return 0


def _pou_from_cert(cert) -> tuple:
    with malformed("partition-of-unity certificate"):
        order = positive_int(cert["order"], "order")
        E, data = [integer(e, "E entry") for e in cert["E"]], cert["pou"]
    G = cyclic_rotation_groupoid(order)
    K = G.moves(E)
    return G, K, PartitionOfUnity.from_json(G, K, data)


def cmd_pou_verify(args):
    cert = load_certificate(args.pou)
    G, K, pou = _pou_from_cert(cert)
    _print_report(verify_pou(G, K, pou, _rational(args.epsilon)))
    return 0


def _element_from_json(G, data) -> ConvElement:
    """The element of an element file.  An arrow key is a JSON integer or
    a list of them, so [1.0, 0] or true names no arrow; an arrow named
    twice is refused, not overwritten.  Each coefficient part is a JSON
    integer or a rational string."""
    coeffs: dict = {}
    with malformed("element"):
        for key, re, im in data["coeffs"]:
            if isinstance(key, list):
                key = tuple(integer(k, "arrow key entry") for k in key)
            else:
                key = integer(key, "arrow key")
            if key in coeffs:
                raise InvalidInput(f"element names arrow {key!r} twice")
            coeffs[key] = (rational(re, "coefficient part"), rational(im, "coefficient part"))
    for key in coeffs:
        # an arrow is what the structure maps accept
        try:
            G.source(key), G.range(key)
        except (KeyError, TypeError, ValueError, IndexError):
            raise InvalidInput(f"element references unknown arrow {key!r}") from None
    return ConvElement(G, coeffs)


def cmd_norm(args):
    G = groupoid_from_json(load_certificate(args.groupoid))
    f = _element_from_json(G, load_certificate(args.element))
    _emit({"reduced_norm": reduced_norm(f), "support": len(f.coeffs)}, args.output)
    return 0


def cmd_decompose(args):
    cert = load_certificate(args.pou)
    G, K, pou = _pou_from_cert(cert)
    # the decomposition is only as good as the partition of unity: a
    # rejected one exits with its own code, as pou-verify does
    _raise_if_rejected(verify_pou(G, K, pou))
    if args.element:
        f = _element_from_json(G, load_certificate(args.element))
    else:
        f = ConvElement(G, {a: 1 for a in K})
    rep = decompose_via_pou(f, pou)
    _emit(rep, args.output)
    if not rep["accepted"]:
        raise VerificationFailed("decomposition inequalities failed")
    return 0


def cmd_pipeline(args):
    if args.check:
        chain = CertificateChain.verify_directory(args.check)
        green = chain["green"]
        print(f"chain re-verified: green={green}")
        if not green:
            raise VerificationFailed("chain is not green")
        return 0
    if args.system is None:
        raise InvalidInput("pass --system or --check")
    chain = run_pipeline(
        args.system, args.N, args.quotient_depth, args.pou_depth, args.output
    )
    print(f"pipeline green={chain.green}; certificates in {args.output}")
    return 0 if chain.green else VerificationFailed.exit_code


def cmd_corpus(args):
    summary = corpus_check(write_golden=args.write_golden)
    for name, res in sorted(summary["results"].items()):
        print(f"  {name}: {res}")
    if not summary["green"] and not args.write_golden:
        for name, diffs in summary["failures"].items():
            for d in diffs:
                print(f"  {name}: {d}", file=sys.stderr)
        raise errors.CorpusMismatch("corpus comparison failed")
    print("corpus green" if not args.write_golden else "golden files written")
    return 0


# ---------------------------------------------------------------------------


_REQUIRED = {"required": True}
_INT_REQUIRED = {"type": int, "required": True}
_OUTPUT = ("-o", "--output")

# each subcommand's help line and its arguments, in the order of --help
_COMMANDS = {
    "construct": ("two-color witness for a minimal Z-system", [
        (("--system",), _REQUIRED), (("--N",), _INT_REQUIRED), (_OUTPUT, _REQUIRED),
    ]),
    "verify": ("re-verify a witness by broken-orbit search", [
        (("--system",), _REQUIRED), (("--witness",), _REQUIRED),
        (("--blowup-bound",), {"type": int, "default": None}),
    ]),
    "asdim-construct": ("interval/brick witness for a grid", [
        (("--space",), _REQUIRED), (("--R",), _INT_REQUIRED), (_OUTPUT, _REQUIRED),
    ]),
    "asdim-verify": ("verify a coarse cover witness", [
        (("--space",), _REQUIRED), (("--witness",), _REQUIRED),
    ]),
    "bridge": ("translate a coarse witness to a groupoid witness", [
        (("--space",), _REQUIRED), (("--witness",), _REQUIRED), (_OUTPUT, {}),
    ]),
    "nerve": ("skeleton-cover certificate on a barycentric grid", [
        (("--complex",), {}), (("--denominator",), {"type": int, "default": 60}), (_OUTPUT, {}),
    ]),
    "blr-check": ("equivariance check and witness from a map", [
        (("--action",), _REQUIRED), (("--map",), _REQUIRED), (("--complex",), _REQUIRED),
        (("--E",), {"type": int, "nargs": "+", "required": True}), (("--epsilon",), {}),
        (("--witness",), {"action": "store_true"}), (_OUTPUT, {}),
    ]),
    "pou-build": ("almost-invariant partition of unity", [
        (("--order",), _INT_REQUIRED),
        (("--E",), {"type": int, "nargs": "+", "required": True}),
        (("--colors",), _REQUIRED),
        (("--N",), {"type": int, "default": None, "help": "averaging depth (>= 3)"}),
        (("--epsilon",), {"help": "rational p/q; derives the least depth instead of --N"}),
        (("--size-bound",), {"type": int, "default": None}),
        (_OUTPUT, _REQUIRED),
    ]),
    "pou-verify": ("re-verify a partition-of-unity certificate", [
        (("--pou",), _REQUIRED),
        (("--epsilon",), {"help": "rational p/q; default is the exact depth bound"}),
    ]),
    "norm": ("reduced norm of a convolution element", [
        (("--groupoid",), _REQUIRED), (("--element",), _REQUIRED), (_OUTPUT, {}),
    ]),
    "decompose": ("cut-down decomposition along a partition of unity", [
        (("--pou",), _REQUIRED), (("--element",), {}), (_OUTPUT, {}),
    ]),
    "pipeline": ("system -> witness -> ... -> decomposition chain", [
        (("--system",), {}), (("--N",), {"type": int, "default": 1}),
        (("--quotient-depth",), {"type": int, "default": 6}),
        (("--pou-depth",), {"type": int, "default": 4}),
        (_OUTPUT, {"default": "pipeline-out"}),
        (("--check",), {"help": "re-verify an existing chain directory"}),
    ]),
    "corpus": ("run the bundled regression corpus", [
        (("--write-golden",), {"action": "store_true"}),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, with the
    others named only in the usage line.  What a one-command parser prints
    for its command (its help, its errors, and the top-level usage line
    of an unrecognized argument) is what the full parser prints; the full
    one serves every other command line."""
    p = argparse.ArgumentParser(
        prog="dadim",
        description=(
            "Construct, serialize, and verify finite-scale witnesses for "
            "dynamic asymptotic dimension, and reproduce the cut-down "
            "decomposition of finite groupoid convolution algebras."
        ),
        epilog=_exit_code_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # the full parser derives this metavar from its choices
    names = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = p.add_subparsers(dest="command", required=True, **names)
    for name, (text, arguments) in _COMMANDS.items():
        if command in (None, name):
            s = sub.add_parser(name, help=text)
            for flags, kwargs in arguments:
                s.add_argument(*flags, **kwargs)
    return p


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """``build_parser(command)``, built once per process: parsing leaves no
    state on it."""
    return build_parser(command)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    first = next(iter(argv), None)
    args = _parser(first if first in _COMMANDS else None).parse_args(argv)
    # looked up at call time, so a rebound ``cmd_*`` takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        try:
            code = command(args) or 0
        except DadimError as exc:
            print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
            code = exc.exit_code
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left to flush goes to devnull,
        # so that the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
