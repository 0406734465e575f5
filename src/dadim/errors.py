"""Exception hierarchy shared by all dadim modules, and the input rules.

Constructive operations raise; verification operations return reports and
only raise on malformed input.  Every error class carries a distinct CLI
exit code (``dadim --help`` prints the table).  Input files are parsed under
``malformed``.  Their integer fields are read by one of two rules: cyclic
orders, averaging depths and depth limits by ``positive_int``, every other
integer by ``integer``; a float or a numeric string is refused, never
truncated or parsed.  An object keyed by integers is read by ``int_keys``,
which takes canonical decimal keys only.
"""

from __future__ import annotations

from contextlib import contextmanager


class DadimError(Exception):
    """Base class; ``exit_code`` is used by the CLI."""

    exit_code = 1


class InvalidInput(DadimError):
    exit_code = 2


class DepthExceeded(DadimError):
    exit_code = 3


class NotMinimal(DadimError):
    exit_code = 4


class EmptySet(DadimError):
    exit_code = 5


class BoundExceeded(DadimError):
    exit_code = 6


class BlowupExceeded(DadimError):
    exit_code = 7


class CoverGap(DadimError):
    exit_code = 8


class NotAnAction(DadimError):
    exit_code = 9


class SizeExceeded(DadimError):
    exit_code = 10


class NotClosed(DadimError):
    exit_code = 11


class SeparationViolation(DadimError):
    exit_code = 12


class DiameterViolation(DadimError):
    exit_code = 13


class TooLarge(DadimError):
    exit_code = 14


class EmptySkeleton(DadimError):
    exit_code = 15


class NotInComplex(DadimError):
    exit_code = 16


class NoFiniteS(DadimError):
    exit_code = 17


class MissingSample(DadimError):
    exit_code = 18


class ConditionViolated(DadimError):
    """An open-cover condition (A)-(E) failed; ``label`` names which one."""

    exit_code = 19

    def __init__(self, label: str, message: str = ""):
        self.label = label
        super().__init__(f"condition ({label}) violated" + (f": {message}" if message else ""))


class DepthInsufficient(DadimError):
    exit_code = 20


class EquivarianceTooWeak(DadimError):
    exit_code = 21


class WitnessInsufficient(DadimError):
    exit_code = 22


class PropagationEscapesColor(DadimError):
    exit_code = 23


class TowerInvalid(DadimError):
    exit_code = 24


class GroupoidMismatch(DadimError):
    exit_code = 25


class SupportLeak(DadimError):
    exit_code = 26


class NotFree(DadimError):
    exit_code = 27


class VerificationFailed(DadimError):
    """Raised when a pipeline stage rejects; wraps the offending report."""

    exit_code = 28

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class HashMismatch(DadimError):
    exit_code = 29


class CorpusMismatch(DadimError):
    exit_code = 30


class FiniteSetMismatch(DadimError):
    exit_code = 31


class SupportViolation(DadimError):
    exit_code = 32


class NormalizationDefect(DadimError):
    exit_code = 33


class StepBoundViolation(DadimError):
    exit_code = 34


class OscillationExceeded(DadimError):
    exit_code = 35


class DefectExceeded(DadimError):
    exit_code = 36


class StepValueOutOfRange(DadimError):
    exit_code = 37


# a missing key, a wrong type, a bad number or rational, a short list
_PARSE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError, ZeroDivisionError)


@contextmanager
def malformed(what: str):
    """Raise ``InvalidInput("malformed <what>: ...")`` for a parse error in
    the block; a ``DadimError`` raised there passes unchanged."""
    try:
        yield
    except _PARSE_ERRORS as exc:
        raise InvalidInput(f"malformed {what}: {exc!r}") from None


def positive_int(value, what: str) -> int:
    """``value`` if it is a JSON integer >= 1 (a bool is not one)."""
    if type(value) is not int or value < 1:
        raise InvalidInput(f"expected a positive {what} (a JSON integer), got {value!r}")
    return value


def integer(value, what: str) -> int:
    """``value`` if it is a JSON integer of any sign (a bool is not one)."""
    if type(value) is not int:
        raise InvalidInput(f"expected {what} as a JSON integer, got {value!r}")
    return value


def int_keys(obj: dict, what: str) -> dict:
    """``obj`` with its keys read as canonical decimal integers: "7" and
    "-2", never "07", " 7" or "+7", so that no two keys name one integer.
    Such a key raises InvalidInput; a key that names no integer raises
    ValueError, which ``malformed`` turns into InvalidInput."""
    out = {}
    for key, value in obj.items():
        x = int(key)
        if str(x) != key:
            raise InvalidInput(f"{what} key {key!r} is not a canonical decimal integer")
        out[x] = value
    return out


ALL_ERRORS = [
    InvalidInput, DepthExceeded, NotMinimal, EmptySet, BoundExceeded,
    BlowupExceeded, CoverGap, NotAnAction, SizeExceeded, NotClosed,
    SeparationViolation, DiameterViolation, TooLarge, EmptySkeleton,
    NotInComplex, NoFiniteS, MissingSample, ConditionViolated,
    DepthInsufficient, EquivarianceTooWeak, WitnessInsufficient,
    PropagationEscapesColor, TowerInvalid, GroupoidMismatch, SupportLeak,
    NotFree, VerificationFailed, HashMismatch, CorpusMismatch, FiniteSetMismatch,
    SupportViolation, NormalizationDefect, StepBoundViolation, OscillationExceeded,
    DefectExceeded, StepValueOutOfRange,
]
