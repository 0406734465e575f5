"""Square-root-free exact comparisons.

The almost-invariant partitions of unity take values p/sqrt(S) with p, S
rational.  All inequalities we need compare such values (or their
differences) against bounds of the form (u + v*sqrt(k))/sqrt(N).  Each
comparison is decided exactly by isolating one radical at a time and
squaring; signs are tracked so strictness survives.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

from .errors import InvalidInput

Rat = Fraction


def diff_lt_rational(p: Rat, S: Rat, q: Rat, T: Rat, bound: Rat) -> bool:
    """Decide |p/sqrt(S) - q/sqrt(T)| < bound exactly (p, q >= 0; S, T > 0)."""
    if bound <= 0:
        # a nonnegative quantity is < bound<=0 never; ==0 only if bound>0
        return False
    # square both sides: A - B/sqrt(c) < bound^2 with c = S*T
    A = p * p / S + q * q / T
    B = 2 * p * q
    c = S * T
    L = A - bound * bound
    if L < 0:
        return True
    if L == 0:
        return B > 0
    # L > 0:  L < B/sqrt(c)  <=>  L^2 c < B^2
    return L * L * c < B * B


def diff_lt_osc_bound(p: Rat, S: Rat, q: Rat, T: Rat, d: int, N: int) -> bool:
    """Decide |p/sqrt(S) - q/sqrt(T)| < sqrt(2)*(1+sqrt(d+1))/sqrt(N) exactly.

    The right-hand side squared is (2*(d+2) + 4*sqrt(d+1))/N.
    """
    k = d + 1
    A = p * p / S + q * q / T
    B = 2 * p * q
    c = S * T
    Q1 = Fraction(2 * (d + 2), N)
    Q2 = Fraction(4, N)
    # decide A - B/sqrt(c) < Q1 + Q2*sqrt(k)
    L = A - Q1
    if L < 0:
        return True
    if L == 0:
        return True  # Q2*sqrt(k) > 0 always
    # L > 0: square once: L^2 < B^2/c + Q2^2 k + 2 B Q2 sqrt(k/c)
    L2 = L * L - B * B / c - Q2 * Q2 * k
    if L2 < 0:
        return True
    if L2 == 0:
        return B > 0
    # L2 > 0: square again: L2^2 < 4 B^2 Q2^2 k / c
    return L2 * L2 * c < 4 * B * B * Q2 * Q2 * k


def osc_bound_float(d: int, N: int) -> float:
    """Float value of sqrt(2)*(1+sqrt(d+1))/sqrt(N), for reports only."""
    return sqrt(2.0) * (1.0 + sqrt(d + 1.0)) / sqrt(float(N))


def least_pou_depth(d: int, eps: Rat) -> int:
    """Least N >= 3 with sqrt(2)*(1+sqrt(d+1))/sqrt(N) < eps.

    Equivalently N*eps^2 - 2*(d+2) > 4*sqrt(d+1), decided by squaring.
    """
    if eps <= 0:
        raise InvalidInput(f"eps must be positive, not {eps}")
    k = d + 1
    N = 3
    while True:
        L = N * eps * eps - 2 * (d + 2)
        if L > 0 and L * L > 16 * k:
            return N
        N += 1


def sqrt_pair_float(p: Rat, S: Rat) -> float:
    """Float value of p/sqrt(S)."""
    return float(p) / sqrt(float(S))
