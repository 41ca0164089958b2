"""Modular arithmetic primitives: inverses, CRT, Jacobi, square roots.

Since the math-backend registry (docs/performance.md, "Math backends")
these functions are thin wrappers that dispatch through the active
backend — pure Python or gmpy2 — and translate the
backends' ``ValueError`` domain errors into :class:`CryptoError`.  The
public contracts below are unchanged from the original pure
implementations, and every backend is bit-identical on them.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import CryptoError
from . import backends


def inverse_mod(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises :class:`CryptoError` when no inverse exists (gcd != 1), which in a
    threshold-RSA context usually signals a catastrophically lucky factoring
    event and must not pass silently.
    """
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    try:
        return backends.modinv(value, modulus)
    except ValueError as exc:
        raise CryptoError(f"{value} is not invertible modulo {modulus}") from exc


def batch_inverse(values: "Sequence[int]", modulus: int) -> list[int]:
    """Invert many values with a single modular inversion (Montgomery's trick).

    Computes ``[v^-1 mod modulus for v in values]`` using one call to
    :func:`inverse_mod` plus ``3(k-1)`` multiplications, instead of ``k``
    inversions.  This is the workhorse behind the cached Lagrange coefficient
    path: all ``t+1`` interpolation denominators share one inversion.

    Raises :class:`CryptoError` if any value is zero or shares a factor with
    the modulus (same contract as :func:`inverse_mod`).  The failure is
    all-or-nothing: a bad value anywhere in the list poisons the shared
    inversion, so no partial results are returned.
    """
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    try:
        return backends.batch_modinv(values, modulus)
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` through the active backend.

    Negative exponents invert the base first (``CryptoError`` when no
    inverse exists), matching built-in ``pow`` semantics.
    """
    try:
        return backends.modexp(base, exponent, modulus)
    except ValueError as exc:
        raise CryptoError(
            f"{base} is not invertible modulo {modulus}"
        ) from exc


def modexp_many(base: int, exponents: Sequence[int], modulus: int) -> list[int]:
    """Many powers of one base: ``[base^e mod m for e in exponents]``."""
    try:
        return backends.modexp_many(base, exponents, modulus)
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc


def multiexp_mod(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """Product ``Π base^exp mod modulus`` over ``(base, exp)`` pairs.

    Negative exponents are handled by inverting the base (``CryptoError``
    when not invertible) — the hot step of SH00's share combination.
    """
    try:
        return backends.multiexp(pairs, modulus)
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Combine ``x = r1 mod m1`` and ``x = r2 mod m2`` for coprime moduli.

    Non-coprime moduli make ``m1`` non-invertible modulo ``m2`` and raise
    :class:`CryptoError` (no silent wrong answers for inconsistent inputs).
    """
    m1_inv = inverse_mod(m1, m2)
    diff = (r2 - r1) % m2
    return (r1 + m1 * ((diff * m1_inv) % m2)) % (m1 * m2)


def jacobi_symbol(a: int, n: int) -> int:
    """Compute the Jacobi symbol (a/n) for odd ``n`` > 0."""
    try:
        return backends.jacobi(a, n)
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc


def sqrt_mod_prime(a: int, p: int) -> int:
    """Return a square root of ``a`` modulo prime ``p`` (Tonelli–Shanks).

    Raises :class:`CryptoError` when ``a`` is a non-residue.  Used by the
    hash-to-curve routines that need y from a curve equation.
    """
    try:
        return backends.sqrt_mod(a, p)
    except ValueError as exc:
        raise CryptoError(str(exc)) from exc
