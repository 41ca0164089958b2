"""The gmpy2 backend: GMP-accelerated primitives, optional at runtime.

Importing this module raises :class:`ImportError` when gmpy2 is absent;
the registry selects it for the process only after a successful probe,
and ``use_backend("gmpy2")`` without the library raises
:class:`~repro.errors.ConfigurationError` instead of degrading silently.

GMP's ``powmod`` uses sliding windows + Montgomery reduction in C, which
is worth 3–10× over CPython ``pow`` on the RSA-sized moduli of SH00 and
a solid constant factor on the 254/256-bit curve fields.  Results are
converted back to ``int`` at the boundary so every caller sees plain
Python integers — bit-identity with the pure backend is exact, enforced
by the test matrix.

Error contract: domain errors surface as ``ValueError`` like the pure
backend (gmpy2 raises ``ZeroDivisionError`` for non-invertible values;
translated here).
"""

from __future__ import annotations

from typing import Sequence

from .pure import PureBackend

import gmpy2
from gmpy2 import mpz


class Gmpy2Backend(PureBackend):
    """GMP-backed modexp/inverse/jacobi; inherits the batch structure."""

    name = "gmpy2"

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        if modulus <= 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        try:
            return int(gmpy2.powmod(mpz(base), mpz(exponent), mpz(modulus)))
        except (ZeroDivisionError, ValueError) as exc:
            raise ValueError(
                "base is not invertible for the given modulus"
            ) from exc

    def modinv(self, value: int, modulus: int) -> int:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        try:
            return int(gmpy2.invert(mpz(value), mpz(modulus)))
        except ZeroDivisionError as exc:
            raise ValueError(
                "base is not invertible for the given modulus"
            ) from exc

    def batch_modinv(self, values: Sequence[int], modulus: int) -> list[int]:
        """Montgomery's trick over mpz (one ``invert``, 3(k-1) muls)."""
        if not values:
            return []
        m = mpz(modulus)
        prefix: list = []
        acc = mpz(1)
        for value in values:
            value = mpz(value)
            if value % m == 0:
                raise ValueError(f"0 is not invertible modulo {modulus}")
            acc = acc * value % m
            prefix.append(acc)
        try:
            inv = gmpy2.invert(acc, m)
        except ZeroDivisionError as exc:
            raise ValueError(
                "base is not invertible for the given modulus"
            ) from exc
        out = [0] * len(values)
        for idx in range(len(values) - 1, -1, -1):
            before = prefix[idx - 1] if idx else mpz(1)
            out[idx] = int(inv * before % m)
            inv = inv * mpz(values[idx]) % m
        return out

    def modexp_many(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        b, m = mpz(base), mpz(modulus)
        return [int(gmpy2.powmod(b, mpz(e), m)) for e in exponents]

    def multiexp(
        self, pairs: Sequence[tuple[int, int]], modulus: int
    ) -> int:
        m = mpz(modulus)
        acc = mpz(1 % modulus)
        for base, exponent in pairs:
            acc = acc * gmpy2.powmod(mpz(base), mpz(exponent), m) % m
        return int(acc)

    def jacobi(self, a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValueError("Jacobi symbol requires odd positive n")
        return int(gmpy2.jacobi(mpz(a), mpz(n)))

    def sqrt_mod(self, a: int, p: int) -> int:
        # gmpy2 has no modular sqrt on plain mpz; Tonelli–Shanks from the
        # pure backend but with every pow routed through GMP (self.modexp).
        return super().sqrt_mod(a, p)
