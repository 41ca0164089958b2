"""The reference backend: CPython built-ins, no dependencies.

Every other backend is tested bit-identical against this one.  The
implementations here are the canonical ones the repo has always used
(``pow`` for modexp and inverse, Montgomery's trick for batch inversion,
binary Jacobi, Tonelli–Shanks for square roots); :mod:`repro.mathutils.
modular` now delegates to them through the active backend.

Error contract (shared by all backends): primitives raise ``ValueError``
for domain errors — non-invertible values, even Jacobi moduli,
non-residue square roots — matching built-in ``pow(x, -1, m)``.  The
public :mod:`repro.mathutils.modular` wrappers translate those into
:class:`~repro.errors.CryptoError` exactly as before.
"""

from __future__ import annotations

from typing import Sequence


class PureBackend:
    """Pure-Python primitives over CPython's big-int arithmetic."""

    name = "python"

    # -- scalar primitives -------------------------------------------------

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def modinv(self, value: int, modulus: int) -> int:
        return pow(value, -1, modulus)

    def batch_modinv(self, values: Sequence[int], modulus: int) -> list[int]:
        """Montgomery's trick: one inversion plus 3(k-1) multiplications."""
        if not values:
            return []
        prefix: list[int] = []
        acc = 1
        for value in values:
            if value % modulus == 0:
                raise ValueError(f"0 is not invertible modulo {modulus}")
            acc = acc * value % modulus
            prefix.append(acc)
        inv = self.modinv(acc, modulus)
        out = [0] * len(values)
        for idx in range(len(values) - 1, -1, -1):
            before = prefix[idx - 1] if idx else 1
            out[idx] = inv * before % modulus
            inv = inv * values[idx] % modulus
        return out

    # -- batch entry points -------------------------------------------------

    def modexp_many(
        self, base: int, exponents: Sequence[int], modulus: int
    ) -> list[int]:
        return [pow(base, exponent, modulus) for exponent in exponents]

    def multiexp(
        self, pairs: Sequence[tuple[int, int]], modulus: int
    ) -> int:
        result = 1 % modulus
        for base, exponent in pairs:
            result = result * pow(base, exponent, modulus) % modulus
        return result

    # -- number theory -----------------------------------------------------

    def jacobi(self, a: int, n: int) -> int:
        if n <= 0 or n % 2 == 0:
            raise ValueError("Jacobi symbol requires odd positive n")
        a %= n
        result = 1
        while a:
            while a % 2 == 0:
                a //= 2
                if n % 8 in (3, 5):
                    result = -result
            a, n = n, a
            if a % 4 == 3 and n % 4 == 3:
                result = -result
            a %= n
        return result if n == 1 else 0

    def sqrt_mod(self, a: int, p: int) -> int:
        """Tonelli–Shanks; ``ValueError`` when ``a`` is a non-residue."""
        a %= p
        if a == 0:
            return 0
        if p == 2:
            return a
        if self.modexp(a, (p - 1) // 2, p) != 1:
            raise ValueError("no square root exists")
        if p % 4 == 3:
            return self.modexp(a, (p + 1) // 4, p)
        # Tonelli–Shanks for p == 1 (mod 4).
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while self.modexp(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m = s
        c = self.modexp(z, q, p)
        t = self.modexp(a, q, p)
        r = self.modexp(a, (q + 1) // 2, p)
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = (t2 * t2) % p
                i += 1
                if i == m:
                    raise ValueError("Tonelli-Shanks failed: input not a residue")
            b = self.modexp(c, 1 << (m - i - 1), p)
            m, c = i, (b * b) % p
            t, r = (t * c) % p, (r * b) % p
        return r
