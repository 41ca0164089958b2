"""Pluggable math backends: one registry for the big-int hot path.

Every scheme in the reproduction bottoms out in the same handful of
primitives — modular exponentiation, modular inverse, batch inverse,
Jacobi symbols, modular square roots, and multi-exponentiation products.
This package routes all of them through a *backend*, so a faster
substrate speeds up every scheme, the worker pool, and the precompute
pipeline at once:

``python``
    The reference backend: CPython's built-in ``pow`` and Montgomery
    batch inversion.

``gmpy2``
    Optional: GMP-backed ``powmod``/``invert``/``jacobi`` wrappers.

The backend is a property of the process, not of a node's configuration:
``gmpy2`` when it imports, otherwise ``python``.  Nodes sharing a process
therefore can never disagree about it.  :func:`use_backend` switches it
temporarily for tests and benchmarks (the bit-identity matrix).

Every backend must be **bit-identical** to ``python`` on every primitive
— enforced by the parametrized matrix in ``tests/test_math_backends.py``
— so the choice is purely a performance decision, never a correctness one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from ...errors import ConfigurationError
from .pure import PureBackend


def gmpy2_available() -> bool:
    """True when the optional gmpy2 library imports."""
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> list[str]:
    """Backend names usable on this host (test matrix input)."""
    return ["python", "gmpy2"] if gmpy2_available() else ["python"]


def _build(name: str):
    if name == "python":
        return PureBackend()
    if name == "gmpy2":
        if not gmpy2_available():
            raise ConfigurationError(
                "math backend 'gmpy2' requested but gmpy2 does not import"
            )
        from .gmpy2_backend import Gmpy2Backend

        return Gmpy2Backend()
    raise ConfigurationError(
        f"unknown math backend {name!r}; known: ('python', 'gmpy2')"
    )


#: The process-wide active backend (one, like the precompute caches).
_ACTIVE = _build(available_backends()[-1])


def active_backend():
    """The backend every routed primitive currently dispatches through."""
    return _ACTIVE


@contextmanager
def use_backend(name: str) -> Iterator[object]:
    """Temporarily switch backends (tests and benchmarks).

    Raises :class:`ConfigurationError` for unknown names and for
    ``"gmpy2"`` when the library is absent.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, _build(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def backend_info() -> dict:
    """Snapshot for ``stats()["crypto_backend"]`` and the info metric."""
    return {
        "name": _ACTIVE.name,
        "gmpy2_available": gmpy2_available(),
        "available": available_backends(),
    }


# ---------------------------------------------------------------------------
# Dispatch helpers: the routed call sites use these module-level functions
# so the active backend is one global load away from every primitive.
# ---------------------------------------------------------------------------


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` (negative exponents invert)."""
    return _ACTIVE.modexp(base, exponent, modulus)


def modinv(value: int, modulus: int) -> int:
    """Modular inverse; raises ``ValueError`` when gcd != 1 (like ``pow``)."""
    return _ACTIVE.modinv(value, modulus)


def batch_modinv(values: Sequence[int], modulus: int) -> list[int]:
    """``[v^-1 mod m for v in values]``; ``ValueError`` on any bad value."""
    return _ACTIVE.batch_modinv(values, modulus)


def modexp_many(base: int, exponents: Sequence[int], modulus: int) -> list[int]:
    """Many powers of one base: ``[base^e mod m for e in exponents]``."""
    return _ACTIVE.modexp_many(base, exponents, modulus)


def multiexp(
    pairs: Sequence[tuple[int, int]], modulus: int
) -> int:
    """Product ``Π base^exp mod modulus`` over ``(base, exp)`` pairs."""
    return _ACTIVE.multiexp(pairs, modulus)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive ``n``."""
    return _ACTIVE.jacobi(a, n)


def sqrt_mod(a: int, p: int) -> int:
    """Square root mod prime ``p``; ``ValueError`` for a non-residue."""
    return _ACTIVE.sqrt_mod(a, p)
