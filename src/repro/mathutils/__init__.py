"""Number-theoretic building blocks shared by every cryptographic substrate."""

from .backends import (
    active_backend,
    available_backends,
    backend_info,
    use_backend,
)
from .modular import (
    batch_inverse,
    crt_pair,
    inverse_mod,
    jacobi_symbol,
    modexp,
    modexp_many,
    multiexp_mod,
    sqrt_mod_prime,
)
from .primes import (
    is_probable_prime,
    next_prime,
    random_prime,
    random_safe_prime,
)
from .lagrange import (
    clear_lagrange_cache,
    lagrange_cache_stats,
    lagrange_coefficient,
    lagrange_coefficients_at_zero,
    integer_lagrange_numerator_denominator,
)

__all__ = [
    "active_backend",
    "available_backends",
    "backend_info",
    "batch_inverse",
    "clear_lagrange_cache",
    "lagrange_cache_stats",
    "crt_pair",
    "inverse_mod",
    "jacobi_symbol",
    "modexp",
    "modexp_many",
    "multiexp_mod",
    "sqrt_mod_prime",
    "use_backend",
    "is_probable_prime",
    "next_prime",
    "random_prime",
    "random_safe_prime",
    "lagrange_coefficient",
    "lagrange_coefficients_at_zero",
    "integer_lagrange_numerator_denominator",
]
