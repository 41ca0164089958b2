"""Math backends: selection, error contracts, and cross-backend bit-identity.

The registry's whole contract is that backend choice is a performance
decision, never a correctness one — every backend must produce the same
bits as the pure-Python reference on every primitive and through every
scheme.  Tests parametrize over ``available_backends()``, so the gmpy2
column of the matrix runs automatically on hosts that have the library
and is skipped (not silently passed) elsewhere.
"""

import random
import secrets

import pytest

from repro.errors import ConfigurationError, CryptoError
from repro.mathutils import backends
from repro.mathutils.backends import (
    available_backends,
    backend_info,
    gmpy2_available,
    use_backend,
)
from repro.mathutils.modular import (
    batch_inverse,
    inverse_mod,
    jacobi_symbol,
    modexp,
    modexp_many,
    multiexp_mod,
    sqrt_mod_prime,
)

ALL_BACKENDS = available_backends()

P256 = 2**256 - 189  # 256-bit prime (curve-field sized)
M1279 = 2**1279 - 1  # Mersenne prime (RSA sized)
P_3MOD4 = 10007
P_1MOD4 = 10009


# ---------------------------------------------------------------------------
# Selection and error contracts
# ---------------------------------------------------------------------------


class TestSelection:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            with use_backend("vedic"):
                pass

    def test_python_always_available(self):
        assert ALL_BACKENDS == (
            ["python", "gmpy2"] if gmpy2_available() else ["python"]
        )

    @pytest.mark.skipif(gmpy2_available(), reason="gmpy2 present on this host")
    def test_explicit_gmpy2_fails_loud_when_absent(self):
        with pytest.raises(ConfigurationError):
            with use_backend("gmpy2"):
                pass

    def test_process_default_is_gmpy2_else_python(self):
        info = backend_info()
        assert info["name"] == ("gmpy2" if gmpy2_available() else "python")
        assert info["gmpy2_available"] is gmpy2_available()
        assert "selected_via" not in info

    def test_use_backend_restores_previous(self):
        before = backends.active_backend()
        with use_backend("python"):
            assert backends.active_backend().name == "python"
        assert backends.active_backend() is before

    def test_node_construction_keeps_backend(self):
        """Building a node never touches the process-wide backend."""
        from repro.network.local import LocalHub
        from repro.service.config import make_local_configs
        from repro.service.node import ThetacryptNode

        config = make_local_configs(4, 1, transport="local", rpc_base_port=0)[0]
        with use_backend("python"):
            ThetacryptNode(config, transport=LocalHub().endpoint(1))
            assert backends.active_backend().name == "python"


# ---------------------------------------------------------------------------
# Primitive-level equivalence matrix
# ---------------------------------------------------------------------------


def _reference(op, *args):
    with use_backend("python"):
        return op(*args)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestPrimitiveEquivalence:
    def test_modexp(self, backend):
        rng = random.Random(101)
        for modulus in (P256, M1279, 2**2048 - 1, 97):
            cases = [
                (rng.randrange(1, modulus), rng.randrange(0, modulus))
                for _ in range(4)
            ] + [(1, 0), (modulus - 1, 2)]
            for base, exponent in cases:
                expected = _reference(modexp, base, exponent, modulus)
                with use_backend(backend):
                    assert modexp(base, exponent, modulus) == expected

    def test_modexp_negative_exponent(self, backend):
        expected = _reference(modexp, 7, -3, P256)
        with use_backend(backend):
            assert modexp(7, -3, P256) == expected
        with use_backend(backend):
            with pytest.raises(CryptoError):
                modexp(6, -1, 9)  # not invertible

    def test_inverse_and_batch_inverse(self, backend):
        rng = random.Random(102)
        values = [rng.randrange(1, P256) for _ in range(9)] + [7, 7]
        expected_each = [_reference(inverse_mod, v, P256) for v in values]
        expected_batch = _reference(batch_inverse, values, P256)
        with use_backend(backend):
            assert [inverse_mod(v, P256) for v in values] == expected_each
            assert batch_inverse(values, P256) == expected_batch
            with pytest.raises(CryptoError):
                inverse_mod(6, 9)
            with pytest.raises(CryptoError):
                batch_inverse([5, 6, 7], 9)

    def test_modexp_many(self, backend):
        rng = random.Random(103)
        for modulus, count in ((P256, 8), (M1279, 7)):
            base = rng.randrange(2, modulus)
            exps = [rng.randrange(0, modulus) for _ in range(count)] + [0, 1]
            expected = _reference(modexp_many, base, exps, modulus)
            with use_backend(backend):
                assert modexp_many(base, exps, modulus) == expected

    def test_multiexp(self, backend):
        rng = random.Random(104)
        for modulus in (P256, M1279):
            pairs = [
                (rng.randrange(2, modulus), rng.randrange(-modulus, modulus))
                for _ in range(5)
            ]
            expected = _reference(multiexp_mod, pairs, modulus)
            with use_backend(backend):
                assert multiexp_mod(pairs, modulus) == expected
        with use_backend(backend):
            assert multiexp_mod([], P256) == 1

    def test_jacobi(self, backend):
        cases = [(a, n) for n in (9, 15, P_3MOD4, 225) for a in (0, 1, 2, 7, n - 1)]
        expected = [_reference(jacobi_symbol, a, n) for a, n in cases]
        with use_backend(backend):
            assert [jacobi_symbol(a, n) for a, n in cases] == expected
            with pytest.raises(CryptoError):
                jacobi_symbol(3, 8)

    def test_sqrt_mod(self, backend):
        for p in (P_3MOD4, P_1MOD4, P256):
            for x in (2, 3, 1234):
                a = x * x % p
                expected = _reference(sqrt_mod_prime, a, p)
                with use_backend(backend):
                    root = sqrt_mod_prime(a, p)
                assert root == expected and root * root % p == a
        non_residue = next(
            a for a in range(2, 100) if pow(a, (P_3MOD4 - 1) // 2, P_3MOD4) != 1
        )
        with use_backend(backend):
            with pytest.raises(CryptoError):
                sqrt_mod_prime(non_residue, P_3MOD4)


# ---------------------------------------------------------------------------
# Scheme-level bit-identity: full deterministic transcripts per backend
# ---------------------------------------------------------------------------


def _seed_secrets(monkeypatch, seed=20260809):
    """Replace the ``secrets`` entropy taps with a seeded stream.

    Every scheme draws randomness through ``secrets.randbelow`` /
    ``token_bytes`` / ``randbits`` (directly or via ``random_scalar``),
    so pinning those makes a whole keygen→sign/encrypt→combine transcript
    a deterministic function of the math backend alone.
    """
    rng = random.Random(seed)
    monkeypatch.setattr(secrets, "randbelow", rng.randrange)
    monkeypatch.setattr(secrets, "token_bytes", lambda n=32: rng.randbytes(n))
    monkeypatch.setattr(secrets, "randbits", rng.getrandbits)


def _sg02_transcript() -> bytes:
    from repro.schemes import sg02

    public, shares = sg02.keygen(2, 4)
    cipher = sg02.Sg02Cipher()
    ct = cipher.encrypt(public, b"backend matrix plaintext", b"label")
    dec = [cipher.create_decryption_share(shares[i], ct) for i in (0, 1, 3)]
    for d in dec:
        cipher.verify_decryption_share(public, ct, d)
    plaintext = cipher.combine(public, ct, dec)
    return b"".join(
        [public.to_bytes(), ct.to_bytes(), *[d.to_bytes() for d in dec], plaintext]
    )


def _bls04_transcript() -> bytes:
    from repro.schemes import bls04

    public, shares = bls04.keygen(2, 4)
    scheme = bls04.Bls04SignatureScheme()
    msg = b"backend matrix message"
    sig_shares = [scheme.partial_sign(shares[i], msg) for i in (0, 2, 3)]
    for s in sig_shares:
        scheme.verify_signature_share(public, msg, s)
    signature = scheme.combine(public, msg, sig_shares)
    scheme.verify(public, msg, signature)
    return b"".join(
        [public.to_bytes(), *[s.to_bytes() for s in sig_shares], signature.to_bytes()]
    )


def _cks05_transcript() -> bytes:
    from repro.schemes import cks05

    public, shares = cks05.keygen(2, 4)
    scheme = cks05.Cks05Coin()
    name = b"backend matrix coin"
    coin_shares = [scheme.create_coin_share(shares[i], name) for i in (1, 2, 3)]
    scheme.verify_coin_shares(public, name, coin_shares)
    value = scheme.combine(public, name, coin_shares)
    return b"".join(
        [public.to_bytes(), *[s.to_bytes() for s in coin_shares], value]
    )


def _kg20_transcript() -> bytes:
    from repro.schemes import kg20

    public, shares = kg20.keygen(2, 4)
    scheme = kg20.Kg20SignatureScheme()
    msg = b"backend matrix frost"
    ids = [1, 3, 4]
    nonces = {i: scheme.commit(shares[i - 1]) for i in ids}
    commitments = [nonces[i][1] for i in ids]
    z_shares = [
        scheme.sign_round(shares[i - 1], msg, nonces[i][0], commitments)
        for i in ids
    ]
    for z in z_shares:
        scheme.verify_signature_share(public, msg, z, commitments)
    signature = scheme.combine(public, msg, z_shares, commitments)
    scheme.verify(public, msg, signature)
    return b"".join(
        [
            public.to_bytes(),
            *[c.to_bytes() for c in commitments],
            *[z.to_bytes() for z in z_shares],
            signature.to_bytes(),
        ]
    )


_TRANSCRIPTS = {
    "sg02": _sg02_transcript,
    "bls04": _bls04_transcript,
    "cks05": _cks05_transcript,
    "kg20": _kg20_transcript,
}


@pytest.mark.parametrize("scheme_name", sorted(_TRANSCRIPTS))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_scheme_transcript_bit_identical(monkeypatch, scheme_name, backend):
    transcript = _TRANSCRIPTS[scheme_name]
    _seed_secrets(monkeypatch)
    with use_backend("python"):
        reference = transcript()
    _seed_secrets(monkeypatch)
    with use_backend(backend):
        assert transcript() == reference


def test_sh00_verify_and_combine_consistent_across_backends(monkeypatch):
    """SH00's RSA hot path (the multiexp_mod call sites) is backend-stable.

    Keygen needs safe primes, so run it once and replay the signing flow
    under each backend against the same key material.
    """
    from repro.schemes import sh00

    _seed_secrets(monkeypatch)
    public, shares = sh00.keygen(1, 3, bits=512)
    scheme = sh00.Sh00SignatureScheme()
    msg = b"sh00 backend check"
    results = {}
    for backend in ALL_BACKENDS:
        _seed_secrets(monkeypatch)
        with use_backend(backend):
            sig_shares = [scheme.partial_sign(shares[i], msg) for i in (0, 2)]
            for s in sig_shares:
                scheme.verify_signature_share(public, msg, s)
            signature = scheme.combine(public, msg, sig_shares)
            scheme.verify(public, msg, signature)
            results[backend] = b"".join(
                [*[s.to_bytes() for s in sig_shares], signature.to_bytes()]
            )
    assert len(set(results.values())) == 1
