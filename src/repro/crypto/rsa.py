"""Textbook RSA key generation, signing and verification.

This is a deliberately small, dependency-free RSA implementation used as
a stand-in for real signature schemes (see DESIGN.md §2).  It supports:

* probabilistic prime generation (Miller–Rabin) with a deterministic
  seed option so tests and benchmarks are reproducible,
* hash-then-sign signatures over SHA-256 digests,
* serialisation of public keys to the short hex strings that appear in
  the paper's configuration listings (``sk3ajf...fa932``).

Do **not** use this module outside the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exceptions import SignatureError
from repro.crypto.hashing import sha256_int

_DEFAULT_KEY_BITS = 512
_MILLER_RABIN_ROUNDS = 24
_PUBLIC_EXPONENT = 65537

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)


def _is_probable_prime(candidate: int, rng: random.Random) -> bool:
    """Miller–Rabin primality test."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # write candidate-1 as d * 2^r with d odd
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a probable prime of exactly ``bits`` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int = _PUBLIC_EXPONENT

    def verify(self, message: bytes | str, signature: int | str) -> bool:
        """Return ``True`` if ``signature`` is a valid signature of ``message``."""
        try:
            signature_int = int(signature, 16) if isinstance(signature, str) else int(signature)
        except (ValueError, TypeError):
            return False
        if not 0 < signature_int < self.n:
            return False
        digest = sha256_int(message) % self.n
        return pow(signature_int, self.e, self.n) == digest

    def fingerprint(self) -> str:
        """Return a 16-digit hex fingerprint, the form keys take in PF+=2 ``dict`` blocks."""
        from repro.crypto.hashing import sha256_hex

        return sha256_hex(self.to_hex())[:16]

    def to_hex(self) -> str:
        """Serialise to ``<e hex>.<n hex>``.

        The separator is a dot (not a colon) so the serialised key is a
        single PF+=2 word and can appear verbatim as a ``dict <pubkeys>``
        value, the way Figures 5 and 7 embed keys in controller
        configuration.
        """
        return f"{self.e:x}.{self.n:x}"

    @classmethod
    def from_hex(cls, text: str) -> "RSAPublicKey":
        """Parse a key serialised by :meth:`to_hex`."""
        try:
            e_text, separator, n_text = text.partition(".")
            if not separator or not n_text:
                raise ValueError("missing separator")
            return cls(n=int(n_text, 16), e=int(e_text, 16))
        except ValueError as exc:
            raise SignatureError(f"malformed public key: {text!r}") from exc


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key ``(n, d)`` plus the matching public key."""

    n: int
    d: int
    public: RSAPublicKey

    def sign(self, message: bytes | str) -> str:
        """Return the hex-encoded signature of ``message`` (SHA-256 hash-then-sign)."""
        digest = sha256_int(message) % self.n
        signature = pow(digest, self.d, self.n)
        return f"{signature:x}"


@dataclass(frozen=True)
class RSAKeyPair:
    """A matching private/public key pair with an owner label."""

    owner: str
    private: RSAPrivateKey
    public: RSAPublicKey

    def sign(self, message: bytes | str) -> str:
        """Sign ``message`` with the private key."""
        return self.private.sign(message)


#: Seed used when a caller supplies neither ``seed`` nor ``rng``.  Key
#: generation is *always* deterministic — the simulator's repo invariant
#: (lint rule R2) is that no randomness may come from an unseeded RNG,
#: because a single OS-entropy draw makes a whole scenario's event trace
#: unreproducible.
DEFAULT_KEY_SEED = 0


def generate_keypair(
    owner: str = "",
    *,
    seed: int | str | None = None,
) -> RSAKeyPair:
    """Generate a 512-bit RSA key pair (small, fast, *simulation only*), deterministically.

    Args:
        owner: Human-readable label ("research", "Secur", "admin", ...).
        seed: Deterministic seed; the same ``(owner, seed)`` always
            produces the same key pair, which keeps tests and benchmark
            fixtures stable.  Defaults to :data:`DEFAULT_KEY_SEED` —
            never to OS entropy, so two runs of any scenario mint the
            same keys and produce identical event traces.
    """
    if seed is None:
        seed = DEFAULT_KEY_SEED
    bits = _DEFAULT_KEY_BITS
    rng = random.Random(f"{owner}|{seed}|{bits}")
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        e = _PUBLIC_EXPONENT
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue
        public = RSAPublicKey(n=n, e=e)
        private = RSAPrivateKey(n=n, d=d, public=public)
        return RSAKeyPair(owner=owner, private=private, public=public)
