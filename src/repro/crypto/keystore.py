"""A named store of public keys.

The controller configuration in Figures 5 and 7 declares public keys in
``dict <pubkeys>`` blocks; :class:`KeyStore` is the runtime object those
blocks populate, mapping a principal name ("research", "admin", "Secur")
to a serialised public key.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.exceptions import KeyError_
from repro.crypto.rsa import RSAPublicKey
from repro.crypto.signatures import Signer


class KeyStore:
    """Maps principal names to public keys (stored in hex form)."""

    def __init__(self) -> None:
        self._keys: dict[str, str] = {}

    def add(self, name: str, key: RSAPublicKey | Signer | str) -> None:
        """Register a public key under ``name``.

        Accepts a :class:`RSAPublicKey`, a :class:`Signer` (its public key
        is taken) or an already-serialised hex string.
        """
        if isinstance(key, Signer):
            key = key.public_key
        if isinstance(key, RSAPublicKey):
            key = key.to_hex()
        if not isinstance(key, str) or not key:
            raise KeyError_(f"cannot store key of type {type(key).__name__} for {name!r}")
        self._keys[name] = key

    def get(self, name: str) -> str:
        """Return the hex-serialised key for ``name``.

        Raises :class:`~repro.exceptions.KeyError_` if the name is unknown.
        """
        try:
            return self._keys[name]
        except KeyError as exc:
            raise KeyError_(f"no public key registered for {name!r}") from exc

    def lookup(self, name: str) -> Optional[str]:
        """Return the key for ``name`` or ``None`` when unknown."""
        return self._keys.get(name)

    def public_key(self, name: str) -> RSAPublicKey:
        """Return the key for ``name`` parsed into an :class:`RSAPublicKey`."""
        return RSAPublicKey.from_hex(self.get(name))

    def remove(self, name: str) -> None:
        """Delete the key registered under ``name`` (revocation)."""
        if name not in self._keys:
            raise KeyError_(f"no public key registered for {name!r}")
        del self._keys[name]

    def names(self) -> list[str]:
        """Return all registered principal names, sorted."""
        return sorted(self._keys)

    def __contains__(self, name: str) -> bool:
        return name in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._keys))
