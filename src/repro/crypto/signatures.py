"""Requirement-signature canonicalisation, signing and verification.

The paper's ``verify`` PF+=2 function (§3.3) is called as::

    with verify(@dst[req-sig], @pubkeys[research], @dst[exe-hash],
                @dst[app-name], @dst[requirements])

i.e. a signature, a public key and then an arbitrary list of data values.
The signed message must therefore be a *canonical* encoding of that value
list so that the signer (the user editing the daemon configuration file)
and the verifier (the controller evaluating a rule) agree byte for byte.
This module defines that canonical form and small convenience wrappers
around :mod:`repro.crypto.rsa`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.crypto.rsa import RSAPublicKey, generate_keypair
from repro.exceptions import SignatureError

#: Separator used between canonicalised values.  The unit separator
#: control character cannot appear in PF+=2 values (they are single-line
#: printable strings), so concatenation is unambiguous.
_CANONICAL_SEPARATOR = "\x1f"


def canonical_message(values: Sequence[object]) -> str:
    """Return the canonical string covering an ordered list of values.

    Values are converted with ``str()``; whitespace inside values is
    preserved but leading/trailing whitespace is stripped, matching what
    the PF+=2 evaluator sees after parsing a response document.
    """
    parts = [str(value).strip() for value in values]
    return _CANONICAL_SEPARATOR.join(parts)


def verify_values(
    public_key: RSAPublicKey | str,
    signature: str,
    values: Sequence[object],
) -> bool:
    """Verify a signature over an ordered list of values.

    ``public_key`` may be an :class:`RSAPublicKey` or its hex
    serialisation (the form stored in PF+=2 ``dict <pubkeys>`` blocks).
    Malformed keys or signatures return ``False`` rather than raising:
    the controller must treat them as "not verified", never crash.
    """
    if isinstance(public_key, str):
        try:
            public_key = RSAPublicKey.from_hex(public_key)
        except SignatureError:
            return False
    if not isinstance(public_key, RSAPublicKey):
        return False
    return public_key.verify(canonical_message(values), signature)


class Signer:
    """A named signing identity (a user, an administrator, or a third party).

    Wraps a deterministic key pair.
    """

    def __init__(self, name: str, *, seed: int | str | None = 0) -> None:
        self.name = name
        self.keypair = generate_keypair(name, seed=seed)

    @property
    def public_key(self) -> RSAPublicKey:
        """Return the signer's public key."""
        return self.keypair.public

    @property
    def public_key_hex(self) -> str:
        """Return the hex form of the public key (for PF+=2 ``dict`` blocks)."""
        return self.keypair.public.to_hex()

    def sign(self, values: Iterable[object]) -> str:
        """Sign an ordered list of values."""
        return self.keypair.sign(canonical_message(list(values)))

    def __repr__(self) -> str:
        return f"Signer({self.name!r})"
