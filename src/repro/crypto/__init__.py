"""Public-key signature substrate.

Figures 3–7 of the paper rely on signed rule snippets: a user or a
third-party security company signs ``(exe-hash, app-name, requirements)``
and the controller's ``verify()`` PF+=2 function checks the signature
before honouring delegated rules.  No cryptography library is available
offline, so this package implements a small, self-contained textbook RSA
scheme (Miller–Rabin key generation, SHA-256 hash-then-sign) that offers
the same API surface and the same failure modes: any tampering with the
signed data, the signature or the key makes verification fail.

This code is a *simulation substrate*, not production cryptography — see
DESIGN.md §2 for the substitution rationale.
"""
