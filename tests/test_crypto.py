"""Tests for the signature substrate: hashing, RSA, canonical signing, key store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import KeyError_, SignatureError
from repro.crypto.hashing import executable_hash, sha256_hex, sha256_int
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import RSAPublicKey, generate_keypair
from repro.crypto.signatures import Signer, canonical_message, verify_values


class TestHashing:
    def test_sha256_hex_matches_known_value(self):
        assert sha256_hex(b"") == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    def test_str_and_bytes_agree(self):
        assert sha256_hex("identpp") == sha256_hex(b"identpp")
        assert sha256_int("identpp") == int(sha256_hex("identpp"), 16)

    def test_executable_hash_stability(self):
        assert executable_hash("/usr/bin/skype", "bits", "210") == executable_hash("/usr/bin/skype", "bits", "210")

    def test_executable_hash_changes_with_contents_and_version(self):
        base = executable_hash("/usr/bin/skype", "bits", "210")
        assert executable_hash("/usr/bin/skype", "trojan", "210") != base
        assert executable_hash("/usr/bin/skype", "bits", "211") != base


class TestRSA:
    def test_deterministic_keygen_with_seed(self):
        first = generate_keypair("research", seed=1)
        second = generate_keypair("research", seed=1)
        assert first.public.n == second.public.n

    def test_different_seeds_differ(self):
        assert generate_keypair("a", seed=1).public.n != generate_keypair("a", seed=2).public.n

    def test_sign_verify_round_trip(self):
        keypair = generate_keypair("owner", seed=5)
        signature = keypair.sign("message")
        assert keypair.public.verify("message", signature)

    def test_tampered_message_rejected(self):
        keypair = generate_keypair("owner", seed=5)
        signature = keypair.sign("message")
        assert not keypair.public.verify("message!", signature)

    def test_wrong_key_rejected(self):
        signer = generate_keypair("owner", seed=5)
        other = generate_keypair("other", seed=6)
        assert not other.public.verify("message", signer.sign("message"))

    def test_garbage_signature_rejected(self):
        keypair = generate_keypair("owner", seed=5)
        assert not keypair.public.verify("message", "not-hex")
        assert not keypair.public.verify("message", 0)

    def test_public_key_serialisation_round_trip(self):
        keypair = generate_keypair("owner", seed=5)
        restored = RSAPublicKey.from_hex(keypair.public.to_hex())
        assert restored == keypair.public
        assert restored.verify("m", keypair.sign("m"))

    def test_serialised_key_is_single_pf_word(self):
        # dict <pubkeys> values must lex as one WORD (no colons or spaces).
        text = generate_keypair("owner", seed=5).public.to_hex()
        assert ":" not in text and " " not in text

    def test_malformed_key_rejected(self):
        with pytest.raises(SignatureError):
            RSAPublicKey.from_hex("zz")

    def test_fingerprint_is_16_hex_digits(self):
        fingerprint = generate_keypair("owner", seed=5).public.fingerprint()
        assert len(fingerprint) == 16 and int(fingerprint, 16) >= 0


class TestCanonicalSigning:
    def test_canonical_message_strips_whitespace(self):
        assert canonical_message([" a ", "b"]) == canonical_message(["a", " b "])

    def test_canonical_message_order_matters(self):
        assert canonical_message(["a", "b"]) != canonical_message(["b", "a"])

    def test_sign_and_verify_values(self):
        keypair = generate_keypair("research", seed=7)
        values = ["exe-hash-value", "research-app", "block all pass all"]
        signature = keypair.sign(canonical_message(values))
        assert verify_values(keypair.public, signature, values)
        assert verify_values(keypair.public.to_hex(), signature, values)

    def test_verify_values_rejects_any_change(self):
        keypair = generate_keypair("research", seed=7)
        values = ["hash", "app", "rules"]
        signature = keypair.sign(canonical_message(values))
        assert not verify_values(keypair.public, signature, ["hash", "app", "other rules"])
        assert not verify_values(keypair.public, signature, ["hash", "app"])

    def test_verify_values_with_malformed_key_returns_false(self):
        assert not verify_values("garbage", "00", ["a"])
        assert not verify_values(12345, "00", ["a"])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.text(alphabet=st.characters(blacklist_characters="\x1f"), max_size=20), min_size=1, max_size=4))
    def test_property_signatures_verify(self, values):
        keypair = generate_keypair("prop", seed=9)
        signature = keypair.sign(canonical_message(values))
        assert verify_values(keypair.public, signature, values)


class TestSigner:
    def test_signer_hex_key_verifies_its_signatures(self):
        signer = Signer("research", seed=0)
        signature = signer.sign(["a", "b"])
        assert signer.public_key_hex == signer.public_key.to_hex()
        assert verify_values(signer.public_key_hex, signature, ["a", "b"])
        assert not verify_values(Signer("other", seed=0).public_key_hex, signature, ["a", "b"])

    def test_signers_are_deterministic_per_name(self):
        assert Signer("x", seed=1).public_key_hex == Signer("x", seed=1).public_key_hex
        assert Signer("x", seed=1).public_key_hex != Signer("y", seed=1).public_key_hex


class TestKeyStore:
    def test_add_and_get(self):
        store = KeyStore()
        signer = Signer("research", seed=0)
        store.add("research", signer)
        assert store.get("research") == signer.public_key_hex
        assert "research" in store
        assert RSAPublicKey.from_hex(store.get("research")).verify("m", signer.keypair.sign("m"))

    def test_add_public_key_and_hex(self):
        store = KeyStore()
        keypair = generate_keypair("a", seed=1)
        store.add("by-key", keypair.public)
        store.add("by-hex", keypair.public.to_hex())
        assert store.get("by-key") == store.get("by-hex")

    def test_missing_key_raises(self):
        with pytest.raises(KeyError_):
            KeyStore().get("ghost")

    def test_remove(self):
        store = KeyStore()
        store.add("a", Signer("a", seed=0))
        store.remove("a")
        assert "a" not in store
        with pytest.raises(KeyError_):
            store.remove("a")

    def test_names_are_sorted_and_counted(self):
        store = KeyStore()
        store.add("research", Signer("research", seed=0))
        store.add("admin", Signer("admin", seed=0))
        assert list(store) == ["admin", "research"]
        assert len(store) == 2

    def test_re_adding_a_name_replaces_its_key(self):
        store = KeyStore()
        store.add("research", Signer("research", seed=0))
        rotated = Signer("research", seed=1)
        store.add("research", rotated)
        assert store.get("research") == rotated.public_key_hex
        assert len(store) == 1

    def test_invalid_key_type_rejected(self):
        with pytest.raises(KeyError_):
            KeyStore().add("bad", 42)
