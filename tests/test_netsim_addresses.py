"""Unit and property-based tests for IPv4/MAC addressing."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import AddressError
from repro.netsim.addresses import IPv4Address, IPv4Network, MACAddress
from tests.reference_addresses import ReferenceIPv4Address, ReferenceMACAddress


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert IPv4Address("192.168.42.32").to_int() == 3232246304

    def test_round_trip_string(self):
        assert str(IPv4Address("10.0.0.1")) == "10.0.0.1"

    def test_from_int(self):
        assert str(IPv4Address(0)) == "0.0.0.0"
        assert str(IPv4Address(2**32 - 1)) == "255.255.255.255"

    def test_copy_constructor(self):
        original = IPv4Address("1.2.3.4")
        assert IPv4Address(original) == original

    def test_equality_with_string_and_int(self):
        assert IPv4Address("10.0.0.1") == "10.0.0.1"
        assert IPv4Address("10.0.0.1") == IPv4Address("10.0.0.1").to_int()

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")

    def test_hashable_and_usable_as_dict_key(self):
        table = {IPv4Address("10.0.0.1"): "host"}
        assert table[IPv4Address("10.0.0.1")] == "host"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_hashes_like_its_integer(self, value):
        # __eq__ accepts ints, so sets and dicts must find either by the other.
        address = IPv4Address(value)
        assert hash(address) == hash(value)
        assert address in {value} and value in {address}
        assert {value: "host"}[address] == "host" == {address: "host"}[value]

    def test_string_comparison_is_equality_only(self):
        # Documented on the class: equal to its dotted quad, but hashed
        # like its integer, so a str key does not find an address.
        address = IPv4Address("10.0.0.1")
        assert address == "10.0.0.1"
        assert address not in {"10.0.0.1"}
        assert address in {IPv4Address("10.0.0.1")}

    def test_text_is_rendered_once_and_survives_copies(self):
        address = IPv4Address(3232246304)
        assert str(address) is str(address) == "192.168.42.32"
        assert str(IPv4Address(address)) is str(address)

    def test_addition(self):
        assert IPv4Address("10.0.0.1") + 5 == IPv4Address("10.0.0.6")

    @pytest.mark.parametrize("bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.-1"])
    def test_invalid_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_invalid_integers_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_invalid_type_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_int_round_trip(self, value):
        assert IPv4Address(str(IPv4Address(value))).to_int() == value


class TestIPv4Network:
    def test_contains_address(self):
        network = IPv4Network("192.168.0.0/24")
        assert IPv4Address("192.168.0.7") in network
        assert IPv4Address("192.168.1.7") not in network

    def test_contains_string(self):
        assert "10.0.0.1" in IPv4Network("10.0.0.0/8")

    def test_host_route(self):
        network = IPv4Network("192.168.1.1")
        assert network.netmask_int() == 0xFFFFFFFF
        assert IPv4Address("192.168.1.1") in network
        assert IPv4Address("192.168.1.2") not in network

    def test_network_address(self):
        network = IPv4Network("10.0.0.0/30")
        assert str(network.network_address) == "10.0.0.0"

    def test_base_address_masked(self):
        assert str(IPv4Network("192.168.1.77/24")) == "192.168.1.0/24"

    @pytest.mark.parametrize("prefix, mask", [
        (0, 0), (8, 0xFF000000), (20, 0xFFFFF000), (32, 0xFFFFFFFF),
    ])
    def test_netmask_int(self, prefix, mask):
        assert IPv4Network(f"0.0.0.0/{prefix}").netmask_int() == mask

    def test_network_containment(self):
        assert IPv4Network("192.168.1.0/24") in IPv4Network("192.168.0.0/16")
        assert IPv4Network("192.168.0.0/16") not in IPv4Network("192.168.1.0/24")

    def test_equality_and_hash(self):
        assert IPv4Network("10.0.0.0/8") == IPv4Network("10.0.0.0/8")
        assert len({IPv4Network("10.0.0.0/8"), IPv4Network("10.0.0.0/8")}) == 1

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/abc"])
    def test_invalid_prefix_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Network(bad)

    def test_zero_prefix_contains_everything(self):
        assert "255.255.255.255" in IPv4Network("0.0.0.0/0")

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_property_network_contains_its_own_base(self, value, prefix):
        network = IPv4Network(f"{IPv4Address(value)}/{prefix}")
        assert network.network_address in network


class TestMACAddress:
    def test_parse_colon_form(self):
        assert int(MACAddress("00:11:22:33:44:55")) == 0x001122334455

    def test_parse_dash_form(self):
        assert MACAddress("00-11-22-33-44-55") == MACAddress("00:11:22:33:44:55")

    def test_round_trip(self):
        assert str(MACAddress("aa:bb:cc:dd:ee:ff")) == "aa:bb:cc:dd:ee:ff"

    def test_from_index_unique(self):
        first = MACAddress.from_index(1)
        second = MACAddress.from_index(2)
        assert first != second

    @pytest.mark.parametrize("index", [0, 1, 2**32 - 1, 2**40 - 1])
    def test_from_index_is_locally_administered_unicast(self, index):
        first_octet = int(MACAddress.from_index(index)) >> 40
        assert first_octet & 0x02  # locally administered
        assert not first_octet & 0x01  # unicast

    @pytest.mark.parametrize("bad", ["", "aa:bb:cc", "zz:bb:cc:dd:ee:ff", "aabbccddeeff"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(AddressError):
            MACAddress(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            MACAddress(2**48)

    def test_from_index_out_of_range(self):
        with pytest.raises(AddressError):
            MACAddress.from_index(2**40)

    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_property_string_round_trip(self, value):
        assert int(MACAddress(str(MACAddress(value)))) == value


class TestIntValued:
    """Both address classes are ints: hashing like their value is the contract."""

    def test_a_mac_is_found_by_the_integer_it_equals(self):
        # It always compared equal to its integer; it now also hashes like
        # it, so sets and dicts agree with ``==``.
        assert MACAddress(5) == 5
        assert 5 in {MACAddress(5)} and MACAddress(5) in {5}
        assert {5: "port"}[MACAddress(5)] == "port"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_an_ipv4_address_never_equals_a_mac_of_the_same_integer(self, value):
        ip, mac = IPv4Address(value), MACAddress(value)
        assert not ip == mac and not mac == ip
        assert ip != mac and mac != ip
        assert len({ip, mac}) == 2 and {ip: "ip", mac: "mac"}[mac] == "mac"

    def test_neither_builds_from_the_other(self):
        with pytest.raises(AddressError):
            IPv4Address(MACAddress(5))
        with pytest.raises(AddressError):
            MACAddress(IPv4Address(5))

    def test_an_address_is_its_own_copy_and_always_true(self):
        address = IPv4Address("0.0.0.0")
        assert IPv4Address(address) is address
        assert address and MACAddress(0)


# ----------------------------------------------------------------------
# Against the classes they replaced (tests/reference_addresses.py)
# ----------------------------------------------------------------------

OCTET = st.integers(min_value=0, max_value=255)
DOTTED = st.tuples(OCTET, OCTET, OCTET, OCTET).map(lambda o: ".".join(map(str, o)))
IPV4 = st.one_of(st.integers(min_value=0, max_value=2**32 - 1), DOTTED)
MAC_INT = st.integers(min_value=0, max_value=2**48 - 1)


def mac_text(value, separator, upper):
    raw = f"{value:012x}"
    text = separator.join(raw[i : i + 2] for i in range(0, 12, 2))
    return text.upper() if upper else text


MAC = st.one_of(MAC_INT, st.builds(mac_text, MAC_INT, st.sampled_from(":-"), st.booleans()))
#: What else an address meets in ``==``: any integer, its text, junk.
OPERAND = st.one_of(
    st.integers(min_value=-3, max_value=2**49), DOTTED, st.text(max_size=6), st.none(),
)


def relations(a, b):
    """Every comparison a caller can make between ``a`` and ``b``."""
    return (a == b, a != b, b == a, b != a)


def orders(a, b):
    return (a < b, a <= b, a > b, a >= b)


class TestAgainstReference:
    @given(IPV4, IPV4)
    def test_ipv4_pairs_compare_hash_and_render_alike(self, left, right):
        new = IPv4Address(left), IPv4Address(right)
        old = ReferenceIPv4Address(left), ReferenceIPv4Address(right)
        assert relations(*new) == relations(*old)
        assert orders(*new) == orders(*old)
        assert [hash(a) for a in new] == [hash(a) for a in old]
        for a, b in zip(new, old):
            assert (str(a), repr(a), format(a, ""), f"{a}") == (str(b), repr(b), format(b, ""), f"{b}")
            assert (a.to_int(), int(a)) == (b.to_int(), int(b))

    @given(IPV4, OPERAND)
    def test_ipv4_meets_other_operands_alike(self, value, other):
        assert relations(IPv4Address(value), other) == relations(ReferenceIPv4Address(value), other)

    @given(IPV4, st.integers(min_value=0, max_value=2**32 - 1))
    def test_ipv4_orders_against_integers_alike(self, value, number):
        assert orders(IPv4Address(value), number) == orders(ReferenceIPv4Address(value), number)

    @given(IPV4, st.integers(min_value=-(2**33), max_value=2**33))
    def test_ipv4_plus_an_offset_alike(self, value, offset):
        new, old = IPv4Address(value) + offset, ReferenceIPv4Address(value) + offset
        assert type(new) is IPv4Address and str(new) == str(old)

    @given(MAC, MAC)
    def test_mac_pairs_compare_and_render_alike(self, left, right):
        new = MACAddress(left), MACAddress(right)
        old = ReferenceMACAddress(left), ReferenceMACAddress(right)
        assert relations(*new) == relations(*old)
        assert orders(*new) == orders(*old)
        for a, b in zip(new, old):
            assert (str(a), repr(a), format(a, ""), f"{a}") == (str(b), repr(b), format(b, ""), f"{b}")
            assert int(a) == b.to_int() == int(b)
            # The one difference, on purpose: the reference hashed a tuple.
            assert hash(a) == hash(int(a)) and hash(b) == hash(("MACAddress", b.to_int()))

    @given(MAC, OPERAND)
    def test_mac_meets_other_operands_alike(self, value, other):
        assert relations(MACAddress(value), other) == relations(ReferenceMACAddress(value), other)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_the_two_kinds_never_meet_alike(self, value):
        assert relations(IPv4Address(value), MACAddress(value)) == relations(
            ReferenceIPv4Address(value), ReferenceMACAddress(value)
        ) == (False, True, False, True)

    @pytest.mark.parametrize("spec", [">20", "x", "d"])
    def test_a_format_spec_is_refused_alike(self, spec):
        for address in (IPv4Address("10.0.0.1"), ReferenceIPv4Address("10.0.0.1"),
                        MACAddress(5), ReferenceMACAddress(5)):
            with pytest.raises(TypeError):
                format(address, spec)
