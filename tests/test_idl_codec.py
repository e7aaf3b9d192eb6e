"""Golden vectors for the idl codec.

The payload bytes, key hashes, error types, messages and offsets below
were recorded from the field-by-field encoder that the compiled codec
replaced. Payloads and instance handles travel in DATA submessages, so
they must not change: peers running either encoder interoperate.
"""

import struct

import pytest

from minidds import idl
from minidds.clock import ManualClock
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.transport import InProcNetwork

NAN = float("nan")
INF = float("inf")
HUGE = 10**400  # an integer no double can hold

PADDED_IDL = """struct Padded {
    string s; //@key
    double d;
    short h;
    octet o;
    unsigned long long q; //@key
    boolean b;
    string t;
    float f;
};"""
READING_IDL = """struct Reading {
    long site; //@key
    unsigned long sensor; //@key
    unsigned long long stamp;
    double value;
    string label;
};"""
SPLIT_IDL = """struct Split {
    long a; //@key
    octet gap;
    short b; //@key
    double c;
    long long d; //@key
    short e; //@key
};"""
MIXED_IDL = "struct M { long a; float b; //@key\n double c; string s; octet o; };"
FUNCTIONS = ("serialize", "serialized_size", "key_bytes", "key_hash")


def _kind_type(kind_name: str) -> idl.TypeDescriptor:
    keyword = idl.PrimitiveKind[kind_name].keyword
    return idl.parse_idl(f"struct G {{ octet tag; {keyword} v; //@key\n}};")[0]


def _type(source: str) -> idl.TypeDescriptor:
    return idl.parse_idl(source)[0]


# One octet before the value puts alignment padding ahead of every kind
# wider than a byte.
KIND_VECTORS = [  # (kind, v, payload of (0xAB, v), key_hash)
    ('BOOLEAN', False, 'ab00', 12638153115695167455),
    ('BOOLEAN', True, 'ab01', 12638152016183539244),
    ('OCTET', 0, 'ab00', 12638153115695167455),
    ('OCTET', 1, 'ab01', 12638152016183539244),
    ('OCTET', 254, 'abfe', 12638353226811501857),
    ('OCTET', 255, 'abff', 12638352127299873646),
    ('SHORT', -32768, 'ab000080', 590543330332022381),
    ('SHORT', -32767, 'ab000180', 589868230192490052),
    ('SHORT', 0, 'ab000000', 590684067820433389),
    ('SHORT', 1, 'ab000100', 589727492704079044),
    ('SHORT', 32766, 'ab00fe7f', 764847809206245050),
    ('SHORT', 32767, 'ab00ff7f', 763721909299146211),
    ('UNSIGNED_SHORT', 0, 'ab000000', 590684067820433389),
    ('UNSIGNED_SHORT', 1, 'ab000100', 589727492704079044),
    ('UNSIGNED_SHORT', 65534, 'ab00feff', 764988546694656058),
    ('UNSIGNED_SHORT', 65535, 'ab00ffff', 763862646787557219),
    ('LONG', -2147483648, 'ab00000000000080', 5558838868050786933),
    ('LONG', -2147483647, 'ab00000001000080', 12478149068722876644),
    ('LONG', 0, 'ab00000000000000', 5558979605539197941),
    ('LONG', 1, 'ab00000001000000', 12478008331234465636),
    ('LONG', 2147483646, 'ab000000feffff7f', 8094083918507704384),
    ('LONG', 2147483647, 'ab000000ffffff7f', 11047037850681434065),
    ('UNSIGNED_LONG', 0, 'ab00000000000000', 5558979605539197941),
    ('UNSIGNED_LONG', 1, 'ab00000001000000', 12478008331234465636),
    ('UNSIGNED_LONG', 4294967294, 'ab000000feffffff', 8093943181019293376),
    ('UNSIGNED_LONG', 4294967295, 'ab000000ffffffff', 11047178588169845073),
    ('LONG_LONG', -9223372036854775808, 'ab000000000000000000000000000080', 12161821475553763397),
    ('LONG_LONG', -9223372036854775807, 'ab000000000000000100000000000080', 9929506068586173988),
    ('LONG_LONG', 0, 'ab000000000000000000000000000000', 12161962213042174405),
    ('LONG_LONG', 1, 'ab000000000000000100000000000000', 9929646806074584996),
    ('LONG_LONG', 9223372036854775806, 'ab00000000000000feffffffffffff7f', 18166031205988327324),
    ('LONG_LONG', 9223372036854775807, 'ab00000000000000ffffffffffffff7f', 10157194460633784765),
    ('UNSIGNED_LONG_LONG', 0, 'ab000000000000000000000000000000', 12161962213042174405),
    ('UNSIGNED_LONG_LONG', 1, 'ab000000000000000100000000000000', 9929646806074584996),
    ('UNSIGNED_LONG_LONG', 18446744073709551614, 'ab00000000000000feffffffffffffff', 18165890468499916316),
    ('UNSIGNED_LONG_LONG', 18446744073709551615, 'ab00000000000000ffffffffffffffff', 10157053723145373757),
    ('FLOAT', 0.0, 'ab00000000000000', 5558979605539197941),
    ('FLOAT', -0.0, 'ab00000000000080', 5558838868050786933),
    ('FLOAT', 1.5, 'ab0000000000c03f', 5375265506152637784),
    ('FLOAT', -2.25, 'ab000000000010c0', 5574073701168250949),
    ('FLOAT', 3.4028234663852886e+38, 'ab000000ffff7f7f', 10924596235788077905),
    ('FLOAT', 1.401298464324817e-45, 'ab00000001000000', 12478008331234465636),
    ('FLOAT', NAN, 'ab0000000000c07f', 5375195137408432280),
    ('FLOAT', INF, 'ab0000000000807f', 5436556682343521368),
    ('FLOAT', -INF, 'ab000000000080ff', 5436697419831932376),
    ('DOUBLE', 0.0, 'ab000000000000000000000000000000', 12161962213042174405),
    ('DOUBLE', -0.0, 'ab000000000000000000000000000080', 12161821475553763397),
    ('DOUBLE', 0.1, 'ab000000000000009a9999999999b93f', 5737758277723427012),
    ('DOUBLE', -1e-300, 'ab0000000000000059f3f8c21f6ea581', 7489608853646520852),
    ('DOUBLE', 1.7976931348623157e+308, 'ab00000000000000ffffffffffffef7f', 10141994811888423501),
    ('DOUBLE', 5e-324, 'ab000000000000000100000000000000', 9929646806074584996),
    ('DOUBLE', NAN, 'ab00000000000000000000000000f87f', 12292057528377993536),
    ('DOUBLE', INF, 'ab00000000000000000000000000f07f', 12299657352750674168),
    ('DOUBLE', -INF, 'ab00000000000000000000000000f0ff', 12299798090239085176),
    ('STRING', '', 'ab00000000000000', 5558979605539197941),
    ('STRING', 'a', 'ab0000000100000061', 15568114530681347455),
    ('STRING', 'héllo', 'ab0000000600000068c3a96c6c6f', 6888164057268166998),
    ('STRING', '日本語 ✓', 'ab0000000d000000e697a5e69cace8aa9e20e29c93', 10384681162090331431),
    ('STRING', '\x00', 'ab0000000100000000', 15568218984286027500),
    ('STRING', '𝄞', 'ab00000004000000f09d849e', 6512437516112492956),
]

# Strings of every byte length mod 8 (0 to 7, 9) ahead of the fixed
# fields, so each field after them is met at every alignment.
PADDED_VECTORS = [  # (values, payload, key_hash)
    (('', -1.5, -2, 255, 18446744073709551615, True, 'z', 0.5),
     '0000000000000000000000000000f8bffeffff0000000000ffffffffffffffff01000000010000007a0000000000003f',
     42686229778674445),
    (('a', -1.5, -2, 255, 18446744073709551615, True, 'az', 0.5),
     '0100000061000000000000000000f8bffeffff0000000000ffffffffffffffff0100000002000000617a00000000003f',
     11557036149422318551),
    (('ab', -1.5, -2, 255, 18446744073709551615, True, 'baz', 0.5),
     '0200000061620000000000000000f8bffeffff0000000000ffffffffffffffff010000000300000062617a000000003f',
     18028342532958537240),
    (('abc', -1.5, -2, 255, 18446744073709551615, True, 'cbaz', 0.5),
     '0300000061626300000000000000f8bffeffff0000000000ffffffffffffffff01000000040000006362617a0000003f',
     5745626452964608906),
    (('abcd', -1.5, -2, 255, 18446744073709551615, True, 'dcbaz', 0.5),
     '0400000061626364000000000000f8bffeffff0000000000ffffffffffffffff0100000005000000646362617a0000000000003f',
     9828519151354928553),
    (('abcde', -1.5, -2, 255, 18446744073709551615, True, 'edcbaz', 0.5),
     '05000000616263646500000000000000000000000000f8bffeffff0000000000ffffffffffffffff010000000600000065646362617a00000000003f',
     18232099184203456035),
    (('é', -1.5, -2, 255, 18446744073709551615, True, 'éz', 0.5),
     '02000000c3a90000000000000000f8bffeffff0000000000ffffffffffffffff0100000003000000c3a97a000000003f',
     1841604455013390471),
    (('日本', -1.5, -2, 255, 18446744073709551615, True, '本日z', 0.5),
     '06000000e697a5e69cac000000000000000000000000f8bffeffff0000000000ffffffffffffffff0100000007000000e69cace697a57a000000003f',
     923540379834755179),
    (('✓✓✓', -1.5, -2, 255, 18446744073709551615, True, '✓✓✓z', 0.5),
     '09000000e29c93e29c93e29c93000000000000000000f8bffeffff0000000000ffffffffffffffff010000000a000000e29c93e29c93e29c937a00000000003f',
     17498536818341550213),
    (('abcdefg', -1.5, -2, 255, 18446744073709551615, True, 'gfedcbaz', 0.5),
     '07000000616263646566670000000000000000000000f8bffeffff0000000000ffffffffffffffff0100000008000000676665646362617a0000003f',
     10029380818663905430),
]

READING_VECTORS = [  # (values, payload, key_bytes, key_hash)
    ((-32, 0, 1, 0.25, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'),
     'e0ffffff000000000100000000000000000000000000d03f24000000787878787878787878787878787878787878787878787878787878787878787878787878',
     'e0ffffff00000000', 5927242415051651990),
    ((31, 498897, 1099511627776, -10000000000.0, 'label ñ'),
     '1f000000d19c07000000000000010000000000205fa002c2080000006c6162656c20c3b1',
     '1f000000d19c0700', 6930471584374476528),
    ((0, 0, 0, 0.0, ''),
     '00000000000000000000000000000000000000000000000000000000',
     '0000000000000000', 12161962213042174405),
]

# Key fields apart from each other, then two adjacent ones.
SPLIT_VECTORS = [  # (values, payload, key_bytes, key_hash)
    ((-7, 9, 300, 2.5, -(2**40), 5),
     'f9ffffff09002c0100000000000004400000000000ffffff0500',
     'f9ffffff2c010000000000ffffff0500', 14219169079405415926),
    ((0, 255, -1, -0.0, 1, -2),
     '00000000ff00ffff00000000000000800100000000000000feff',
     '00000000ffff0100000000000000feff', 2323271684662376801),
]
KEY_VECTORS = ([(READING_IDL, "Reading", *v) for v in READING_VECTORS]
               + [(SPLIT_IDL, "Split", *v) for v in SPLIT_VECTORS])


def _same(decoded: tuple, expected: tuple) -> bool:
    # repr tells -0.0 from 0.0 and matches NaN with NaN.
    return repr(decoded) == repr(expected)


class TestGoldenBytes:
    @pytest.mark.parametrize("kind, value, payload, handle", KIND_VECTORS)
    def test_every_primitive_kind(self, kind, value, payload, handle):
        descriptor = _kind_type(kind)
        sample = idl.Sample("G", (0xAB, value))
        assert idl.serialize(descriptor, sample).hex() == payload
        assert idl.serialized_size(descriptor, sample) == len(payload) // 2
        assert idl.key_hash(descriptor, sample) == handle
        decoded = idl.deserialize(descriptor, bytes.fromhex(payload))
        assert _same(decoded.values, (0xAB, value))

    @pytest.mark.parametrize("values, payload, handle", PADDED_VECTORS)
    def test_padding_after_strings(self, values, payload, handle):
        descriptor = _type(PADDED_IDL)
        sample = idl.Sample("Padded", values)
        assert idl.serialize(descriptor, sample).hex() == payload
        assert idl.serialized_size(descriptor, sample) == len(payload) // 2
        assert idl.key_hash(descriptor, sample) == handle
        assert _same(idl.deserialize(descriptor, bytes.fromhex(payload)).values, values)

    @pytest.mark.parametrize("source, type_name, values, payload, key, handle", KEY_VECTORS)
    def test_multi_field_keys(self, source, type_name, values, payload, key, handle):
        descriptor = _type(source)
        sample = idl.Sample(type_name, values)
        assert idl.serialize(descriptor, sample).hex() == payload
        assert idl.key_bytes(descriptor, sample).hex() == key
        assert idl.key_hash(descriptor, sample) == handle
        assert idl.key_hash(descriptor, sample, checked=True) == handle
        assert idl.fnv1a_64(bytes.fromhex(key)) == handle
        assert _same(idl.deserialize(descriptor, bytes.fromhex(payload)).values, values)

    def test_equal_descriptors_encode_alike(self):
        first, second = _type(READING_IDL), _type(READING_IDL)
        values, payload, _key, handle = READING_VECTORS[1]
        for descriptor in (first, second, first):
            sample = idl.Sample("Reading", values)
            assert idl.serialize(descriptor, sample).hex() == payload
            assert idl.key_hash(descriptor, sample) == handle


CHECK_ERRORS = [  # (kind, bad v, message)
    ('OCTET', -1, "field 'v' value -1 outside octet range"),
    ('OCTET', 256, "field 'v' value 256 outside octet range"),
    ('SHORT', -32769, "field 'v' value -32769 outside short range"),
    ('SHORT', 32768, "field 'v' value 32768 outside short range"),
    ('UNSIGNED_SHORT', -1, "field 'v' value -1 outside unsigned short range"),
    ('UNSIGNED_SHORT', 65536, "field 'v' value 65536 outside unsigned short range"),
    ('LONG', -2147483649, "field 'v' value -2147483649 outside long range"),
    ('LONG', 2147483648, "field 'v' value 2147483648 outside long range"),
    ('UNSIGNED_LONG', -1, "field 'v' value -1 outside unsigned long range"),
    ('UNSIGNED_LONG', 4294967296, "field 'v' value 4294967296 outside unsigned long range"),
    ('LONG_LONG', -9223372036854775809, "field 'v' value -9223372036854775809 outside long long range"),
    ('LONG_LONG', 9223372036854775808, "field 'v' value 9223372036854775808 outside long long range"),
    ('UNSIGNED_LONG_LONG', -1, "field 'v' value -1 outside unsigned long long range"),
    ('UNSIGNED_LONG_LONG', 18446744073709551616, "field 'v' value 18446744073709551616 outside unsigned long long range"),
    ('LONG', True, "field 'v' expects an integer"),
    ('LONG', 1.0, "field 'v' expects an integer"),
    ('BOOLEAN', 1, "field 'v' expects a boolean"),
    ('BOOLEAN', None, "field 'v' expects a boolean"),
    ('DOUBLE', '1', "field 'v' expects a number"),
    ('FLOAT', True, "field 'v' expects a number"),
    ('STRING', b'x', "field 'v' expects text"),
    ('STRING', 3, "field 'v' expects text"),
    ('OCTET', None, "field 'v' expects an integer"),
    ('UNSIGNED_LONG_LONG', '7', "field 'v' expects an integer"),
]

# (values, type name, outcome of each of FUNCTIONS: (exception, message)
# or None when it succeeds). A float out of range fails only when packed:
# serialize names the field, key_bytes and key_hash pass the struct
# module's error through, serialized_size never packs.
_F_TOO_LARGE = "float too large to pack with f format"
_NOT_A_FLOAT = "required argument is not a float"
_SURROGATE = "'utf-8' codec can't encode character '\\udfff' in position 0: surrogates not allowed"
MIXED_ERRORS = [
    ((1, 1e39, 2.5, "ok", 7), "M",
     (("TypeMismatchError", f"field 'b': {_F_TOO_LARGE}"), None,
      ("OverflowError", _F_TOO_LARGE), ("OverflowError", _F_TOO_LARGE))),
    ((1, 1.5, HUGE, "ok", 7), "M",
     (("TypeMismatchError", f"field 'c': {_NOT_A_FLOAT}"), None, None, None)),
    ((1, -1e39, HUGE, "ok", 7), "M",
     (("TypeMismatchError", f"field 'b': {_F_TOO_LARGE}"), None,
      ("OverflowError", _F_TOO_LARGE), ("OverflowError", _F_TOO_LARGE))),
    ((1, 1e39, 2.5, "\udfff", 7), "M",
     (("TypeMismatchError", f"field 'b': {_F_TOO_LARGE}"), ("UnicodeEncodeError", _SURROGATE),
      ("OverflowError", _F_TOO_LARGE), ("OverflowError", _F_TOO_LARGE))),
    ((1, 1.5, 2.5, "\udfff", 7), "M",
     (("UnicodeEncodeError", _SURROGATE), ("UnicodeEncodeError", _SURROGATE), None, None)),
    ((True, 1e39, 2.5, "ok", 7), "M", (("TypeMismatchError", "field 'a' expects an integer"),) * 4),
    ((1, 1.5, 2.5, "ok"), "M", (("TypeMismatchError", "M: expected 5 values, got 4"),) * 4),
    ((1, 1.5, 2.5, "ok", 7, 8), "M", (("TypeMismatchError", "M: expected 5 values, got 6"),) * 4),
    ((1, 1.5, 2.5, "ok", 7), "Other",
     (("TypeMismatchError", "sample of type 'Other' does not match descriptor 'M'"),) * 4),
]
# An unkeyed type checks its samples alike in all four functions.
UNKEYED_ERRORS = [
    (("x",), "Other", "sample of type 'Other' does not match descriptor 'C'"),
    (("x", 1), "C", "C: expected 1 values, got 2"),
    ((1,), "C", "field 's' expects text"),
]

PADDED_BYTES = "0600000068c3a96c6c6f000000000000000000000000f8bffeffff0000000000070000000000000001000000020000007a7a00000000003f"
MIXED_BYTES = "010000000000c03f0000000000000440020000006f6b07"
PADDED_TRUNCATIONS = [  # (first cut, last cut, offset, reason)
    (0, 3, 0, "truncated before length of field 's'"),
    (4, 9, 4, 'string length 6 exceeds remaining bytes'),
    (10, 23, 16, "truncated in field 'd'"),
    (24, 25, 24, "truncated in field 'h'"),
    (26, 26, 26, "truncated in field 'o'"),
    (27, 39, 32, "truncated in field 'q'"),
    (40, 40, 40, "truncated in field 'b'"),
    (41, 47, 44, "truncated before length of field 't'"),
    (48, 49, 48, 'string length 2 exceeds remaining bytes'),
    (50, 55, 52, "truncated in field 'f'"),
]
MIXED_TRUNCATIONS = [  # (first cut, last cut, offset, reason)
    (0, 3, 0, "truncated in field 'a'"),
    (4, 7, 4, "truncated in field 'b'"),
    (8, 15, 8, "truncated in field 'c'"),
    (16, 19, 16, "truncated before length of field 's'"),
    (20, 21, 20, 'string length 2 exceeds remaining bytes'),
    (22, 22, 22, "truncated in field 'o'"),
]


def _outcome(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


class TestErrors:
    @pytest.mark.parametrize("function", FUNCTIONS)
    @pytest.mark.parametrize("kind, value, message", CHECK_ERRORS)
    def test_check_errors(self, function, kind, value, message):
        descriptor = _kind_type(kind)
        with pytest.raises(idl.TypeMismatchError) as caught:
            getattr(idl, function)(descriptor, idl.Sample("G", (0, value)))
        assert str(caught.value) == message

    @pytest.mark.parametrize("values, type_name, expected", MIXED_ERRORS)
    def test_pack_and_shape_errors(self, values, type_name, expected):
        descriptor = _type(MIXED_IDL)
        sample = idl.Sample(type_name, values)
        got = tuple(_outcome(lambda: getattr(idl, f)(descriptor, sample)) for f in FUNCTIONS)
        assert got == expected

    @pytest.mark.parametrize("values, type_name, message", UNKEYED_ERRORS)
    def test_an_unkeyed_type_checks_alike(self, values, type_name, message):
        descriptor = _type("struct C { string s; };")
        sample = idl.Sample(type_name, values)
        got = tuple(_outcome(lambda: getattr(idl, f)(descriptor, sample)) for f in FUNCTIONS)
        assert got == (("TypeMismatchError", message),) * 4

    def test_pack_errors_are_struct_errors(self):
        # "error" above is struct.error: key_bytes lets it through.
        descriptor = _type("struct K { double k; //@key\n};")
        with pytest.raises(struct.error):
            idl.key_bytes(descriptor, idl.Sample("K", (HUGE,)))

    @pytest.mark.parametrize("source, payload, table", [
        (PADDED_IDL, PADDED_BYTES, PADDED_TRUNCATIONS),
        (MIXED_IDL, MIXED_BYTES, MIXED_TRUNCATIONS),
    ])
    def test_every_truncation(self, source, payload, table):
        descriptor = _type(source)
        data = bytes.fromhex(payload)
        expected = {cut: (offset, reason)
                    for first, last, offset, reason in table
                    for cut in range(first, last + 1)}
        assert sorted(expected) == list(range(len(data)))
        for cut in range(len(data)):
            with pytest.raises(idl.DecodeError) as caught:
                idl.deserialize(descriptor, data[:cut])
            assert (caught.value.offset, caught.value.reason) == expected[cut], cut

    @pytest.mark.parametrize("source, payload, offset, reason", [
        (PADDED_IDL, PADDED_BYTES + "00", 56, "1 trailing bytes"),
        (PADDED_IDL, PADDED_BYTES + "616263", 56, "3 trailing bytes"),
        (MIXED_IDL, MIXED_BYTES + "0102", 23, "2 trailing bytes"),
        (PADDED_IDL, PADDED_BYTES[:16] + "ff" + PADDED_BYTES[18:], 4,
         "field 's' is not valid UTF-8"),
        (PADDED_IDL, "e8030000" + PADDED_BYTES[8:], 4,
         "string length 1000 exceeds remaining bytes"),
    ])
    def test_decode_errors(self, source, payload, offset, reason):
        with pytest.raises(idl.DecodeError) as caught:
            idl.deserialize(_type(source), bytes.fromhex(payload))
        assert (caught.value.offset, caught.value.reason) == (offset, reason)
        assert str(caught.value) == f"offset {offset}: {reason}"


def test_write_checks_the_sample_once(monkeypatch):
    """A sample is checked against its type in the generated ``message``
    and ``pack``, which inline the check, or in
    ``encode_field_by_field``; the key hash gets the values only. A
    write runs ``message`` once, the field-by-field routine never, and
    the key hash does not check: it hashes a sample that no check would
    pass. So the first write of an instance runs ``pack`` once too,
    before the hash, and a later write of it only ``message``."""
    descriptor = _type(READING_IDL)
    codec = descriptor._codec
    calls = []
    for name in ("pack", "message", "key", "encode_field_by_field"):
        def counting(*args, _original=getattr(codec, name), _name=name):
            calls.append((_name, args))
            return _original(*args)
        monkeypatch.setattr(codec, name, counting)
    net = InProcNetwork()
    with DomainParticipant(0, transport=net.attach("solo"),
                           clock=ManualClock(1_000_000_000)) as participant:
        topic = participant.create_topic("readings", descriptor)
        reader = participant.create_datareader(topic)
        writer = participant.create_datawriter(topic)
        values, _payload, _key, handle = READING_VECTORS[1]
        sample = idl.Sample("Reading", values)
        head = (participant.guid.prefix, writer.guid.entity_id)
        for sequence, stamp in ((1, 5), (2, 6)):
            writer.write(sample, source_timestamp_ns=stamp)
            (_sample, info), = reader.take()
            assert info.instance_handle == handle
            message = ("message", (sample, *head, sequence, stamp, handle))
            assert calls == ([("pack", (sample,)), ("key", (values,)), message]
                             if sequence == 1 else [message])
            calls.clear()
    unchecked = idl.Sample("Reading", values[:2] + ("not a stamp", None, b"no label"))
    assert idl.key_hash(descriptor, unchecked, checked=True) == handle


def test_matching_compiles_no_codec():
    """Parsing, topics, endpoints and matching leave a type's codec
    uncompiled; the first write compiles the writer's, and the first
    DATA the reader's participant receives the reader's."""
    net = InProcNetwork()
    types = [_type(READING_IDL), _type(READING_IDL)]
    a, b = (DomainParticipant(0, transport=net.attach(name), clock=ManualClock(1_000_000_000),
                              static_peers=(peer,))
            for name, peer in (("A", "B"), ("B", "A")))
    with a, b:
        writer = a.create_datawriter(a.create_topic("readings", types[0]))
        reader = b.create_datareader(b.create_topic("readings", types[1]))
        for _ in range(3):
            a.spin_once()
            b.spin_once()
        assert writer.matched_readers() == [reader.guid]
        assert ["_codec" in vars(t) for t in types] == [False, False]
        writer.write(idl.Sample("Reading", READING_VECTORS[1][0]))
        assert ["_codec" in vars(t) for t in types] == [True, False]
        b.spin_once()
        assert ["_codec" in vars(t) for t in types] == [True, True]
        assert len(reader.take()) == 1
