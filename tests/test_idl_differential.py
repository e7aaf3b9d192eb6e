"""The generated codecs against a field-by-field reference.

``reference_encode``, ``reference_key_hash`` and ``reference_decode``
restate "Payload encoding" in docs/wire.md one field at a time, with
the decode errors the golden vectors in test_idl_codec.py record. Seeded
random types of 1 to 8 fields over all eleven kinds, in the shapes that
change the generated code (a string first, last, next to another, only
strings, key fields apart, no key), must give the same payloads,
instance handles and decoded values, and the same error for every
truncated payload, a corrupted UTF-8 byte and a trailing byte.

Decoding in place, ``deserialize(d, data, start)``, must give what
decoding the slice ``data[start:]`` gives: the same values or the same
``DecodeError``, offset included, for the same payloads and for random
byte mutations, behind prefixes of every length mod 8 and of a DATA
message's head.
"""

import random
import struct

import pytest

from minidds import idl
from minidds.rtps import wire

KINDS = list(idl.PrimitiveKind)
STRING = idl.PrimitiveKind.STRING
SHAPES = ("any", "string first", "string last", "adjacent strings", "only strings",
          "keys apart", "no key")
TYPES_PER_SHAPE = 12
SAMPLES_PER_TYPE = 3
TEXT = "aé日𝄞 z\x00"


# ---------------------------------------------------------------------------
# The reference

def reference_encode(descriptor: idl.TypeDescriptor, values: tuple) -> bytes:
    out = b""
    for f, value in zip(descriptor.fields, values):
        if f.kind is STRING:
            text = value.encode("utf-8")
            out += bytes(-len(out) % 4) + struct.pack("<I", len(text)) + text
        else:
            out += bytes(-len(out) % f.kind.size) + struct.pack("<" + f.kind.fmt, value)
    return out


def reference_key_hash(descriptor: idl.TypeDescriptor, values: tuple) -> int:
    if not descriptor.key_fields:
        return 0
    key = b""
    for f, value in zip(descriptor.fields, values):
        if f.is_key and f.kind is STRING:
            text = value.encode("utf-8")
            key += struct.pack("<I", len(text)) + text
        elif f.is_key:
            key += struct.pack("<" + f.kind.fmt, value)
    handle = 0xCBF29CE484222325
    for byte in key:
        handle = ((handle ^ byte) * 0x100000001B3) % 2**64
    return handle


def reference_decode(descriptor: idl.TypeDescriptor, data: bytes) -> tuple:
    values = []
    offset = 0
    for f in descriptor.fields:
        if f.kind is STRING:
            offset += -offset % 4
            if offset + 4 > len(data):
                raise idl.DecodeError(offset, f"truncated before length of field {f.name!r}")
            (length,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if offset + length > len(data):
                raise idl.DecodeError(offset, f"string length {length} exceeds remaining bytes")
            try:
                values.append(data[offset:offset + length].decode("utf-8"))
            except UnicodeDecodeError:
                raise idl.DecodeError(offset, f"field {f.name!r} is not valid UTF-8") from None
            offset += length
        else:
            offset += -offset % f.kind.size
            if offset + f.kind.size > len(data):
                raise idl.DecodeError(offset, f"truncated in field {f.name!r}")
            values += struct.unpack_from("<" + f.kind.fmt, data, offset)
            offset += f.kind.size
    if offset != len(data):
        raise idl.DecodeError(offset, f"{len(data) - offset} trailing bytes")
    return tuple(values)


# ---------------------------------------------------------------------------
# Random types and values

def _random_type(rng: random.Random, shape: str, number: int) -> idl.TypeDescriptor:
    n = rng.randint(3 if shape == "keys apart" else 2 if shape == "adjacent strings" else 1, 8)
    kinds = [rng.choice(KINDS) for _ in range(n)]
    if shape == "string first":
        kinds[0] = STRING
    elif shape == "string last":
        kinds[-1] = STRING
    elif shape == "adjacent strings":
        i = rng.randrange(n - 1)
        kinds[i] = kinds[i + 1] = STRING
    elif shape == "only strings":
        kinds = [STRING] * n
    if shape == "no key":
        keys = set()
    elif shape == "keys apart":
        first = rng.randrange(n - 2)
        keys = {first, rng.randrange(first + 2, n)}
    else:
        keys = {i for i in range(n) if rng.random() < 0.3}
    fields = tuple(idl.FieldDescriptor(f"f{i}", kind, i in keys) for i, kind in enumerate(kinds))
    return idl.TypeDescriptor(f"T{number}", fields)


def _random_value(rng: random.Random, kind: idl.PrimitiveKind):
    if kind is idl.PrimitiveKind.BOOLEAN:
        return rng.random() < 0.5
    if kind is STRING:
        return "".join(rng.choice(TEXT) for _ in range(rng.choice([0, 1, 2, 3, 5, 8, 13])))
    if kind is idl.PrimitiveKind.FLOAT:  # one a float32 holds exactly
        return struct.unpack("<f", struct.pack("<f", rng.uniform(-1e6, 1e6)))[0]
    if kind is idl.PrimitiveKind.DOUBLE:
        return rng.choice([0.0, -0.0, rng.uniform(-1e300, 1e300), rng.random()])
    bits = kind.size * 8
    lo, hi = (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1) if kind.fmt.islower() else (0, 2**bits - 1)
    return rng.choice([lo, hi, 0, rng.randint(lo, hi)])


def _types() -> list[idl.TypeDescriptor]:
    rng = random.Random(20101)
    return [_random_type(rng, shape, i * len(SHAPES) + j)
            for i in range(TYPES_PER_SHAPE) for j, shape in enumerate(SHAPES)]


DIFFERENTIAL_TYPES = _types()


def _error(call):
    try:
        return call()
    except idl.DecodeError as exc:
        return type(exc), str(exc), exc.offset, exc.reason


def _same(decoded, expected) -> bool:
    # repr tells -0.0 from 0.0.
    return repr(decoded) == repr(expected)


# ---------------------------------------------------------------------------
# The comparison

def test_the_random_types_cover_every_shape_and_kind():
    kinds = {f.kind for t in DIFFERENTIAL_TYPES for f in t.fields}
    assert kinds == set(KINDS)
    for descriptor in DIFFERENTIAL_TYPES:
        assert 1 <= len(descriptor.fields) <= 8


@pytest.mark.parametrize("descriptor", DIFFERENTIAL_TYPES, ids=lambda t: t.name)
def test_the_generated_codec_matches_the_reference(descriptor):
    rng = random.Random(descriptor.name)
    for _ in range(SAMPLES_PER_TYPE):
        values = tuple(_random_value(rng, f.kind) for f in descriptor.fields)
        sample = idl.Sample(descriptor.name, values)
        payload = idl.serialize(descriptor, sample)
        assert payload == reference_encode(descriptor, values)
        assert idl.serialized_size(descriptor, sample) == len(payload)
        handle = reference_key_hash(descriptor, values)
        assert idl.key_hash(descriptor, sample) == handle
        assert idl.key_hash(descriptor, sample, checked=True) == handle
        decoded = idl.deserialize(descriptor, payload)
        assert decoded.type_name == descriptor.name and _same(decoded.values, values)

        for cut in range(len(payload)):
            truncated = payload[:cut]
            expected = _error(lambda: reference_decode(descriptor, truncated))
            assert _error(lambda: idl.deserialize(descriptor, truncated)) == expected, cut
        trailing = payload + b"\x00"
        assert _error(lambda: idl.deserialize(descriptor, trailing)) == _error(
            lambda: reference_decode(descriptor, trailing))
        text = [i for i, v in enumerate(values) if isinstance(v, str) and v]
        if text:
            # The first byte of a non-empty string's text: 0xff is never UTF-8.
            i = rng.choice(text)
            start = len(reference_encode(descriptor, values[:i] + ("",)))
            corrupt = payload[:start] + b"\xff" + payload[start + 1:]
            expected = _error(lambda: reference_decode(descriptor, corrupt))
            assert expected[3] == f"field {descriptor.fields[i].name!r} is not valid UTF-8"
            assert _error(lambda: idl.deserialize(descriptor, corrupt)) == expected


@pytest.mark.parametrize("descriptor", DIFFERENTIAL_TYPES, ids=lambda t: t.name)
def test_decoding_in_place_matches_decoding_the_slice(descriptor):
    rng = random.Random("in place " + descriptor.name)
    for _ in range(SAMPLES_PER_TYPE):
        values = tuple(_random_value(rng, f.kind) for f in descriptor.fields)
        payload = idl.serialize(descriptor, idl.Sample(descriptor.name, values))
        cases = [payload[:cut] for cut in range(len(payload) + 1)] + [payload + b"\x00"]
        for _ in range(16):
            mutated = bytearray(payload)
            for _ in range(rng.choice((1, 1, 2, 4))):
                if mutated:
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            cases.append(bytes(mutated))
        text = [i for i, v in enumerate(values) if isinstance(v, str) and v]
        for i in text:
            start = len(reference_encode(descriptor, values[:i] + ("",)))
            for bad in (b"\xff", b"\xc3", b"\x80"):  # never UTF-8, a cut pair, a stray tail
                cases.append(payload[:start] + bad + payload[start + 1:])
        for data in cases:
            for start in (rng.randrange(8), wire.DATA_PAYLOAD_START):
                whole = bytes(rng.randrange(256) for _ in range(start)) + data
                in_place = _error(lambda: idl.deserialize(descriptor, whole, start))
                sliced = _error(lambda: idl.deserialize(descriptor, whole[start:]))
                assert repr(in_place) == repr(sliced), (data, start)
                assert repr(sliced) == repr(_error(lambda: idl.deserialize(descriptor, data)))
    # Past the end is an empty payload.
    assert _error(lambda: idl.deserialize(descriptor, payload, len(payload) + 3)) == _error(
        lambda: idl.deserialize(descriptor, b""))


def test_names_that_are_not_identifiers_stay_out_of_the_source():
    odd = "x'); import os; ('"
    descriptor = idl.TypeDescriptor(odd, (
        idl.FieldDescriptor(odd, idl.PrimitiveKind.LONG, is_key=True),
        idl.FieldDescriptor("a b\n", STRING, is_key=True),
        idl.FieldDescriptor("{v}", idl.PrimitiveKind.DOUBLE),
    ))
    values = (-5, "héllo", 2.5)
    sample = idl.Sample(odd, values)
    payload = idl.serialize(descriptor, sample)
    assert payload == reference_encode(descriptor, values)
    assert idl.deserialize(descriptor, payload) == sample
    assert idl.key_hash(descriptor, sample) == reference_key_hash(descriptor, values)
    source = descriptor._codec.source
    assert all(text not in source for text in (odd, "import", "a b", "{v}", "'", '"'))

    with pytest.raises(idl.TypeMismatchError, match="^field 'a b\\\\n' expects text$"):
        idl.serialize(descriptor, idl.Sample(odd, (-5, 7, 2.5)))
    with pytest.raises(idl.TypeMismatchError) as caught:
        idl.serialize(descriptor, idl.Sample(odd, (2**31, "", 2.5)))
    assert str(caught.value) == f"field {odd!r} value 2147483648 outside long range"
    with pytest.raises(idl.DecodeError) as caught:
        idl.deserialize(descriptor, payload[:2])
    assert caught.value.reason == f"truncated in field {odd!r}"
    with pytest.raises(idl.DecodeError) as caught:
        idl.deserialize(descriptor, payload[:8] + b"\xff" + payload[9:])
    assert caught.value.reason == "field 'a b\\n' is not valid UTF-8"


# ---------------------------------------------------------------------------
# The codec's DATA message against wire.pack_data_message

PREFIX = bytes(range(1, 13))
U32, U64 = 2**32 - 1, 2**64 - 1
# (writer entity id, sequence, source timestamp, instance handle): zero,
# and at the bounds of their u32, u64, i64 and u64.
HEADS = [(0, 0, 0, 0), (U32, U64, -2**63, U64), (U32, U64, 2**63 - 1, U64)]


def _expected_message(descriptor, sample, head):
    """The datagram a write of ``sample`` sent before the codec packed
    it: ``serialize``, the size check, then ``pack_data_message``; or the
    error it raised, as (type, text)."""
    writer_eid, seq, ts, handle = head
    try:
        payload = idl.serialize(descriptor, sample)
    except Exception as exc:
        return type(exc), str(exc)
    if len(payload) > wire.MAX_PAYLOAD:
        return "too large"
    return wire.pack_data_message(PREFIX, writer_eid, 0, seq, ts, handle, payload)


@pytest.mark.parametrize("descriptor", DIFFERENTIAL_TYPES, ids=lambda t: t.name)
def test_the_codec_packs_the_message_the_packer_packs(descriptor):
    codec = descriptor._codec
    rng = random.Random("message " + descriptor.name)
    for _ in range(SAMPLES_PER_TYPE):
        values = tuple(_random_value(rng, f.kind) for f in descriptor.fields)
        sample = idl.Sample(descriptor.name, values)
        payload = reference_encode(descriptor, values)
        for head in HEADS:
            writer_eid, seq, ts, handle = head
            assert codec.message(sample, PREFIX, *head) == wire.pack_data_message(
                PREFIX, writer_eid, 0, seq, ts, handle, payload)


@pytest.mark.parametrize("descriptor", [t for t in DIFFERENTIAL_TYPES
                                        if any(f.kind is STRING for f in t.fields)],
                         ids=lambda t: t.name)
def test_the_largest_payload_is_packed_and_one_past_it_is_not(descriptor):
    """The last string grows until the payload passes wire.MAX_PAYLOAD:
    the largest sample that fits packs as before, the next is None."""
    codec = descriptor._codec
    rng = random.Random("largest " + descriptor.name)
    values = [_random_value(rng, f.kind) for f in descriptor.fields]
    last = max(i for i, f in enumerate(descriptor.fields) if f.kind is STRING)

    def grown(length):
        values[last] = "x" * length
        return idl.Sample(descriptor.name, tuple(values))

    low, high = 0, wire.MAX_PAYLOAD  # fits, does not fit
    while high - low > 1:
        middle = (low + high) // 2
        fits = len(reference_encode(descriptor, grown(middle).values)) <= wire.MAX_PAYLOAD
        low, high = (middle, high) if fits else (low, middle)
    for head in HEADS:
        largest = codec.message(grown(low), PREFIX, *head)
        assert largest == _expected_message(descriptor, grown(low), head)
        assert len(largest) > wire.MAX_DATAGRAM - 8
        assert codec.message(grown(high), PREFIX, *head) is None
        assert _expected_message(descriptor, grown(high), head) == "too large"


class _Int(int):
    pass


def _fallbacks(descriptor, values):
    """Samples the generated code leaves to the field-by-field routine,
    one field replaced in each: values it takes (an int for a float, an
    int subclass) and values it refuses."""
    bad = {idl.PrimitiveKind.BOOLEAN: [1, None],
           idl.PrimitiveKind.FLOAT: [3, True, 1e300, "1"],
           idl.PrimitiveKind.DOUBLE: [3, True, _Int(-2), None],
           STRING: [b"x", 7, "\ud800"]}
    for i, f in enumerate(descriptor.fields):
        if f.kind in bad:
            replacements = bad[f.kind]
        else:
            lo, hi = idl._INT_RANGES[f.kind]
            replacements = [True, _Int(values[i]), hi + 1, lo - 1, 2.0]
        for value in replacements:
            yield values[:i] + (value,) + values[i + 1:]
    yield values[:-1]
    yield values + (0,)


@pytest.mark.parametrize("descriptor", DIFFERENTIAL_TYPES, ids=lambda t: t.name)
def test_a_sample_the_codec_leaves_out_is_written_as_before(descriptor):
    """For each such sample the codec's message is None, and a write sends
    the bytes it sent before or raises the error it raised before,
    without using a sequence."""
    from minidds import qos
    from minidds.clock import ManualClock
    from minidds.dcps.participant import DomainParticipant
    from minidds.rtps.transport import InProcNetwork

    codec = descriptor._codec
    rng = random.Random("fallback " + descriptor.name)
    values = tuple(_random_value(rng, f.kind) for f in descriptor.fields)
    cached = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
              qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)]
    with DomainParticipant(0, transport=InProcNetwork().attach("solo"),
                           clock=ManualClock(1_000_000_000)) as participant:
        writer = participant.create_datawriter(
            participant.create_topic("t", descriptor), cached)
        prefix, writer_eid = participant.guid.prefix, writer.guid.entity_id
        for shaped in _fallbacks(descriptor, values):
            sample = idl.Sample(descriptor.name, shaped)
            sequence = writer.session.last_sequence + 1
            try:
                handle = reference_key_hash(descriptor, shaped)
            except Exception:
                handle = None  # the write refuses the sample before it hashes
            head = (writer_eid, sequence, 5, handle)
            assert codec.message(sample, prefix, *head) is None, shaped
            expected = _expected_message(descriptor, sample, head)
            expected = expected.replace(PREFIX, prefix, 1) if type(expected) is bytes else expected
            try:
                written = writer.write(sample, source_timestamp_ns=5)
            except Exception as exc:
                assert (type(exc), str(exc)) == expected, shaped
                assert writer.session.last_sequence == sequence - 1
            else:
                assert written == sequence
                assert writer.history.by_seq[sequence][2] == expected, shaped
