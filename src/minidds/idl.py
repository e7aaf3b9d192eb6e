"""Flat-record IDL: parsing, canonical printing, byte-exact serialization,
and instance key hashing.

The accepted grammar is ``struct Name { <kind> <name>; ... };`` with the
eleven primitive kinds below, `//` line comments, and an optional ``//@key``
annotation marking key fields. When no field carries the annotation but a
field is named exactly ``key``, that field is the key. Lexically, blanks
are space, tab, CR and LF; identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``;
a comment that reads ``@key`` once stripped is the annotation, which may
sit before or after its field's ``;``, and any other ``//`` comment is
ignored; any other character is an error. Positions are 1-based, and a
tab counts as one column. Serialization is
little-endian with each primitive aligned to its natural size from offset 0;
strings are a 32-bit byte length plus UTF-8 bytes, aligned to 4 (see
"Payload encoding" in docs/wire.md).

A type's codec is straight-line Python generated from its descriptor,
one struct call per run of fixed-size fields, and compiled when a sample
is first encoded or decoded, never when the type is parsed or matched.
It also packs a write's whole DATA message, head included (see
``_Codec``).
What it cannot take (a wrong shape or value, short or bad bytes) goes to
one field-by-field routine per direction, the only one that raises.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

# Reserved handle for samples of unkeyed types.
UNKEYED_HANDLE = 0

# Builds a record from a tuple of its fields without the Python-level
# ``__new__`` that NamedTuple generates; once per sample made or decoded.
_tuple_new = tuple.__new__


class PrimitiveKind(Enum):
    BOOLEAN = ("boolean", 1, "?")
    OCTET = ("octet", 1, "B")
    SHORT = ("short", 2, "h")
    UNSIGNED_SHORT = ("unsigned short", 2, "H")
    LONG = ("long", 4, "i")
    UNSIGNED_LONG = ("unsigned long", 4, "I")
    LONG_LONG = ("long long", 8, "q")
    UNSIGNED_LONG_LONG = ("unsigned long long", 8, "Q")
    FLOAT = ("float", 4, "f")
    DOUBLE = ("double", 8, "d")
    STRING = ("string", 0, None)  # variable size, 4-byte aligned length

    def __init__(self, keyword: str, size: int, fmt: str | None):
        self.keyword = keyword
        self.size = size
        self.fmt = fmt


_KEYWORD_TO_KIND = {k.keyword: k for k in PrimitiveKind}

_INT_RANGES = {
    PrimitiveKind.OCTET: (0, 2**8 - 1),
    PrimitiveKind.SHORT: (-(2**15), 2**15 - 1),
    PrimitiveKind.UNSIGNED_SHORT: (0, 2**16 - 1),
    PrimitiveKind.LONG: (-(2**31), 2**31 - 1),
    PrimitiveKind.UNSIGNED_LONG: (0, 2**32 - 1),
    PrimitiveKind.LONG_LONG: (-(2**63), 2**63 - 1),
    PrimitiveKind.UNSIGNED_LONG_LONG: (0, 2**64 - 1),
}


@dataclass(frozen=True)
class FieldDescriptor:
    name: str
    kind: PrimitiveKind
    is_key: bool = False


@dataclass(frozen=True)
class TypeDescriptor:
    name: str
    fields: tuple[FieldDescriptor, ...]

    def __post_init__(self):
        if not self.fields:
            raise ValueError(f"type {self.name!r} has no fields")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"type {self.name!r} has duplicate field names")

    @property
    def key_fields(self) -> tuple[FieldDescriptor, ...]:
        return tuple(f for f in self.fields if f.is_key)

    @cached_property
    def _codec(self) -> "_Codec":
        # Compiled on first use and kept on the (immutable) descriptor, so
        # the hot path pays one attribute lookup, not a structural hash.
        return _Codec(self)


class Sample(NamedTuple):
    """A decoded or written sample: an immutable record that equals, and
    unpacks like, the plain tuple ``(type_name, values)``."""
    type_name: str
    values: tuple  # field values in declaration order


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class TypeMismatchError(Exception):
    pass


class DecodeError(Exception):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


# ---------------------------------------------------------------------------
# Parsing

# One match per token, blanks before it included: a line comment (group
# 1 is its text), a punctuation mark or identifier (group 2), or any
# other character but a blank (group 3, an error). Blanks up to the end
# match with no group.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?://([^\n]*)|([{};]|[A-Za-z_][A-Za-z0-9_]*)|([^ \t\r\n])|\Z)")
# Token texts that are not identifiers: punctuation, a key annotation,
# and the end of input.
_NOT_IDENT = frozenset(("{", "}", ";", "//@key", ""))


def parse_idl(source: str) -> list[TypeDescriptor]:
    """Parse IDL source into type descriptors; raises ``ParseError`` with a
    1-based line and column on the first offending token. An unexpected
    character anywhere is reported before any grammar error."""

    def error(offset: int, message: str) -> ParseError:
        return ParseError(source.count("\n", 0, offset) + 1,
                          offset - source.rfind("\n", 0, offset), message)

    # (text, offset) per token; a comment is kept, as "//@key", only when
    # it reads @key once stripped; "" marks the end.
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        if group == 2:
            tokens.append((match[2], match.start(2)))
        elif group == 1:
            if match[1].strip() == "@key":
                tokens.append(("//@key", match.start(1) - 2))
        elif group == 3:
            raise error(match.start(3), f"unexpected character {match[3]!r}")
    tokens.append(("", len(source)))

    types: dict[str, TypeDescriptor] = {}
    i = 0
    while tokens[i][0]:
        text, at = tokens[i]
        if text != "struct":
            raise error(at, f"expected 'struct', got {text!r}")
        type_name, at = tokens[i + 1]
        if type_name in _NOT_IDENT:
            raise error(at, f"expected type name, got {type_name or 'end of input'!r}")
        if type_name in types:
            raise error(at, f"duplicate type name {type_name!r}")
        text, at = tokens[i + 2]
        if text != "{":
            raise error(at, f"expected '{{', got {text or 'end of input'!r}")
        i += 3
        fields: dict[str, tuple[PrimitiveKind, bool]] = {}
        while True:
            word, at = tokens[i]
            if word == "}":
                if not fields:
                    raise error(at, f"type {type_name!r} has no fields")
                break
            if word in _NOT_IDENT:
                raise error(at, f"expected field type, got {word or 'end of input'!r}")
            i += 1
            if word == "unsigned":
                second, second_at = tokens[i]
                if second in _NOT_IDENT:
                    raise error(second_at, "expected 'short' or 'long', got "
                                f"{second or 'end of input'!r}")
                if second != "short" and second != "long":
                    raise error(second_at, "expected 'short' or 'long' after "
                                f"'unsigned', got {second!r}")
                i += 1
                word += " " + second
            if (word == "long" or word == "unsigned long") and tokens[i][0] == "long":
                i += 1
                word += " long"
            kind = _KEYWORD_TO_KIND.get(word)
            if kind is None:
                raise error(at, f"unknown field type {word!r}")
            name, at = tokens[i]
            if name in _NOT_IDENT:
                raise error(at, f"expected field name, got {name or 'end of input'!r}")
            if name in fields:
                raise error(at, f"duplicate field name {name!r}")
            # //@key may come before the semicolon or after it.
            is_key = tokens[i + 1][0] == "//@key"
            i += 1 + is_key
            text, at = tokens[i]
            if text != ";":
                raise error(at, f"expected ';', got {text or 'end of input'!r}")
            i += 1
            if tokens[i][0] == "//@key":
                i += 1
                is_key = True
            fields[name] = (kind, is_key)
        text, at = tokens[i + 1]
        if text != ";":
            raise error(at, f"expected ';', got {text or 'end of input'!r}")
        i += 2
        annotated = any(is_key for _, is_key in fields.values())
        types[type_name] = TypeDescriptor(type_name, tuple(
            FieldDescriptor(name, kind, is_key or (not annotated and name == "key"))
            for name, (kind, is_key) in fields.items()))
    return list(types.values())


def print_idl(types: Iterable[TypeDescriptor]) -> str:
    """Canonical IDL text re-parsable to identical descriptors (key fields
    are always written with an explicit annotation)."""
    chunks = []
    for descriptor in types:
        lines = [f"struct {descriptor.name} {{"]
        for f in descriptor.fields:
            suffix = " //@key" if f.is_key else ""
            lines.append(f"    {f.kind.keyword} {f.name};{suffix}")
        lines.append("};")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# Serialization

def _check_value(kind: PrimitiveKind, value, field_name: str) -> None:
    if kind is PrimitiveKind.BOOLEAN:
        if not isinstance(value, bool):
            raise TypeMismatchError(f"field {field_name!r} expects a boolean")
    elif kind in _INT_RANGES:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeMismatchError(f"field {field_name!r} expects an integer")
        lo, hi = _INT_RANGES[kind]
        if not lo <= value <= hi:
            raise TypeMismatchError(
                f"field {field_name!r} value {value} outside {kind.keyword} range")
    elif kind in (PrimitiveKind.FLOAT, PrimitiveKind.DOUBLE):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatchError(f"field {field_name!r} expects a number")
    elif kind is PrimitiveKind.STRING:
        if not isinstance(value, str):
            raise TypeMismatchError(f"field {field_name!r} expects text")


def make_sample(descriptor: TypeDescriptor, values) -> Sample:
    """Build a sample from a by-name mapping or a positional sequence."""
    if isinstance(values, Sample):
        return values
    if isinstance(values, Mapping):
        codec = descriptor._codec
        if values.keys() != codec.name_set:
            extra = set(values) - codec.name_set
            if extra:
                raise TypeMismatchError(
                    f"{descriptor.name} has no field named {sorted(extra)[0]!r}")
            missing = [name for name in codec.names if name not in values]
            raise TypeMismatchError(
                f"{descriptor.name}: missing value for field {missing[0]!r}")
        ordered = tuple([values[name] for name in codec.names])
    else:
        ordered = tuple(values)
    return _tuple_new(Sample, (descriptor.name, ordered))


def as_dict(descriptor: TypeDescriptor, sample: Sample) -> dict:
    """Field values keyed by name, in declaration order."""
    if len(sample.values) != len(descriptor.fields):
        raise TypeMismatchError(
            f"{descriptor.name}: expected {len(descriptor.fields)} values, "
            f"got {len(sample.values)}")
    return {f.name: v for f, v in zip(descriptor.fields, sample.values)}


_EXACT_TYPE = {kind: int for kind in _INT_RANGES}
_EXACT_TYPE.update({PrimitiveKind.BOOLEAN: bool, PrimitiveKind.FLOAT: float,
                    PrimitiveKind.DOUBLE: float, PrimitiveKind.STRING: str})
_U32 = struct.Struct("<I")
# What the generated code leaves to the field-by-field routines: a wrong
# shape, a value struct cannot pack, bad text, short or long bytes, and
# a string field's value that is no text (key_bytes runs unchecked).
_FALLBACK = (ValueError, TypeError, OverflowError, struct.error, AttributeError)


def _struct(kinds: Sequence[PrimitiveKind], offset: int = 0,
            padded: bool = True) -> struct.Struct:
    """A struct of ``kinds`` in order from ``offset``: each aligned to its
    size when ``padded``, else back to back (key bytes)."""
    fmt = "<"
    for kind in kinds:
        pad = -offset % kind.size if padded else 0
        fmt += "x" * pad + kind.fmt
        offset += pad + kind.size
    return struct.Struct(fmt)


def _runs(fields: Iterable[tuple[int, FieldDescriptor]]) -> list:
    """``(index, field)`` pairs split after each string, as ``(indexes,
    kinds, string)``: the run's fixed-size fields, the kinds one struct
    packs (theirs, then the string's length prefix), and the string's
    index, None in a last run without one."""
    runs, indexes, kinds = [], [], []
    for i, f in fields:
        if f.kind is PrimitiveKind.STRING:
            runs.append((indexes, kinds + [PrimitiveKind.UNSIGNED_LONG], i))
            indexes, kinds = [], []
        else:
            indexes.append(i)
            kinds.append(f.kind)
    if kinds:
        runs.append((indexes, kinds, None))
    return runs


def _generate(descriptor: TypeDescriptor) -> tuple[str, dict]:
    """Source of one type's ``pack``, ``message``, ``unpack``,
    ``key_bytes`` and ``key`` functions, and the namespace they run in.
    The source holds generator-made names (``v2`` is field 2's value,
    ``b2`` its UTF-8 bytes, ``l2`` their length), integer literals, and
    the namespace's constants: ``name``, the first run's ``pack0`` and
    ``unpack0``, ``head0`` (the one-DATA message head of ``wire`` with
    the first run after it) and the ``magic`` and ``version`` it starts
    with, each later run's structs by offset mod 8 (``table1``...), the
    key runs' unpadded ``key0``... No name or value from the descriptor
    is spliced in. ``unpack`` reads the payload in place from
    ``data[s:]``: ``o`` is an offset into ``data``, and ``o - s`` the
    same offset in the payload, which fixes the alignment."""
    # Here, not at the top: wire's package imports dcps, which imports idl.
    from minidds.rtps import wire

    fields = list(enumerate(descriptor.fields))
    every = "".join(f"v{i}, " for i, _ in fields)
    test = " and ".join(
        f"type(v{i}) is {_EXACT_TYPE[f.kind].__name__}" + (
            " and {} <= v{} <= {}".format(_INT_RANGES[f.kind][0], i, _INT_RANGES[f.kind][1])
            if f.kind in _INT_RANGES else "")
        for i, f in fields)
    namespace: dict = {"name": descriptor.name, "Fallback": _FALLBACK,
                       "magic": wire.MAGIC, "version": wire.VERSION}
    encode = [f"b{i} = v{i}.encode()" for i, f in fields if f.kind is PrimitiveKind.STRING]
    unpack, pieces = [], []
    for n, (indexes, kinds, string) in enumerate(_runs(fields)):
        tail = [] if string is None else [string]
        values = ", ".join([f"v{i}" for i in indexes] + [f"len(b{i})" for i in tail])
        targets = "".join([f"v{i}, " for i in indexes] + [f"l{i}, " for i in tail])
        if n == 0:  # at offset 0
            first = _struct(kinds)
            head = struct.Struct(wire.DATA_MESSAGE_FORMAT + first.format[1:])
            namespace.update(pack0=first.pack, unpack0=first.unpack_from, head0=head.pack)
            pieces.append(f"pack0({values})")
            first_values = values
            unpack.append(f"{targets}= unpack0(data, s)")
            start, at = str(first.size), f"s + {first.size}"
        else:  # at offset o, just past a string
            namespace[f"table{n}"] = tuple(_struct(kinds, r) for r in range(8))
            encode += [f"o = {end}", f"t{n} = table{n}[o & 7]"]
            pieces.append(f"t{n}.pack({values})")
            unpack += [f"t{n} = table{n}[o - s & 7]", f"{targets}= t{n}.unpack_from(data, o)"]
            start = at = f"o + t{n}.size"
        if string is None:
            end = start
            unpack.append(f"o = {at}")
        else:
            pieces.append(f"b{string}")
            end = f"{start} + len(b{string})"
            unpack += [f"a = {at}", f"o = a + l{string}", f"v{string} = data[a:o].decode()"]
    check = ["if sample.type_name == name:", f"    {every}= sample.values", f"    if {test}:",
             *(f"        {line}" for line in encode)]
    pack = check + [f"        return {' + '.join(pieces)}"]
    # The message head's fields in wire's order, the payload length n
    # known before its bytes: no reader (0 addresses every matched
    # reader), and a body of the DATA head and the payload.
    body_head = wire.DATA_PAYLOAD_START - wire.HEADER_LEN - wire.SUBMSG_HEADER_LEN
    head = (f"head0(magic, version, prefix, {wire.KIND_DATA}, 0, n + {body_head}, "
            f"writer_eid, 0, seq, ts, handle, n, {first_values})")
    message = check + [f"        n = {end}", f"        if n <= {wire.MAX_PAYLOAD}:",
                       f"            return {' + '.join([head, *pieces[1:]])}"]
    unpack += ["if o == len(data):", f"    return ({every})"]

    key_bytes, key = ['return b""'], [f"return {UNKEYED_HANDLE}"]
    if descriptor.key_fields:
        key_fields = [(i, f) for i, f in fields if f.is_key]
        pieces = []
        for n, (indexes, kinds, string) in enumerate(_runs(key_fields)):
            namespace[f"key{n}"] = _struct(kinds, padded=False).pack
            tail = [] if string is None else [string]
            values = ", ".join([f"v{i}" for i in indexes] + [f"len(b{i})" for i in tail])
            pieces += [f"key{n}({values})"] + [f"b{i}" for i in tail]
        key_bytes = [f"{every}= values",
                     *(f"b{i} = v{i}.encode()" for i, f in key_fields
                       if f.kind is PrimitiveKind.STRING),
                     f"return {' + '.join(pieces)}"]
        # A None from key_bytes fails the loop, so key returns None too.
        key = [f"h = {FNV64_OFFSET}",
               "for c in key_bytes(values):",
               f"    h = (h ^ c) * {FNV64_PRIME} & {2**64 - 1}",
               "return h"]
    # Each function returns None on any failure.
    source = ""
    for signature, body in (("pack(sample)", pack),
                            ("message(sample, prefix, writer_eid, seq, ts, handle)", message),
                            ("unpack(data, s)", unpack),
                            ("key_bytes(values)", key_bytes), ("key(values)", key)):
        source += "".join([f"def {signature}:\n    try:\n",
                           *(f"        {line}\n" for line in body),
                           "    except Fallback:\n        pass\n\n"])
    return source, namespace


class _Codec:
    """One type's serialization: straight-line code generated and
    compiled when the type is first encoded or decoded, then kept on the
    descriptor.

    ``pack(sample)`` checks the sample with one expression of exact
    types and integer ranges, then packs each run of fixed-size fields
    with the next string's length prefix in one struct call; past a
    string it picks the run's struct by offset mod 8. ``message(sample,
    prefix, writer_eid, seq, ts, handle)`` runs the same check and
    returns the datagram of one DATA carrying the payload, addressed to
    every matched reader: the bytes ``wire.pack_data_message`` packs
    from the payload, with the message head (``wire``'s format) and the
    payload's first run packed by one struct call. It is what a write
    sends; a payload past ``wire.MAX_PAYLOAD`` makes it return None.
    ``unpack(data, s)`` mirrors ``pack`` on the payload ``data[s:]``,
    read in place, and accepts only the exact payload length.
    ``key_bytes(values)`` packs the key fields, unpadded (``b""`` for an
    unkeyed type), and ``key(values)`` folds FNV-1a over those bytes (0
    for an unkeyed type), so a table keyed by the bytes and the handle
    share one definition of them; neither checks. Each returns None on
    any failure, and the caller hands the sample or payload to
    ``encode_field_by_field`` or ``decode_field_by_field``: they take
    what the exact types leave out (an int for a double, an int
    subclass) and raise every error.
    """

    def __init__(self, descriptor: TypeDescriptor):
        fields = descriptor.fields
        self.name = descriptor.name
        self.fields = fields
        self.names = tuple(f.name for f in fields)
        self.name_set = frozenset(self.names)
        self.source, namespace = _generate(descriptor)
        exec(compile(self.source, "<idl codec>", "exec"), namespace)
        self.pack, self.message = namespace["pack"], namespace["message"]
        self.unpack = namespace["unpack"]
        self.key_bytes, self.key = namespace["key_bytes"], namespace["key"]

    def encode_field_by_field(self, sample: Sample, mode: str = "payload"):
        """Check ``sample`` and encode it one field at a time: the payload
        (``"payload"``), its length only (``"size"``, which packs zeros
        in place of the numbers), or the key fields unpadded (``"key"``).
        A float out of its kind's range names its field in a payload and
        passes the struct module's error through in a key."""
        if sample.type_name != self.name:
            raise TypeMismatchError(
                f"sample of type {sample.type_name!r} does not match descriptor {self.name!r}")
        values = sample.values
        if len(values) != len(self.fields):
            raise TypeMismatchError(
                f"{self.name}: expected {len(self.fields)} values, got {len(values)}")
        for f, value in zip(self.fields, values):
            _check_value(f.kind, value, f.name)
        padded = mode != "key"
        out = bytearray()
        for f, value in zip(self.fields, values):
            if not (padded or f.is_key):
                continue
            if f.kind is PrimitiveKind.STRING:
                encoded = value.encode("utf-8")
                out += bytes(-len(out) & 3 if padded else 0) + _U32.pack(len(encoded)) + encoded
                continue
            out += bytes(-len(out) % f.kind.size if padded else 0)
            try:
                out += struct.pack("<" + f.kind.fmt, 0 if mode == "size" else value)
            except (struct.error, OverflowError) as exc:
                if not padded:
                    raise
                raise TypeMismatchError(f"field {f.name!r}: {exc}") from None
        return len(out) if mode == "size" else bytes(out)

    def decode_field_by_field(self, data: bytes) -> tuple:
        values: list = []
        offset = 0
        n = len(data)
        for f in self.fields:
            if f.kind is PrimitiveKind.STRING:
                offset += -offset & 3
                if offset + 4 > n:
                    raise DecodeError(offset, f"truncated before length of field {f.name!r}")
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                if offset + length > n:
                    raise DecodeError(offset, f"string length {length} exceeds remaining bytes")
                try:
                    values.append(data[offset:offset + length].decode("utf-8"))
                except UnicodeDecodeError:
                    raise DecodeError(offset, f"field {f.name!r} is not valid UTF-8") from None
                offset += length
            else:
                offset += -offset % f.kind.size
                if offset + f.kind.size > n:
                    raise DecodeError(offset, f"truncated in field {f.name!r}")
                values += struct.unpack_from("<" + f.kind.fmt, data, offset)
                offset += f.kind.size
        if offset != n:
            raise DecodeError(offset, f"{n - offset} trailing bytes")
        return tuple(values)


def serialize(descriptor: TypeDescriptor, sample: Sample) -> bytes:
    """Encode a sample; equal samples yield equal bytes."""
    codec = descriptor._codec
    data = codec.pack(sample)
    return codec.encode_field_by_field(sample) if data is None else data


def serialized_size(descriptor: TypeDescriptor, sample: Sample) -> int:
    """Byte length ``serialize`` would produce. A sample it would refuse
    only for a float out of range is measured without packing."""
    codec = descriptor._codec
    data = codec.pack(sample)
    return codec.encode_field_by_field(sample, "size") if data is None else len(data)


def deserialize(descriptor: TypeDescriptor, data: bytes, start: int = 0) -> Sample:
    """Decode the payload ``data[start:]``, bytes produced by
    ``serialize``, in place; trailing bytes are an error. A
    ``DecodeError`` offset counts from ``start``, as if the payload had
    been sliced out first."""
    codec = descriptor._codec
    values = codec.unpack(data, start)
    if values is None:
        values = codec.decode_field_by_field(data[start:])
    return _tuple_new(Sample, (descriptor.name, values))


# ---------------------------------------------------------------------------
# Instance keys

def fnv1a_64(data: bytes) -> int:
    value = FNV64_OFFSET
    for byte in data:
        value = ((value ^ byte) * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def key_bytes(descriptor: TypeDescriptor, sample: Sample) -> bytes:
    """Key-field encodings concatenated in declaration order, unpadded."""
    return descriptor._codec.encode_field_by_field(sample, "key")


def key_hash(descriptor: TypeDescriptor, sample: Sample, *, checked: bool = False) -> int:
    """64-bit instance handle. Unkeyed types map every sample to handle 0;
    keyed samples hash their key bytes, so equal keys share a handle.
    ``checked`` says the caller has already checked the sample against
    the descriptor (``serialize`` does), so it is not checked again;
    unchecked, the sample is checked as ``key_bytes`` checks it."""
    codec = descriptor._codec
    if checked:
        handle = codec.key(sample.values)
        if handle is not None:
            return handle
    key = codec.encode_field_by_field(sample, "key")
    return fnv1a_64(key) if descriptor.key_fields else UNKEYED_HANDLE
