"""Flat-record IDL: parsing, canonical printing, byte-exact serialization,
and instance key hashing.

The accepted grammar is ``struct Name { <kind> <name>; ... };`` with the
eleven primitive kinds below, `//` line comments, and an optional ``//@key``
annotation marking key fields. When no field carries the annotation but a
field is named exactly ``key``, that field is the key. Serialization is
little-endian with each primitive aligned to its natural size from offset 0;
strings are a 32-bit byte length plus UTF-8 bytes, aligned to 4 (see
"Payload encoding" in docs/wire.md).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

# Reserved handle for samples of unkeyed types.
UNKEYED_HANDLE = 0


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


@dataclass(frozen=True)
class Sample:
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
# Lexer

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, PUNCT, KEY_ANNOTATION, EOF
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "/":
            if i + 1 < n and source[i + 1] == "/":
                j = source.find("\n", i)
                if j == -1:
                    j = n
                comment = source[i + 2:j].strip()
                if comment == "@key":
                    tokens.append(_Token("KEY_ANNOTATION", "//@key", line, col))
                col += j - i
                i = j
                continue
            raise ParseError(line, col, "unexpected character '/'")
        if ch in "{};":
            tokens.append(_Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        match = IDENT_RE.match(source, i)
        if match:
            text = match.group(0)
            tokens.append(_Token("IDENT", text, line, col))
            i = match.end()
            col += len(text)
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> ParseError:
        return ParseError(tok.line, tok.column, message)

    def expect_punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok.kind != "PUNCT" or tok.text != ch:
            raise self.error(tok, f"expected {ch!r}, got {tok.text or 'end of input'!r}")
        return tok

    def expect_ident(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "IDENT":
            raise self.error(tok, f"expected {what}, got {tok.text or 'end of input'!r}")
        return tok

    def parse_unit(self) -> list[TypeDescriptor]:
        types: list[TypeDescriptor] = []
        seen: set[str] = set()
        while self.peek().kind != "EOF":
            tok = self.expect_ident("'struct'")
            if tok.text != "struct":
                raise self.error(tok, f"expected 'struct', got {tok.text!r}")
            name_tok = self.expect_ident("type name")
            if name_tok.text in seen:
                raise self.error(name_tok, f"duplicate type name {name_tok.text!r}")
            seen.add(name_tok.text)
            descriptor = self.parse_struct_body(name_tok.text)
            types.append(descriptor)
        return types

    def parse_struct_body(self, type_name: str) -> TypeDescriptor:
        self.expect_punct("{")
        raw_fields: list[tuple[str, PrimitiveKind, bool]] = []
        names: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text == "}":
                if not raw_fields:
                    raise self.error(tok, f"type {type_name!r} has no fields")
                self.next()
                break
            kind = self.parse_kind()
            name_tok = self.expect_ident("field name")
            if name_tok.text in names:
                raise self.error(name_tok, f"duplicate field name {name_tok.text!r}")
            names.add(name_tok.text)
            is_key = False
            if self.peek().kind == "KEY_ANNOTATION":
                self.next()
                is_key = True
            self.expect_punct(";")
            if self.peek().kind == "KEY_ANNOTATION":
                self.next()
                is_key = True
            raw_fields.append((name_tok.text, kind, is_key))
        self.expect_punct(";")

        annotated = any(is_key for _, _, is_key in raw_fields)
        fields = tuple(
            FieldDescriptor(
                name, kind,
                is_key or (not annotated and name == "key"),
            )
            for name, kind, is_key in raw_fields
        )
        return TypeDescriptor(type_name, fields)

    def parse_kind(self) -> PrimitiveKind:
        tok = self.expect_ident("field type")
        word = tok.text
        if word == "unsigned":
            second = self.expect_ident("'short' or 'long'")
            if second.text == "short":
                return PrimitiveKind.UNSIGNED_SHORT
            if second.text == "long":
                if self.peek().kind == "IDENT" and self.peek().text == "long":
                    self.next()
                    return PrimitiveKind.UNSIGNED_LONG_LONG
                return PrimitiveKind.UNSIGNED_LONG
            raise self.error(second, f"expected 'short' or 'long' after 'unsigned', got {second.text!r}")
        if word == "long":
            if self.peek().kind == "IDENT" and self.peek().text == "long":
                self.next()
                return PrimitiveKind.LONG_LONG
            return PrimitiveKind.LONG
        kind = _KEYWORD_TO_KIND.get(word)
        if kind is None:
            raise self.error(tok, f"unknown field type {word!r}")
        return kind


def parse_idl(source: str) -> list[TypeDescriptor]:
    """Parse IDL source into type descriptors; raises ``ParseError`` with a
    1-based line and column on the first offending token."""
    return _Parser(_tokenize(source)).parse_unit()


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
        names = {f.name for f in descriptor.fields}
        extra = set(values) - names
        if extra:
            raise TypeMismatchError(
                f"{descriptor.name} has no field named {sorted(extra)[0]!r}")
        missing = [f.name for f in descriptor.fields if f.name not in values]
        if missing:
            raise TypeMismatchError(
                f"{descriptor.name}: missing value for field {missing[0]!r}")
        ordered = tuple(values[f.name] for f in descriptor.fields)
    else:
        ordered = tuple(values)
    return Sample(descriptor.name, ordered)


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
_PADS = tuple(bytes(n) for n in range(4))


def _run_structs(kinds: Sequence[PrimitiveKind], padded: bool) -> tuple[struct.Struct, ...]:
    """Structs for a run of fixed-size fields. Padded, there is one per
    start offset mod 8, each holding the alignment padding before and
    between the fields at that offset; unpadded (key bytes), just one."""
    structs = []
    for residue in range(8 if padded else 1):
        fmt, offset = "<", residue
        for kind in kinds:
            pad = -offset % kind.size if padded else 0
            fmt += "x" * pad + kind.fmt
            offset += pad + kind.size
        structs.append(struct.Struct(fmt))
    return tuple(structs)


def _segments(fields: Iterable[tuple[int, FieldDescriptor]], padded: bool) -> tuple:
    """In declaration order: ``(index, None)`` per string field, and
    ``(slice, structs)`` per run of fixed-size fields that are adjacent
    in the type."""
    runs: list = []  # [start, stop, kinds], or [index, None, None] for a string
    for index, f in fields:
        if f.kind is PrimitiveKind.STRING:
            runs.append([index, None, None])
        elif runs and runs[-1][1] == index:
            runs[-1][1] += 1
            runs[-1][2].append(f.kind)
        else:
            runs.append([index, index + 1, [f.kind]])
    return tuple((start, None) if kinds is None
                 else (slice(start, stop), _run_structs(kinds, padded))
                 for start, stop, kinds in runs)


class _Codec:
    """One type's serialization, compiled once per descriptor.

    Each field's check is reduced to an exact type (plus a range for
    integers), so a well-formed sample is checked with one tuple
    comparison; anything else goes through ``_check_value`` for the
    precise error. Adjacent fixed-size fields pack and unpack with one
    precompiled ``struct.Struct``. Error types, messages and offsets are
    those of encoding field by field.
    """

    def __init__(self, descriptor: TypeDescriptor):
        fields = descriptor.fields
        self.name = descriptor.name
        self.fields = fields
        self.keyed = any(f.is_key for f in fields)
        self.types = tuple(_EXACT_TYPE[f.kind] for f in fields)
        self.ranges = tuple((i, *_INT_RANGES[f.kind]) for i, f in enumerate(fields)
                            if f.kind in _INT_RANGES)
        self.segments = _segments(enumerate(fields), padded=True)
        self.key_segments = _segments(
            ((i, f) for i, f in enumerate(fields) if f.is_key), padded=False)

    def check(self, sample: Sample) -> None:
        if sample.type_name != self.name:
            raise TypeMismatchError(
                f"sample of type {sample.type_name!r} does not match descriptor {self.name!r}")
        values = sample.values
        if len(values) != len(self.fields):
            raise TypeMismatchError(
                f"{self.name}: expected {len(self.fields)} values, got {len(values)}")
        if tuple(map(type, values)) == self.types:
            for i, lo, hi in self.ranges:
                if not lo <= values[i] <= hi:
                    break
            else:
                return
        for f, value in zip(self.fields, values):
            _check_value(f.kind, value, f.name)

    def pack(self, values: Sequence) -> bytes:
        """Encode checked values."""
        out = bytearray()
        try:
            for index, structs in self.segments:
                if structs is None:
                    encoded = values[index].encode("utf-8")
                    out += _PADS[-len(out) & 3]
                    out += _U32.pack(len(encoded))
                    out += encoded
                else:
                    out += structs[len(out) & 7].pack(*values[index])
        except (struct.error, OverflowError):
            # A float out of the kind's range: name the first such field.
            for f, value in zip(self.fields, values):
                if f.kind is not PrimitiveKind.STRING:
                    try:
                        struct.pack("<" + f.kind.fmt, value)
                    except (struct.error, OverflowError) as exc:
                        raise TypeMismatchError(f"field {f.name!r}: {exc}") from None
            raise
        return bytes(out)

    def size(self, values: Sequence) -> int:
        """Byte length ``pack`` would produce for checked values."""
        size = 0
        for index, structs in self.segments:
            if structs is None:
                size += (-size & 3) + 4 + len(values[index].encode("utf-8"))
            else:
                size += structs[size & 7].size
        return size

    def unpack(self, data: bytes) -> tuple:
        values: list = []
        offset = 0
        n = len(data)
        for index, structs in self.segments:
            if structs is None:
                name = self.fields[index].name
                offset += -offset & 3
                if offset + 4 > n:
                    raise DecodeError(offset, f"truncated before length of field {name!r}")
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                if offset + length > n:
                    raise DecodeError(offset, f"string length {length} exceeds remaining bytes")
                try:
                    values.append(data[offset:offset + length].decode("utf-8"))
                except UnicodeDecodeError:
                    raise DecodeError(offset, f"field {name!r} is not valid UTF-8") from None
                offset += length
            else:
                run = structs[offset & 7]
                if offset + run.size > n:
                    for f in self.fields[index]:  # find the one that does not fit
                        offset += -offset % f.kind.size
                        if offset + f.kind.size > n:
                            raise DecodeError(offset, f"truncated in field {f.name!r}")
                        offset += f.kind.size
                values += run.unpack_from(data, offset)
                offset += run.size
        if offset != n:
            raise DecodeError(offset, f"{n - offset} trailing bytes")
        return tuple(values)

    def key_bytes(self, values: Sequence) -> bytes:
        """Key-field encodings of checked values, unpadded."""
        out = bytearray()
        for index, structs in self.key_segments:
            if structs is None:
                encoded = values[index].encode("utf-8")
                out += _U32.pack(len(encoded))
                out += encoded
            else:
                out += structs[0].pack(*values[index])
        return bytes(out)


def serialize(descriptor: TypeDescriptor, sample: Sample) -> bytes:
    """Encode a sample; equal samples yield equal bytes."""
    codec = descriptor._codec
    codec.check(sample)
    return codec.pack(sample.values)


def serialized_size(descriptor: TypeDescriptor, sample: Sample) -> int:
    """Byte length ``serialize`` would produce, without producing it."""
    codec = descriptor._codec
    codec.check(sample)
    return codec.size(sample.values)


def deserialize(descriptor: TypeDescriptor, data: bytes) -> Sample:
    """Decode bytes produced by ``serialize``; trailing bytes are an error."""
    return Sample(descriptor.name, descriptor._codec.unpack(data))


# ---------------------------------------------------------------------------
# Instance keys

def fnv1a_64(data: bytes) -> int:
    value = FNV64_OFFSET
    for byte in data:
        value = ((value ^ byte) * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def key_bytes(descriptor: TypeDescriptor, sample: Sample) -> bytes:
    """Key-field encodings concatenated in declaration order, unpadded."""
    codec = descriptor._codec
    codec.check(sample)
    return codec.key_bytes(sample.values)


def key_hash(descriptor: TypeDescriptor, sample: Sample, *, checked: bool = False) -> int:
    """64-bit instance handle. Unkeyed types map every sample to handle 0;
    keyed samples hash their key bytes, so equal keys share a handle.
    ``checked`` says the caller has already checked the sample against
    the descriptor (``serialize`` does), so it is not checked again."""
    codec = descriptor._codec
    if not codec.keyed:
        return UNKEYED_HANDLE
    if not checked:
        codec.check(sample)
    return fnv1a_64(codec.key_bytes(sample.values))
