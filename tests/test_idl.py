"""Type parsing, byte-exact serialization, and instance-key hashing."""

import pathlib
import random
import re
import struct
from dataclasses import dataclass

import pytest

from minidds import idl

DATA = pathlib.Path(__file__).parent / "data"

MIXED_IDL = """
struct Mixed {
    octet a;
    long b;
    short c;
    double d;
    string s;
    octet e;
};
"""

ALL_KINDS_IDL = """
struct Everything {
    boolean b;
    octet o;
    short s;
    unsigned short us;
    long l; //@key
    unsigned long ul;
    long long ll;
    unsigned long long ull;
    float f;
    double d;
    string t;
};
"""


def _parse_one(source):
    types = idl.parse_idl(source)
    assert len(types) == 1
    return types[0]


class TestParsing:
    def test_sensor_record_field_layout(self):
        source = (DATA / "climat.idl").read_text()
        descriptor = _parse_one(source)
        assert descriptor.name == "Climat"
        expected = [
            ("key", idl.PrimitiveKind.UNSIGNED_LONG),
            ("climatDistVisi", idl.PrimitiveKind.FLOAT),
            ("climatHeure", idl.PrimitiveKind.FLOAT),
            ("climatSport", idl.PrimitiveKind.LONG),
            ("climatHorizon", idl.PrimitiveKind.LONG),
            ("rainDensity", idl.PrimitiveKind.FLOAT),
            ("rainSize", idl.PrimitiveKind.FLOAT),
            ("wiperAngle", idl.PrimitiveKind.FLOAT),
        ]
        assert [(f.name, f.kind) for f in descriptor.fields] == expected
        assert len(descriptor.fields) == 8

    def test_field_named_key_becomes_key_without_annotation(self):
        descriptor = _parse_one("struct T { unsigned long key; float x; };")
        assert [f.name for f in descriptor.key_fields] == ["key"]

    def test_annotation_disables_the_name_fallback(self):
        descriptor = _parse_one("struct T { unsigned long key; long id; //@key\n };")
        assert [f.name for f in descriptor.key_fields] == ["id"]

    def test_key_annotation_on_either_side_of_semicolon(self):
        before = _parse_one("struct T { long id //@key\n ; float x; };")
        after = _parse_one("struct T { long id; //@key\n float x; };")
        assert before.key_fields == after.key_fields
        assert [f.name for f in before.key_fields] == ["id"]

    def test_all_primitive_kinds(self):
        descriptor = _parse_one(ALL_KINDS_IDL)
        assert [f.kind for f in descriptor.fields] == list(idl.PrimitiveKind)
        assert [f.name for f in descriptor.key_fields] == ["l"]

    def test_multiple_types_in_one_unit(self):
        types = idl.parse_idl("struct A { long x; };\nstruct B { short y; };")
        assert [t.name for t in types] == ["A", "B"]

    def test_comments_are_skipped(self):
        descriptor = _parse_one(
            "// heading\nstruct T { // inline\n long x; // trailing\n };")
        assert [f.name for f in descriptor.fields] == ["x"]

    def test_empty_source_yields_no_types(self):
        assert idl.parse_idl("   // nothing here\n") == []


class TestParseErrors:
    @pytest.mark.parametrize("source,line,column", [
        ("struct A { long x } ;", 1, 19),            # missing field semicolon
        ("struct A { long x; };\nstruct A { long y; };", 2, 8),  # dup type
        ("struct A { long x; long x; };", 1, 25),    # dup field
        ("struct A { quux x; };", 1, 12),            # unknown type word
        ("struct A { unsigned float x; };", 1, 21),  # bad unsigned pair
        ("union A { long x; };", 1, 1),              # not a struct
        ("struct A { long x; / };", 1, 20),          # lone slash
        ("struct A { long $; };", 1, 17),            # bad character
    ])
    def test_position_reported(self, source, line, column):
        with pytest.raises(idl.ParseError) as exc:
            idl.parse_idl(source)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).startswith(f"{line}:{column}: ")

    def test_truncated_input(self):
        with pytest.raises(idl.ParseError) as exc:
            idl.parse_idl("struct A { long x;")
        assert "end of input" in str(exc.value)

    def test_struct_without_fields(self):
        with pytest.raises(idl.ParseError) as exc:
            idl.parse_idl("struct A { };")
        assert "no fields" in str(exc.value)

    @pytest.mark.parametrize("source,message", [
        ("struct A { long x } ;", "1:19: expected ';', got '}'"),
        ("struct A { long x; };\nstruct A { long y; };", "2:8: duplicate type name 'A'"),
        ("struct A { long x; long x; };", "1:25: duplicate field name 'x'"),
        ("struct A { quux x; };", "1:12: unknown field type 'quux'"),
        ("struct A { unsigned float x; };",
         "1:21: expected 'short' or 'long' after 'unsigned', got 'float'"),
        ("struct A { unsigned; };", "1:20: expected 'short' or 'long', got ';'"),
        ("union A { long x; };", "1:1: expected 'struct', got 'union'"),
        ("struct { long x; };", "1:8: expected type name, got '{'"),
        ("struct A long x; };", "1:10: expected '{', got 'long'"),
        ("struct A { ; };", "1:12: expected field type, got ';'"),
        ("struct A { long //@key\n; };", "1:17: expected field name, got '//@key'"),
        ("struct A { long x; } //@key\n", "1:22: expected ';', got '//@key'"),
        ("struct A { long x; / };", "1:20: unexpected character '/'"),
        ("struct A { long $; };", "1:17: unexpected character '$'"),
        ("struct A {\r\n\tlong \u00e9; };", "2:7: unexpected character '\u00e9'"),
        ("struct A { long x;", "1:19: expected field type, got 'end of input'"),
        ("struct A { long x; }", "1:21: expected ';', got 'end of input'"),
        ("struct A { };", "1:12: type 'A' has no fields"),
        # The whole source is scanned before the grammar is checked.
        ("union A { long $; };", "1:16: unexpected character '$'"),
    ])
    def test_exact_message(self, source, message):
        with pytest.raises(idl.ParseError) as exc:
            idl.parse_idl(source)
        line, column, text = message.split(":", 2)
        assert (exc.value.line, exc.value.column, exc.value.message) == (
            int(line), int(column), text[1:])
        assert str(exc.value) == message


class TestPrintIdl:
    def test_round_trips_to_identical_descriptors(self):
        for source in (MIXED_IDL, ALL_KINDS_IDL,
                       "struct T { unsigned long key; float x; };"):
            types = idl.parse_idl(source)
            again = idl.parse_idl(idl.print_idl(types))
            assert again == types

    def test_key_fields_printed_with_annotation(self):
        text = idl.print_idl(idl.parse_idl("struct T { long key; };"))
        assert "//@key" in text


class TestSerialization:
    def test_sensor_record_is_32_bytes(self):
        descriptor = _parse_one((DATA / "climat.idl").read_text())
        sample = idl.make_sample(descriptor, {
            "key": 7, "climatDistVisi": 100.0, "climatHeure": 12.5,
            "climatSport": 1, "climatHorizon": 2,
            "rainDensity": 0.25, "rainSize": 1.5, "wiperAngle": 30.0,
        })
        data = idl.serialize(descriptor, sample)
        assert len(data) == 32
        assert idl.serialized_size(descriptor, sample) == 32
        assert idl.deserialize(descriptor, data) == sample

    def test_alignment_golden_bytes(self):
        descriptor = _parse_one(MIXED_IDL)
        sample = idl.make_sample(descriptor, (7, -5, 3, 2.5, "hey", 9))
        expected = (struct.pack("<B3xih6xd", 7, -5, 3, 2.5)
                    + struct.pack("<I", 3) + b"hey" + struct.pack("<B", 9))
        assert idl.serialize(descriptor, sample) == expected
        assert len(expected) == 32

    def test_string_length_counts_bytes_not_characters(self):
        descriptor = _parse_one("struct T { string s; };")
        text = "échelle"  # 8 bytes in UTF-8, 7 characters
        data = idl.serialize(descriptor, idl.make_sample(descriptor, (text,)))
        assert data[:4] == struct.pack("<I", 8)
        assert data[4:] == text.encode("utf-8")

    def test_string_field_realigns_following_field(self):
        descriptor = _parse_one("struct T { string s; long n; };")
        data = idl.serialize(descriptor, idl.make_sample(descriptor, ("ab", 1)))
        # 4-byte length, 2 text bytes, then 2 pad bytes before the long.
        assert len(data) == 12
        assert data[6:8] == b"\x00\x00"

    def test_round_trip_random_values(self):
        descriptor = _parse_one(ALL_KINDS_IDL)
        rng = random.Random(0xD1CE)
        for _ in range(200):
            values = _random_values(descriptor, rng)
            sample = idl.make_sample(descriptor, values)
            data = idl.serialize(descriptor, sample)
            back = idl.deserialize(descriptor, data)
            assert back == sample
            assert len(data) == idl.serialized_size(descriptor, sample)

    def test_type_mismatches_rejected(self):
        descriptor = _parse_one("struct T { octet o; string s; };")
        with pytest.raises(idl.TypeMismatchError):
            idl.serialize(descriptor, idl.make_sample(descriptor, (256, "x")))
        with pytest.raises(idl.TypeMismatchError):
            idl.serialize(descriptor, idl.make_sample(descriptor, (1, 2)))
        with pytest.raises(idl.TypeMismatchError):
            idl.serialize(descriptor, idl.Sample("Other", (1, "x")))
        with pytest.raises(idl.TypeMismatchError):
            idl.serialize(descriptor, idl.Sample("T", (1,)))

    def test_make_sample_from_mapping_checks_names(self):
        descriptor = _parse_one("struct T { long a; long b; };")
        with pytest.raises(idl.TypeMismatchError):
            idl.make_sample(descriptor, {"a": 1, "c": 2})
        with pytest.raises(idl.TypeMismatchError):
            idl.make_sample(descriptor, {"a": 1})
        sample = idl.make_sample(descriptor, {"b": 2, "a": 1})
        assert sample.values == (1, 2)
        assert idl.as_dict(descriptor, sample) == {"a": 1, "b": 2}


class TestDecodeErrors:
    def test_truncated_fixed_field(self):
        descriptor = _parse_one("struct T { long n; };")
        with pytest.raises(idl.DecodeError) as exc:
            idl.deserialize(descriptor, b"\x01\x02")
        assert exc.value.offset == 0

    def test_string_length_overrun(self):
        descriptor = _parse_one("struct T { string s; };")
        with pytest.raises(idl.DecodeError):
            idl.deserialize(descriptor, struct.pack("<I", 100) + b"abc")

    def test_invalid_utf8(self):
        descriptor = _parse_one("struct T { string s; };")
        with pytest.raises(idl.DecodeError):
            idl.deserialize(descriptor, struct.pack("<I", 1) + b"\xff")

    def test_trailing_bytes(self):
        descriptor = _parse_one("struct T { octet o; };")
        with pytest.raises(idl.DecodeError) as exc:
            idl.deserialize(descriptor, b"\x01\x02")
        assert "trailing" in str(exc.value)


class TestKeys:
    def test_fnv1a_reference_vectors(self):
        # Published FNV-1a 64-bit test vectors.
        assert idl.fnv1a_64(b"") == 0xCBF29CE484222325
        assert idl.fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert idl.fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_unkeyed_type_uses_the_shared_handle(self):
        descriptor = _parse_one("struct T { long x; };")
        s1 = idl.make_sample(descriptor, (1,))
        s2 = idl.make_sample(descriptor, (2,))
        assert idl.key_hash(descriptor, s1) == idl.UNKEYED_HANDLE
        assert idl.key_hash(descriptor, s1) == idl.key_hash(descriptor, s2)

    def test_key_bytes_concatenate_key_fields_in_order(self):
        descriptor = _parse_one(
            "struct T { short a; //@key\n double x; string b; //@key\n };")
        sample = idl.make_sample(descriptor, (-2, 1.0, "id"))
        assert idl.key_bytes(descriptor, sample) == (
            struct.pack("<h", -2) + struct.pack("<I", 2) + b"id")

    def test_key_hash_is_fnv_of_key_bytes(self):
        descriptor = _parse_one("struct T { unsigned long key; float x; };")
        sample = idl.make_sample(descriptor, (9, 1.25))
        assert idl.key_hash(descriptor, sample) == idl.fnv1a_64(struct.pack("<I", 9))

    def test_equal_keys_share_a_handle_across_payloads(self):
        descriptor = _parse_one("struct T { unsigned long key; float x; };")
        a = idl.make_sample(descriptor, (5, 1.0))
        b = idl.make_sample(descriptor, (5, 2.0))
        c = idl.make_sample(descriptor, (6, 1.0))
        assert idl.key_hash(descriptor, a) == idl.key_hash(descriptor, b)
        assert idl.key_hash(descriptor, a) != idl.key_hash(descriptor, c)


def _random_values(descriptor, rng):
    """Representable random values for every field of a descriptor."""
    values = []
    for f in descriptor.fields:
        kind = f.kind
        if kind is idl.PrimitiveKind.BOOLEAN:
            values.append(rng.random() < 0.5)
        elif kind is idl.PrimitiveKind.STRING:
            length = rng.randrange(0, 20)
            values.append("".join(rng.choice("abcdeféß ")
                                  for _ in range(length)))
        elif kind is idl.PrimitiveKind.FLOAT:
            raw = rng.uniform(-1e6, 1e6)
            values.append(struct.unpack("<f", struct.pack("<f", raw))[0])
        elif kind is idl.PrimitiveKind.DOUBLE:
            values.append(rng.uniform(-1e12, 1e12))
        else:
            lo, hi = idl._INT_RANGES[kind]
            values.append(rng.randint(lo, hi))
    return tuple(values)


# ---------------------------------------------------------------------------
# Differential test of the front end

_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class _RefToken:
    kind: str  # IDENT, PUNCT, KEY_ANNOTATION, EOF
    text: str
    line: int
    column: int


def _ref_tokenize(source):
    """The character-by-character scanner ``parse_idl`` replaced, kept
    as the reference."""
    tokens = []
    line = col = 1
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
                if source[i + 2:j].strip() == "@key":
                    tokens.append(_RefToken("KEY_ANNOTATION", "//@key", line, col))
                col += j - i
                i = j
                continue
            raise idl.ParseError(line, col, "unexpected character '/'")
        if ch in "{};":
            tokens.append(_RefToken("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        match = _REF_IDENT_RE.match(source, i)
        if match:
            text = match.group(0)
            tokens.append(_RefToken("IDENT", text, line, col))
            i = match.end()
            col += len(text)
            continue
        raise idl.ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(_RefToken("EOF", "", line, col))
    return tokens


class _RefParser:
    """The recursive-descent parser ``parse_idl`` replaced, kept as the
    reference."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, tok, message):
        return idl.ParseError(tok.line, tok.column, message)

    def expect_punct(self, ch):
        tok = self.next()
        if tok.kind != "PUNCT" or tok.text != ch:
            raise self.error(tok, f"expected {ch!r}, got {tok.text or 'end of input'!r}")
        return tok

    def expect_ident(self, what):
        tok = self.next()
        if tok.kind != "IDENT":
            raise self.error(tok, f"expected {what}, got {tok.text or 'end of input'!r}")
        return tok

    def parse_unit(self):
        types = []
        seen = set()
        while self.peek().kind != "EOF":
            tok = self.expect_ident("'struct'")
            if tok.text != "struct":
                raise self.error(tok, f"expected 'struct', got {tok.text!r}")
            name_tok = self.expect_ident("type name")
            if name_tok.text in seen:
                raise self.error(name_tok, f"duplicate type name {name_tok.text!r}")
            seen.add(name_tok.text)
            types.append(self.parse_struct_body(name_tok.text))
        return types

    def parse_struct_body(self, type_name):
        self.expect_punct("{")
        raw_fields = []
        names = set()
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
        return idl.TypeDescriptor(type_name, tuple(
            idl.FieldDescriptor(name, kind, is_key or (not annotated and name == "key"))
            for name, kind, is_key in raw_fields))

    def parse_kind(self):
        tok = self.expect_ident("field type")
        word = tok.text
        if word == "unsigned":
            second = self.expect_ident("'short' or 'long'")
            if second.text == "short":
                return idl.PrimitiveKind.UNSIGNED_SHORT
            if second.text == "long":
                if self.peek().kind == "IDENT" and self.peek().text == "long":
                    self.next()
                    return idl.PrimitiveKind.UNSIGNED_LONG_LONG
                return idl.PrimitiveKind.UNSIGNED_LONG
            raise self.error(
                second, f"expected 'short' or 'long' after 'unsigned', got {second.text!r}")
        if word == "long":
            if self.peek().kind == "IDENT" and self.peek().text == "long":
                self.next()
                return idl.PrimitiveKind.LONG_LONG
            return idl.PrimitiveKind.LONG
        kind = {k.keyword: k for k in idl.PrimitiveKind}.get(word)
        if kind is None:
            raise self.error(tok, f"unknown field type {word!r}")
        return kind


def _outcome(parse, source):
    """Descriptors, or a ParseError's (line, column, message)."""
    try:
        return parse(source)
    except idl.ParseError as exc:
        assert str(exc) == f"{exc.line}:{exc.column}: {exc.message}"
        return (exc.line, exc.column, exc.message)


CORPUS = [
    (DATA / "climat.idl").read_text(),
    ALL_KINDS_IDL,
    MIXED_IDL.replace("\n", "\r\n"),
    "struct A {\n\tunsigned long long a; unsigned long b //@key\n;\n"
    "\tlong long c; long d; //  @key \r\n unsigned short e; };\n"
    "struct B { boolean key; octet o; float f; double d; string s; };",
    "// heading\r\nstruct T { // inline\n long x; //@keys\n long y; //\n};//@key",
    "struct U { short s; //@key\u3000\n string t; // @key\n long key; };",
    "struct V { long x; / }; struct W { long \u00e9; long $; long \x0b; };",
    "struct A { long x; };\nstruct A { long y; };",
]
# Pieces a mutation inserts: blanks, comments, punctuation, keywords,
# names, and characters the grammar refuses.
PIECES = [" ", "\t", "\r\n", "\n", "/", "//", "//@key\n", " //@key", "// @key \n",
          "{", "}", ";", "long", " long", "unsigned ", "short", "struct ", "key",
          "x", "_a9", "$", "\u00e9", "\x0b", "\f", "\xa0", "@", "0"]
MUTATIONS = 3000
# Every message the front end has.
MESSAGES = [
    "unexpected character .*", "expected 'struct', got .*", "expected type name, got .*",
    "duplicate type name .*", "expected '{', got .*", "type .* has no fields",
    "expected field type, got .*", "expected 'short' or 'long', got .*",
    "expected 'short' or 'long' after 'unsigned', got .*", "unknown field type .*",
    "expected field name, got .*", "duplicate field name .*", "expected ';', got .*",
]


def _mutated(rng):
    source = rng.choice(CORPUS)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(source) + 1)
        j = min(len(source), i + rng.randint(1, 4))
        op = rng.randrange(4)
        if op == 0:
            source = source[:i] + source[j:]
        elif op == 1:
            source = source[:i] + rng.choice(PIECES) + source[i:]
        elif op == 2:
            source = source[:j] + source[i:j] + source[j:]
        else:
            source = source[:i]
    return source


def test_parse_idl_agrees_with_the_reference_front_end():
    """On the corpus, every truncation of it, and seeded mutations of it,
    ``parse_idl`` gives the reference's descriptors or the reference's
    ParseError position and message; between them the inputs reach
    every message the front end has."""
    rng = random.Random(0x1D1)
    sources = list(CORPUS)
    sources += [s[:n] for s in CORPUS for n in range(len(s))]
    sources += [_mutated(rng) for _ in range(MUTATIONS)]

    def reference(source):
        return _RefParser(_ref_tokenize(source)).parse_unit()

    reached = set()
    parsed = 0
    for source in sources:
        expected = _outcome(reference, source)
        assert _outcome(idl.parse_idl, source) == expected, repr(source)
        if isinstance(expected, tuple):
            reached.update(m for m in MESSAGES if re.fullmatch(m, expected[2]))
        else:
            parsed += 1
    assert parsed > 100
    assert reached == set(MESSAGES)
