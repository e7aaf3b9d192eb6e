"""The advertised QoS table: one list of policies for matching, the announce
codec and the docs, and the request/offered rules checked against an
independent statement of them."""

import dataclasses
import enum
import itertools
import pathlib
import random
import re
import struct
import typing

import pytest

from minidds import qos
from minidds.dcps.guid import Guid
from minidds.dcps.matching import (EndpointDescriptor, EndpointType, MatchRecord,
                                   NoMatch, RxoQos, match_endpoints)
from minidds.rtps import wire
from test_qos import MATRIX

P = qos.QosPolicyId
DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "wire.md"

# ---------------------------------------------------------------------------
# One place


def test_negotiated_rows_are_the_rxo_yes_policies():
    negotiated = {row.id for row in qos.ADVERTISED_QOS if row.satisfies is not None}
    # The RxO=Y rows of the policy table, as transcribed in plain text.
    rxo_yes = {P[name] for name, _, rxo in MATRIX if rxo == "Y"}
    assert negotiated == rxo_yes
    assert len(negotiated) == 7


def test_rows_cover_the_record_once():
    ids = [row.id for row in qos.ADVERTISED_QOS]
    assert len(ids) == len(set(ids))
    row_fields = [name for row in qos.ADVERTISED_QOS for name in row.fields]
    assert len(row_fields) == len(set(row_fields))
    record_fields = {f.name for f in dataclasses.fields(RxoQos)}
    assert set(row_fields) | {"partitions"} == record_fields
    for row in qos.ADVERTISED_QOS:
        # A row's fields line up with its value class, so a default record
        # gives each policy its default value.
        assert row.value(RxoQos()) == qos.default_value(row.id)


def test_every_advertised_field_has_exactly_one_wire_code():
    # The announce record is every RxoQos field but the partitions, in
    # field order, one struct code each: a byte per enum or flag, and a
    # fixed-width integer per int field.
    hints = typing.get_type_hints(RxoQos)
    advertised = [f.name for f in dataclasses.fields(RxoQos) if f.name != "partitions"]
    assert list(wire._RXO_FIELDS) == advertised
    assert wire._RXO.format[0] == "<" and len(wire._RXO.format) == 1 + len(advertised)
    for name, code in zip(advertised, wire._RXO.format[1:]):
        assert code in ("iq" if hints[name] is int else "B"), name
    assert wire._RXO.size == 27


def test_every_enum_field_leads_its_row():
    # A row reads as its value class positionally, and every value class
    # with an enum starts with it.
    hints = typing.get_type_hints(RxoQos)
    for row in qos.ADVERTISED_QOS:
        for i, name in enumerate(row.fields):
            kind = hints[name]
            if isinstance(kind, type) and issubclass(kind, enum.Enum):
                assert i == 0, (row.id, name)
            else:
                assert kind in (int, bool), (row.id, name, kind)


def test_docs_table_lists_the_record_fields_in_order():
    section = DOCS.read_text(encoding="utf-8").split("### ANNOUNCE", 1)[1]
    section = section.split("\n### ", 1)[0]
    rows = re.findall(r"^\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*([a-z_]+)\s*\|", section, re.MULTILINE)
    codes = wire._RXO.format[1:]
    assert [(int(at), int(size), name) for at, size, name in rows] == [
        (struct.calcsize("<" + codes[:i]), struct.calcsize("<" + code), name)
        for i, (code, name) in enumerate(zip(codes, wire._RXO_FIELDS))]


# ---------------------------------------------------------------------------
# The rules, stated independently of the table

VALUES = {
    P.RELIABILITY: [qos.Reliability(k) for k in qos.ReliabilityKind],
    P.DURABILITY: [qos.Durability(k) for k in qos.DurabilityKind],
    P.DESTINATION_ORDER: [qos.DestinationOrder(k) for k in qos.DestinationOrderKind],
    P.OWNERSHIP: [qos.Ownership(k) for k in qos.OwnershipKind],
    P.PRESENTATION: [qos.Presentation(scope, coherent, ordered)
                     for scope, coherent, ordered in itertools.product(
                         qos.AccessScope, (False, True), (False, True))],
    P.DEADLINE: [qos.Deadline(ns) for ns in (0, 1, 5_000_000, 10_000_000, qos.INFINITE_NS)],
    P.LATENCY_BUDGET: [qos.LatencyBudget(ns) for ns in (0, 1, 250, 5_000_000, qos.INFINITE_NS)],
}


def _violated(pid, o, r) -> bool:
    if pid is P.RELIABILITY:
        return (o.kind is qos.ReliabilityKind.BEST_EFFORT
                and r.kind is qos.ReliabilityKind.RELIABLE)
    if pid is P.DURABILITY:
        return (o.kind is qos.DurabilityKind.VOLATILE
                and r.kind is qos.DurabilityKind.TRANSIENT_LOCAL)
    if pid is P.DESTINATION_ORDER:
        return (o.kind is qos.DestinationOrderKind.BY_RECEPTION_TIMESTAMP
                and r.kind is qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)
    if pid is P.OWNERSHIP:
        return o.kind is not r.kind
    if pid is P.PRESENTATION:
        return ((o.access_scope is qos.AccessScope.INSTANCE
                 and r.access_scope is qos.AccessScope.TOPIC)
                or (r.coherent_access and not o.coherent_access)
                or (r.ordered_access and not o.ordered_access))
    if pid is P.DEADLINE:
        return o.period_ns > r.period_ns
    if pid is P.LATENCY_BUDGET:
        return o.duration_ns > r.duration_ns
    raise AssertionError(pid)


def _expected(offered: dict, requested: dict) -> dict:
    out = {}
    for pid in VALUES:
        o = offered.get(pid, qos.default_value(pid))
        r = requested.get(pid, qos.default_value(pid))
        if _violated(pid, o, r):
            out[pid] = (o, r)
    return out


def _record(values: dict, strength: int) -> RxoQos:
    v = {pid: values.get(pid, qos.default_value(pid)) for pid in VALUES}
    pres = v[P.PRESENTATION]
    return RxoQos(reliability=v[P.RELIABILITY].kind,
                  durability=v[P.DURABILITY].kind,
                  destination_order=v[P.DESTINATION_ORDER].kind,
                  ownership=v[P.OWNERSHIP].kind,
                  ownership_strength=strength,
                  presentation_scope=pres.access_scope,
                  presentation_coherent=pres.coherent_access,
                  presentation_ordered=pres.ordered_access,
                  deadline_period_ns=v[P.DEADLINE].period_ns,
                  latency_budget_ns=v[P.LATENCY_BUDGET].duration_ns)


def _as_dict(report: qos.CompatibilityReport) -> dict:
    out = {v.policy_id: (v.offered, v.requested) for v in report.violations}
    assert len(out) == len(report.violations)  # no policy reported twice
    return out


def _check(offered: dict, requested: dict, strength: int = 0) -> None:
    expected = _expected(offered, requested)
    via_profiles = qos.check_compatibility(
        qos.profile(qos.EntityKind.DATA_WRITER, offered.values()),
        qos.profile(qos.EntityKind.DATA_READER, requested.values()))
    assert _as_dict(via_profiles) == expected, (offered, requested)

    writer = EndpointDescriptor(Guid(b"\x01" * 12, 1), 0, "t", "T",
                                EndpointType.WRITER, _record(offered, strength))
    reader = EndpointDescriptor(Guid(b"\x02" * 12, 1), 0, "t", "T",
                                EndpointType.READER, _record(requested, -strength))
    for a, b in ((writer, reader), (reader, writer)):
        result = match_endpoints(a, b)
        if expected:
            assert isinstance(result, NoMatch)
            assert result.report == via_profiles
        else:
            assert isinstance(result, MatchRecord)
            assert result.report.compatible


@pytest.mark.parametrize("pid", list(VALUES), ids=lambda pid: pid.name)
def test_every_pair_of_one_policy(pid):
    for o, r in itertools.product(VALUES[pid], repeat=2):
        _check({pid: o}, {pid: r})


def test_random_full_pairs():
    rng = random.Random(20101)
    violated = set()
    for _ in range(2000):
        offered = {pid: rng.choice(values) for pid, values in VALUES.items()}
        requested = {pid: rng.choice(values) for pid, values in VALUES.items()}
        _check(offered, requested, strength=rng.randint(-5, 5))
        violated.update(_expected(offered, requested))
    assert violated == set(VALUES)


# ---------------------------------------------------------------------------
# The fast paths against the table-driven code they replaced
#
# ``check_rxo`` passes a compatible pair with two C-level getters, and
# ``RxoQos.from_profile`` is straight-line code. The functions below are
# the table-driven forms they replaced, kept as references: every pair
# must give the same violations, in the same order, with the same text.


def _reference_check_rxo(offered: RxoQos, requested: RxoQos) -> qos.CompatibilityReport:
    return qos.CompatibilityReport(tuple(
        qos.PolicyViolation(row.id, row.value(offered), row.value(requested))
        for row in qos.ADVERTISED_QOS if row.satisfies is not None
        and not all(map(row.satisfies, row.values(offered), row.values(requested)))))


def _reference_from_profile(prof: qos.QosProfile) -> RxoQos:
    values = {}
    for row in qos.ADVERTISED_QOS:
        value = prof.value(row.id)
        for name, field in zip(row.fields, dataclasses.fields(value)):
            values[name] = getattr(value, field.name)
    return RxoQos(partitions=prof.value(P.PARTITION).names, **values)


def _same_report(offered: RxoQos, requested: RxoQos) -> qos.CompatibilityReport:
    report = qos.check_rxo(offered, requested)
    expected = _reference_check_rxo(offered, requested)
    assert report == expected, (offered, requested)
    assert [v.policy_id for v in report.violations] == [
        v.policy_id for v in expected.violations]
    assert report.describe() == expected.describe()
    if expected.compatible:
        # One shared empty report for every compatible pair.
        assert report is qos.check_rxo(RxoQos(), RxoQos())
    return report


@pytest.mark.parametrize("pid", list(VALUES), ids=lambda pid: pid.name)
def test_check_rxo_agrees_with_the_reference_on_every_pair(pid):
    outcomes = set()
    for o, r in itertools.product(VALUES[pid], repeat=2):
        report = _same_report(_record({pid: o}, 0), _record({pid: r}, 0))
        outcomes.add(report.compatible)
    assert outcomes == {True, False}


def test_check_rxo_agrees_with_the_reference_on_seeded_full_pairs():
    rng = random.Random(3232)
    counts = [0] * (len(VALUES) + 1)
    for _ in range(3000):
        offered = {pid: rng.choice(values) for pid, values in VALUES.items()
                   if rng.random() < 0.6}
        requested = {pid: rng.choice(values) for pid, values in VALUES.items()
                     if rng.random() < 0.6}
        report = _same_report(_record(offered, rng.randint(-3, 3)),
                              _record(requested, rng.randint(-3, 3)))
        counts[len(report.violations)] += 1
    # Compatible pairs, and pairs with one to several violations, all occur.
    assert all(counts[:4]), counts


def test_from_profile_agrees_with_the_reference():
    rng = random.Random(1717)
    partitions = [qos.Partition(names) for names in ((), ("",), ("a", "b"), ("ü",))]
    extra = [qos.OwnershipStrength(-4), qos.OwnershipStrength(9),
             qos.History(qos.HistoryKind.KEEP_ALL)]
    for _ in range(500):
        values = [rng.choice(vs) for vs in VALUES.values() if rng.random() < 0.5]
        values += [v for v in (rng.choice(partitions), rng.choice(extra)) if rng.random() < 0.5]
        for kind in (qos.EntityKind.DATA_WRITER, qos.EntityKind.DATA_READER):
            prof = qos.profile(kind, values)
            assert RxoQos.from_profile(prof) == _reference_from_profile(prof), values
