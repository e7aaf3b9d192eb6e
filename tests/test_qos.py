"""Policy applicability, profile validation, and the request/offered engine."""

import dataclasses
import itertools

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.errors import InvalidQosError
from minidds.dcps.participant import DomainParticipant
from minidds.rtps.transport import InProcNetwork

# ---------------------------------------------------------------------------
# Frozen transcription of the policy table: name, applicable entities, RxO
# (Y: negotiated between writer and reader, N: not, -: not applicable). Kept
# as plain text on purpose so a regression in the table cannot hide behind
# shared constants.

MATRIX = [
    ("DURABILITY", "T DR DW", "Y"),
    ("DURABILITY_SERVICE", "T DW", "N"),
    ("LIFESPAN", "T DW", "-"),
    ("HISTORY", "T DR DW", "N"),
    ("PRESENTATION", "P S", "Y"),
    ("RELIABILITY", "T DR DW", "Y"),
    ("PARTITION", "P S", "N"),
    ("DESTINATION_ORDER", "T DR DW", "Y"),
    ("OWNERSHIP", "T DR DW", "Y"),
    ("OWNERSHIP_STRENGTH", "DW", "-"),
    ("DEADLINE", "T DR DW", "Y"),
    ("LATENCY_BUDGET", "T DR DW", "Y"),
    ("TRANSPORT_PRIORITY", "T DW", "-"),
    ("TIME_BASED_FILTER", "DR", "-"),
    ("RESOURCE_LIMITS", "T DR DW", "N"),
    ("USER_DATA", "DP DR DW", "N"),
    ("TOPIC_DATA", "T", "N"),
    ("GROUP_DATA", "P S", "N"),
]


def _kinds(text):
    return frozenset(qos.EntityKind(token) for token in text.split())


class TestPolicyTable:
    def test_exactly_eighteen_policies(self):
        assert len(qos.QosPolicyId) == 18
        assert len(MATRIX) == 18

    def test_ids_follow_table_row_order(self):
        assert [name for name, *_ in MATRIX] == [p.name for p in qos.QosPolicyId]
        assert [p.value for p in qos.QosPolicyId] == list(range(1, 19))

    @pytest.mark.parametrize("name,entities,rxo", MATRIX)
    def test_row(self, name, entities, rxo):
        assert qos.APPLICABILITY[qos.QosPolicyId[name]] == _kinds(entities)

    def test_default_values_cover_every_policy(self):
        for pid in qos.QosPolicyId:
            value = qos.default_value(pid)
            assert value.policy_id is pid
            assert qos.value_errors(value) == []


class TestValueInvariants:
    def test_keep_last_needs_positive_depth(self):
        bad = qos.History(qos.HistoryKind.KEEP_LAST, depth=0)
        assert qos.value_errors(bad)
        ok = qos.History(qos.HistoryKind.KEEP_ALL, depth=0)
        assert qos.value_errors(ok) == []

    def test_resource_limits_consistency(self):
        assert qos.value_errors(qos.ResourceLimits(max_samples=0))
        assert qos.value_errors(
            qos.ResourceLimits(max_samples=5, max_samples_per_instance=10))
        assert qos.value_errors(
            qos.ResourceLimits(max_samples=10, max_samples_per_instance=5)) == []

    @pytest.mark.parametrize("value", [
        qos.Lifespan(-1),
        qos.Deadline(-1),
        qos.LatencyBudget(-1),
        qos.TimeBasedFilter(-1),
        qos.DurabilityService(-1),
    ])
    def test_negative_durations_rejected(self, value):
        assert qos.value_errors(value)


@pytest.fixture
def solo():
    with DomainParticipant(0, transport=InProcNetwork().attach("solo"),
                           clock=ManualClock(1_000_000_000)) as participant:
        yield participant


def _topic(participant):
    return participant.create_topic("t", idl.parse_idl("struct C { long n; };")[0])


class TestProfiles:
    def test_absent_policy_reads_as_default(self):
        prof = qos.QosProfile(qos.EntityKind.DATA_READER)
        assert prof.value(qos.QosPolicyId.RELIABILITY) == qos.Reliability()
        assert prof.value(qos.QosPolicyId.HISTORY).depth == 1

    def test_value_builds_a_default_only_for_an_absent_policy(self, monkeypatch):
        default_value = qos.default_value
        built = []

        def counting(policy_id):
            built.append(policy_id)
            return default_value(policy_id)

        monkeypatch.setattr(qos, "default_value", counting)
        reliable = qos.Reliability(qos.ReliabilityKind.RELIABLE)
        prof = qos.QosProfile(qos.EntityKind.DATA_WRITER,
                              {qos.QosPolicyId.RELIABILITY: reliable})
        assert prof.value(qos.QosPolicyId.RELIABILITY) is reliable
        assert built == []
        assert prof.value(qos.QosPolicyId.HISTORY) == default_value(qos.QosPolicyId.HISTORY)
        assert built == [qos.QosPolicyId.HISTORY]

    # The 18 value classes, in table row order.
    CLASSES = [qos.Durability, qos.DurabilityService, qos.Lifespan, qos.History,
               qos.Presentation, qos.Reliability, qos.Partition, qos.DestinationOrder,
               qos.Ownership, qos.OwnershipStrength, qos.Deadline, qos.LatencyBudget,
               qos.TransportPriority, qos.TimeBasedFilter, qos.ResourceLimits,
               qos.UserData, qos.TopicData, qos.GroupData]

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_an_absent_policy_reads_as_one_frozen_default(self, cls):
        pid = cls.policy_id
        assert [c.policy_id for c in self.CLASSES] == list(qos.QosPolicyId)
        writer = qos.QosProfile(qos.EntityKind.DATA_WRITER)
        value = writer.value(pid)
        assert type(value) is cls and value == cls()
        # Shared by every profile that lacks the policy, and by default_value.
        other = qos.profile(qos.EntityKind.TOPIC, [
            v for v in (qos.Reliability(qos.ReliabilityKind.RELIABLE),
                        qos.Deadline(7)) if v.policy_id is not pid])
        assert other.value(pid) is value is qos.default_value(pid)
        # It cannot be changed: every field refuses assignment, and every
        # field value is itself immutable, so the value hashes.
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        hash(value)
        assert value == cls()

    def test_not_applicable_policy_rejected(self, solo):
        with pytest.raises(InvalidQosError, match="OWNERSHIP_STRENGTH not applicable to DR"):
            solo.create_datareader(_topic(solo), [qos.OwnershipStrength(1)])

    def test_mismatched_value_variant_rejected(self, solo):
        with pytest.raises(InvalidQosError, match="carries a value of the wrong variant"):
            solo.create_datawriter(_topic(solo),
                                   {qos.QosPolicyId.RELIABILITY: qos.Deadline(5)})

    # Nothing implements these values, so an entity refuses them rather
    # than accept and ignore them; their defaults are still accepted.
    @pytest.mark.parametrize("create,value", [
        ("create_datareader", qos.Presentation(qos.AccessScope.TOPIC)),
        ("create_datareader", qos.Presentation(coherent_access=True)),
        ("create_datawriter", qos.Presentation(ordered_access=True)),
        ("create_datawriter", qos.DurabilityService(5)),
        ("create_datawriter", qos.TransportPriority(5)),
    ], ids=["topic-scope", "coherent", "ordered", "durability-service", "transport-priority"])
    def test_unsupported_value_refused(self, solo, create, value):
        topic = _topic(solo)
        with pytest.raises(InvalidQosError) as refused:
            getattr(solo, create)(topic, [value])
        assert refused.value.problems == [
            f"{value.policy_id.name} is not supported: only its default value is accepted"]
        assert solo.readers() == [] and solo.writers() == []
        getattr(solo, create)(topic, [type(value)()])

    def test_validate_flags_inapplicable_policy(self):
        prof = qos.profile(qos.EntityKind.DATA_READER, [qos.Lifespan(10)])
        assert qos.validate_profile(prof)

    def test_validate_widened_kinds(self):
        # A reader profile carrying PARTITION is fine when the reader also
        # plays the subscriber role.
        prof = qos.profile(qos.EntityKind.DATA_READER, [qos.Partition(("a",))])
        assert qos.validate_profile(prof)
        wide = frozenset({qos.EntityKind.DATA_READER, qos.EntityKind.SUBSCRIBER})
        assert qos.validate_profile(prof, wide) == []

    def test_validate_filter_against_deadline(self):
        prof = qos.profile(qos.EntityKind.DATA_READER, [
            qos.Deadline(period_ns=1_000_000),
            qos.TimeBasedFilter(minimum_separation_ns=2_000_000),
        ])
        assert qos.validate_profile(prof)
        ok = qos.profile(qos.EntityKind.DATA_READER, [
            qos.Deadline(period_ns=2_000_000),
            qos.TimeBasedFilter(minimum_separation_ns=1_000_000),
        ])
        assert qos.validate_profile(ok) == []


# ---------------------------------------------------------------------------
# Request/offered compatibility

def _offered(*values):
    return qos.profile(qos.EntityKind.DATA_WRITER, values)


def _requested(*values):
    return qos.profile(qos.EntityKind.DATA_READER, values)


def _violated(report):
    return sorted(v.policy_id.name for v in report.violations)


class TestCompatibility:
    def test_defaults_are_compatible(self):
        report = qos.check_compatibility(_offered(), _requested())
        assert report.compatible
        assert report.describe() == "compatible"

    def test_reliability_ordering(self):
        be = qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)
        rel = qos.Reliability(qos.ReliabilityKind.RELIABLE)
        assert qos.check_compatibility(_offered(rel), _requested(be)).compatible
        report = qos.check_compatibility(_offered(be), _requested(rel))
        assert _violated(report) == ["RELIABILITY"]

    def test_durability_ordering(self):
        tl = qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)
        assert qos.check_compatibility(_offered(tl), _requested()).compatible
        assert not qos.check_compatibility(_offered(), _requested(tl)).compatible

    def test_destination_order_ordering(self):
        src = qos.DestinationOrder(qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)
        assert qos.check_compatibility(_offered(src), _requested()).compatible
        assert not qos.check_compatibility(_offered(), _requested(src)).compatible

    def test_deadline_offer_must_be_at_most_request(self):
        assert qos.check_compatibility(
            _offered(qos.Deadline(5_000_000)),
            _requested(qos.Deadline(10_000_000))).compatible
        assert not qos.check_compatibility(
            _offered(qos.Deadline(10_000_000)),
            _requested(qos.Deadline(5_000_000))).compatible
        # An unset offered deadline (infinite) fails any finite request.
        assert not qos.check_compatibility(
            _offered(), _requested(qos.Deadline(5_000_000))).compatible

    def test_latency_budget_offer_must_be_at_most_request(self):
        assert qos.check_compatibility(
            _offered(qos.LatencyBudget(1)), _requested(qos.LatencyBudget(2))).compatible
        assert not qos.check_compatibility(
            _offered(qos.LatencyBudget(2)), _requested(qos.LatencyBudget(1))).compatible

    def test_ownership_kinds_must_match(self):
        excl = qos.Ownership(qos.OwnershipKind.EXCLUSIVE)
        assert qos.check_compatibility(_offered(excl), _requested(excl)).compatible
        assert not qos.check_compatibility(_offered(excl), _requested()).compatible
        assert not qos.check_compatibility(_offered(), _requested(excl)).compatible

    def test_presentation_scope_and_flags(self):
        topic_scope = qos.Presentation(qos.AccessScope.TOPIC, True, True)
        modest = qos.Presentation(qos.AccessScope.INSTANCE, False, False)
        assert qos.check_compatibility(
            _offered(topic_scope), _requested(modest)).compatible
        report = qos.check_compatibility(_offered(modest), _requested(topic_scope))
        assert _violated(report) == ["PRESENTATION"]
        # Each flag alone is enough to break the offer.
        coherent_only = qos.Presentation(qos.AccessScope.INSTANCE, coherent_access=True)
        assert not qos.check_compatibility(
            _offered(modest), _requested(coherent_only)).compatible

    def test_multiple_violations_reported_together(self):
        report = qos.check_compatibility(
            _offered(),
            _requested(qos.Reliability(qos.ReliabilityKind.RELIABLE),
                       qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL),
                       qos.Deadline(1_000_000)))
        assert _violated(report) == ["DEADLINE", "DURABILITY", "RELIABILITY"]
        text = report.describe()
        for name in ("DEADLINE", "DURABILITY", "RELIABILITY"):
            assert name in text

    def test_non_negotiated_policies_never_violate(self):
        # HISTORY and PARTITION differences are not part of the contract.
        report = qos.check_compatibility(
            _offered(qos.History(qos.HistoryKind.KEEP_ALL)),
            _requested(qos.History(qos.HistoryKind.KEEP_LAST, 5)))
        assert report.compatible


class TestCompatibilityExhaustive:
    """Every combination of the ordered kinds against a rule-level oracle."""

    def test_kind_orderings_match_oracle(self):
        reliab = list(qos.ReliabilityKind)
        durab = list(qos.DurabilityKind)
        orders = list(qos.DestinationOrderKind)
        deadlines = [5_000_000, 10_000_000, qos.INFINITE_NS]
        cases = 0
        for (o_rel, o_dur, o_ord, o_dl, r_rel, r_dur, r_ord, r_dl) in itertools.product(
                reliab, durab, orders, deadlines, reliab, durab, orders, deadlines):
            offered = _offered(qos.Reliability(o_rel), qos.Durability(o_dur),
                               qos.DestinationOrder(o_ord), qos.Deadline(o_dl))
            requested = _requested(qos.Reliability(r_rel), qos.Durability(r_dur),
                                   qos.DestinationOrder(r_ord), qos.Deadline(r_dl))
            expect = (o_rel >= r_rel and o_dur >= r_dur
                      and o_ord >= r_ord and o_dl <= r_dl)
            report = qos.check_compatibility(offered, requested)
            assert report.compatible == expect, (offered, requested)
            cases += 1
        assert cases == 2 * 2 * 2 * 3 * 2 * 2 * 2 * 3


class TestPartitions:
    def test_empty_list_means_default_partition(self):
        assert qos.partitions_intersect((), ())
        assert qos.partitions_intersect((), ("",))
        assert not qos.partitions_intersect((), ("a",))

    def test_exact_name_intersection(self):
        assert qos.partitions_intersect(("a", "b"), ("b", "c"))
        assert not qos.partitions_intersect(("a",), ("A",))


# ---------------------------------------------------------------------------
# Profile files

class TestQosFiles:
    def test_parse_settings(self):
        text = """
        # delivery
        reliability.kind = RELIABLE
        durability.kind = transient_local
        history.kind = KEEP_LAST
        history.depth = 8
        deadline.period_ns = 50000000
        lifespan.duration_ns = infinite
        partition.names = left, right
        resource_limits.max_samples = unlimited
        user_data.hex = c0ffee
        """
        settings = qos.parse_qos_settings(text)
        assert settings[qos.QosPolicyId.RELIABILITY].kind == qos.ReliabilityKind.RELIABLE
        assert settings[qos.QosPolicyId.DURABILITY].kind == qos.DurabilityKind.TRANSIENT_LOCAL
        history = settings[qos.QosPolicyId.HISTORY]
        assert (history.kind, history.depth) == (qos.HistoryKind.KEEP_LAST, 8)
        assert settings[qos.QosPolicyId.DEADLINE].period_ns == 50_000_000
        assert settings[qos.QosPolicyId.LIFESPAN].duration_ns == qos.INFINITE_NS
        assert settings[qos.QosPolicyId.PARTITION].names == ("left", "right")
        assert settings[qos.QosPolicyId.RESOURCE_LIMITS].max_samples is None
        assert settings[qos.QosPolicyId.USER_DATA].value == bytes.fromhex("c0ffee")

    def test_unknown_key_reports_line(self):
        with pytest.raises(qos.QosFileError) as exc:
            qos.parse_qos_settings("reliability.kind = RELIABLE\nbogus.key = 1\n")
        assert exc.value.line == 2
        assert "bogus.key" in str(exc.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(qos.QosFileError) as exc:
            qos.parse_qos_settings("\nreliability.kind = SOMETIMES\n")
        assert exc.value.line == 2

    def test_line_without_equals_rejected(self):
        with pytest.raises(qos.QosFileError):
            qos.parse_qos_settings("reliability RELIABLE\n")

    def test_load_file_round_trip(self, tmp_path):
        path = tmp_path / "prof.qos"
        path.write_text("reliability.kind = RELIABLE\nhistory.depth = 3\n")
        settings = qos.load_qos_file(str(path))
        assert settings[qos.QosPolicyId.HISTORY].depth == 3

    def test_settings_for_filters_by_entity(self):
        settings = qos.parse_qos_settings(
            "reliability.kind = RELIABLE\n"
            "time_based_filter.minimum_separation_ns = 5\n"
            "ownership_strength.value = 2\n")
        reader_kinds = frozenset({qos.EntityKind.DATA_READER, qos.EntityKind.SUBSCRIBER})
        picked = qos.settings_for(settings, reader_kinds)
        assert qos.QosPolicyId.TIME_BASED_FILTER in picked
        assert qos.QosPolicyId.OWNERSHIP_STRENGTH not in picked
        assert qos.QosPolicyId.RELIABILITY in picked
