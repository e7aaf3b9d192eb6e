"""Entity layer: caches, the arrival pipeline, matching, and discovery."""

import threading

import pytest

from minidds import idl, qos
from minidds.clock import ManualClock
from minidds.dcps.errors import (InconsistentTopicError, InvalidQosError,
                                 SampleTooLargeError)
from minidds.dcps.guid import Guid
from minidds.dcps.history import (ReaderHistory, ResourceLimitsError, SampleInfo,
                                  WriterHistory)
from minidds.dcps.participant import DomainParticipant, Topic
from minidds.rtps import wire
from minidds.rtps.transport import InProcNetwork

from test_write_pass import assert_one_pass, record_a_write

MS = 1_000_000

COUNTER_IDL = "struct Counter { long n; };"
KEYED_IDL = "struct KV { long id; //@key\n long v; };"

GUID_A = Guid(b"\x01" * 12, 1)
GUID_B = Guid(b"\x02" * 12, 1)


def _counter_type():
    return idl.parse_idl(COUNTER_IDL)[0]


def _keyed_type():
    return idl.parse_idl(KEYED_IDL)[0]


def _values(pairs):
    return [sample.values for sample, _ in pairs]


# ---------------------------------------------------------------------------
# History caches in isolation

class TestWriterHistory:
    def _history(self, kind=qos.HistoryKind.KEEP_ALL, depth=1, **limits):
        return WriterHistory(qos.History(kind, depth), qos.ResourceLimits(**limits))

    def test_keep_last_evicts_oldest_per_instance(self):
        history = self._history(qos.HistoryKind.KEEP_LAST, depth=2)
        for seq, handle in ((1, 7), (2, 7), (3, 8)):
            history.insert((seq, handle, b"", 0, qos.INFINITE_NS))
        assert sorted(history.by_seq) == [1, 2, 3]
        history.insert((4, 7, b"", 0, qos.INFINITE_NS))
        assert sorted(history.by_seq) == [2, 3, 4]  # 1 evicted, instance 8 untouched

    def test_release_after_eviction_emptied_the_instance(self):
        # Depth-1 eviction empties the instance bucket mid-insert; the
        # inserted sequence must still land in the index so a later
        # acknowledgment can release it.
        history = self._history(qos.HistoryKind.KEEP_LAST, depth=1)
        history.insert((1, 0, b"", 0, qos.INFINITE_NS))
        history.insert((2, 0, b"", 0, qos.INFINITE_NS))
        assert sorted(history.by_seq) == [2]
        assert {h: list(seqs) for h, seqs in history.per_instance.items()} == {0: [2]}
        assert history.release(2) == [2]
        assert history.by_seq == {} and history.per_instance == {}

    def test_keep_all_refuses_past_instance_cap(self):
        history = self._history(max_samples_per_instance=2)
        history.insert((1, 7, b"", 0, qos.INFINITE_NS))
        history.insert((2, 7, b"", 0, qos.INFINITE_NS))
        assert not history.has_room(7)
        assert history.has_room(8)
        with pytest.raises(ResourceLimitsError):
            history.insert((3, 7, b"", 0, qos.INFINITE_NS))

    def test_max_instances(self):
        history = self._history(max_instances=1)
        history.insert((1, 7, b"", 0, qos.INFINITE_NS))
        assert not history.has_room(8)

    def test_release_drops_acknowledged(self):
        history = self._history()
        for seq in (1, 2, 3):
            history.insert((seq, 0, b"", 0, qos.INFINITE_NS))
        assert sorted(history.release(2)) == [1, 2]
        assert sorted(history.by_seq) == [3]

    def test_expire_by_wall_clock(self):
        history = self._history()
        history.insert((1, 0, b"", 0, 50))
        history.insert((2, 0, b"", 0, 200))
        history.expire(now_wall_ns=100)
        assert sorted(history.by_seq) == [2]
        assert {h: list(seqs) for h, seqs in history.per_instance.items()} == {0: [2]}


class TestReaderHistory:
    def _history(self, kind=qos.HistoryKind.KEEP_ALL, depth=1, **limits):
        return ReaderHistory(qos.History(kind, depth), qos.ResourceLimits(**limits))

    def _info(self, seq, handle=0, guid=GUID_A):
        return SampleInfo(guid, seq, seq * 10, seq * 10, handle)

    def _sample(self, n):
        return idl.Sample("Counter", (n,))

    def test_keep_last_keeps_newest_arrivals(self):
        history = self._history(qos.HistoryKind.KEEP_LAST, depth=2)
        for seq in (1, 3, 2):
            outcome = history.insert((self._sample(seq), self._info(seq)))
            assert outcome.accepted
        assert history.total == 2
        kept = [info.sequence for _, info in history.read(10)]
        assert kept == [3, 2]

    def test_late_sample_evicts_the_oldest_arrival(self):
        history = self._history(qos.HistoryKind.KEEP_LAST, depth=2)
        history.insert((self._sample(5), self._info(5)))
        history.insert((self._sample(6), self._info(6)))
        outcome = history.insert((self._sample(1), self._info(1)))
        assert outcome.accepted and not outcome.evicted_arriving
        assert outcome.evicted_count == 1
        assert [info.sequence for _, info in history.read(10)] == [6, 1]

    def test_keep_all_rejections_are_reported(self):
        history = self._history(max_samples_per_instance=1)
        assert history.insert((self._sample(1), self._info(1))).accepted
        outcome = history.insert((self._sample(2), self._info(2)))
        assert (outcome.accepted, outcome.reason) == (False, "max_samples_per_instance")
        capped = self._history(max_samples=1)
        capped.insert((self._sample(1), self._info(1, handle=1)))
        assert capped.insert((self._sample(1),
                              self._info(1, handle=2))).reason == "max_samples"
        strict = self._history(max_instances=1)
        strict.insert((self._sample(1), self._info(1, handle=1)))
        assert strict.insert((self._sample(1),
                              self._info(1, handle=2))).reason == "max_instances"

    def test_read_keeps_take_removes(self):
        history = self._history()
        for seq in (1, 2):
            history.insert((self._sample(seq), self._info(seq)))
        assert len(history.read(10)) == 2
        assert len(history.read(10)) == 2
        assert len(history.take(1)) == 1
        assert len(history.take(10)) == 1
        assert history.take(10) == []

    def test_ordering_spans_instances_in_entry_order(self):
        history = self._history()
        history.insert((self._sample(1), self._info(1, handle=9)))
        history.insert((self._sample(2), self._info(2, handle=3)))
        handles = [info.instance_handle for _, info in history.read(10)]
        assert handles == [9, 3]

    def test_same_sequence_keeps_arrival_order(self):
        history = self._history()
        history.insert((self._sample(2), self._info(1, guid=GUID_B)))
        history.insert((self._sample(1), self._info(1, guid=GUID_A)))
        assert _values(history.read(10)) == [(2,), (1,)]


# ---------------------------------------------------------------------------
# One participant, local matching

@pytest.fixture
def solo():
    net = InProcNetwork()
    with DomainParticipant(0, transport=net.attach("solo"),
                           clock=ManualClock(1_000_000_000)) as participant:
        yield participant


class TestLocalPipeline:
    def test_write_reaches_local_reader(self, solo):
        topic = solo.create_topic("counters", _counter_type())
        reader = solo.create_datareader(topic)
        writer = solo.create_datawriter(topic)
        assert writer.matched_readers() == [reader.guid]
        assert reader.matched_writers() == [writer.guid]
        seq = writer.write({"n": 41})
        assert seq == 1
        pairs = reader.take()
        assert _values(pairs) == [(41,)]
        info = pairs[0][1]
        assert info.writer_guid == writer.guid
        assert info.sequence == 1
        assert info.source_timestamp_ns == 1_000_000_000

    def test_default_reader_history_keeps_one(self, solo):
        topic = solo.create_topic("counters", _counter_type())
        reader = solo.create_datareader(topic)
        writer = solo.create_datawriter(topic)
        for n in range(3):
            writer.write({"n": n})
        assert _values(reader.read()) == [(2,)]
        stats = reader.statistics()
        assert stats.samples_accepted == 3
        assert stats.evicted_by_history == 2

    def test_keyed_instances_evict_independently(self, solo):
        topic = solo.create_topic("kv", _keyed_type())
        reader = solo.create_datareader(
            topic, [qos.History(qos.HistoryKind.KEEP_LAST, 2)])
        writer = solo.create_datawriter(topic)
        for id_, v in ((1, 10), (1, 11), (1, 12), (2, 20)):
            writer.write({"id": id_, "v": v})
        values = sorted(_values(reader.read()))
        assert values == [(1, 11), (1, 12), (2, 20)]

    def test_listener_fires_on_accepted_sample(self, solo):
        topic = solo.create_topic("counters", _counter_type())
        seen = []
        reader = solo.create_datareader(
            topic, listener=lambda r: seen.extend(_values(r.take())))
        writer = solo.create_datawriter(topic)
        writer.write({"n": 1})
        writer.write({"n": 2})
        assert seen == [(1,), (2,)]

    def test_sample_too_large(self, solo):
        topic = solo.create_topic("text", idl.parse_idl("struct S { string t; };")[0])
        writer = solo.create_datawriter(topic)
        with pytest.raises(SampleTooLargeError):
            writer.write({"t": "x" * 65500})

    def test_closed_writer_rejects_writes(self, solo):
        topic = solo.create_topic("counters", _counter_type())
        reader = solo.create_datareader(topic)
        writer = solo.create_datawriter(topic)
        writer.close()
        assert reader.matched_writers() == []
        with pytest.raises(RuntimeError):
            writer.write({"n": 1})


class TestTopicsAndQosErrors:
    def test_topic_type_conflict(self, solo):
        topic = solo.create_topic("t", _counter_type())
        assert solo.create_topic("t", _counter_type()) is topic
        with pytest.raises(InconsistentTopicError):
            solo.create_topic("t", _keyed_type())

    @pytest.mark.parametrize("create", ["create_datareader", "create_datawriter"])
    def test_an_endpoint_takes_only_a_topic_of_its_own_participant(self, solo, create):
        """DDS 1.4, 2.2.2.4.1.5 and 2.2.2.5.2.5: a topic this participant's
        ``create_topic`` did not return is refused, so the readers of one
        writer on a participant all share one type."""
        topic = solo.create_topic("t", _counter_type())
        with DomainParticipant(0, transport=InProcNetwork().attach("other"),
                               clock=ManualClock(1_000_000_000)) as other:
            foreign = other.create_topic("t", _counter_type())
            for refused in (Topic("t", _counter_type(), topic.qos), foreign,
                            Topic("u", _counter_type(), topic.qos)):
                with pytest.raises(ValueError, match="not created by this participant"):
                    getattr(solo, create)(refused)
        assert solo.writers() == [] and solo.readers() == []
        # The topic create_topic returned again by name is the same one.
        again = solo.create_topic("t", _counter_type())
        assert getattr(solo, create)(again).topic is topic

    def test_invalid_topic_qos(self, solo):
        with pytest.raises(InvalidQosError):
            solo.create_topic("t", _counter_type(),
                              [qos.History(qos.HistoryKind.KEEP_LAST, 0)])

    def test_inapplicable_reader_policy(self, solo):
        topic = solo.create_topic("t", _counter_type())
        with pytest.raises(InvalidQosError):
            solo.create_datareader(topic, [qos.Lifespan(5)])

    def test_reader_accepts_subscriber_policies(self, solo):
        topic = solo.create_topic("t", _counter_type())
        reader = solo.create_datareader(topic, [qos.Partition(("p",))])
        assert reader.qos.value(qos.QosPolicyId.PARTITION).names == ("p",)

    def test_topic_qos_flows_into_endpoints(self, solo):
        topic = solo.create_topic(
            "t", _counter_type(),
            [qos.Reliability(qos.ReliabilityKind.RELIABLE)])
        writer = solo.create_datawriter(topic)
        reader = solo.create_datareader(topic)
        for entity in (writer, reader):
            assert (entity.qos.value(qos.QosPolicyId.RELIABILITY).kind
                    == qos.ReliabilityKind.RELIABLE)
        # Endpoint-level values override the topic's.
        loose = solo.create_datareader(
            topic, [qos.Reliability(qos.ReliabilityKind.BEST_EFFORT)])
        assert (loose.qos.value(qos.QosPolicyId.RELIABILITY).kind
                == qos.ReliabilityKind.BEST_EFFORT)

    def test_an_endpoint_is_validated_against_its_topics_values(self, solo):
        # Each value is checked once, the topic's at create_topic; the rule
        # between policies still applies to the merged profile.
        topic = solo.create_topic("t", _counter_type(), [qos.Deadline(1_000_000)])
        with pytest.raises(InvalidQosError) as refused:
            solo.create_datareader(topic, [qos.TimeBasedFilter(2_000_000)])
        assert refused.value.problems == [
            "TIME_BASED_FILTER minimum_separation exceeds DEADLINE period"]
        with pytest.raises(InvalidQosError) as refused:
            solo.create_datareader(topic, [qos.History(qos.HistoryKind.KEEP_LAST, 0),
                                           qos.Lifespan(5)])
        assert refused.value.problems == ["HISTORY KEEP_LAST depth must be >= 1",
                                          "LIFESPAN not applicable to DR"]
        assert solo.readers() == []
        reader = solo.create_datareader(topic, [qos.TimeBasedFilter(1_000_000)])
        assert reader.qos.value(qos.QosPolicyId.DEADLINE).period_ns == 1_000_000

    def test_profile_input_forms(self, solo):
        topic = solo.create_topic("t", _counter_type())
        from_map = solo.create_datareader(
            topic, {qos.QosPolicyId.HISTORY: qos.History(qos.HistoryKind.KEEP_ALL)})
        assert (from_map.qos.value(qos.QosPolicyId.HISTORY).kind
                == qos.HistoryKind.KEEP_ALL)
        ready = qos.QosProfile(qos.EntityKind.DATA_READER)
        solo.create_datareader(topic, ready)
        with pytest.raises(InvalidQosError):
            solo.create_datareader(topic, qos.QosProfile(qos.EntityKind.DATA_WRITER))


class TestMatchingRules:
    def test_incompatible_qos_is_recorded_not_matched(self, solo):
        topic = solo.create_topic("t", _counter_type())
        reader = solo.create_datareader(
            topic, [qos.Reliability(qos.ReliabilityKind.RELIABLE)])
        writer = solo.create_datawriter(topic)
        assert writer.matched_readers() == []
        assert reader.matched_writers() == []
        assert len(solo.incompatible_qos) == 1
        writer_guid, reader_guid, report = solo.incompatible_qos[0]
        assert (writer_guid, reader_guid) == (writer.guid, reader.guid)
        assert [v.policy_id for v in report.violations] == [qos.QosPolicyId.RELIABILITY]

    def test_partitions_must_intersect(self, solo):
        topic = solo.create_topic("t", _counter_type())
        reader = solo.create_datareader(topic, [qos.Partition(("right",))])
        writer = solo.create_datawriter(topic, [qos.Partition(("left",))])
        assert writer.matched_readers() == []
        assert solo.incompatible_qos == []  # partition splits are not violations
        shared = solo.create_datawriter(topic, [qos.Partition(("left", "right"))])
        assert shared.matched_readers() == [reader.guid]

    def test_different_topics_do_not_match(self, solo):
        t1 = solo.create_topic("one", _counter_type())
        t2 = solo.create_topic("two", _counter_type())
        writer = solo.create_datawriter(t1)
        solo.create_datareader(t2)
        assert writer.matched_readers() == []


class TestQosBehaviors:
    def test_transient_local_replays_to_late_joiner(self, solo):
        topic = solo.create_topic("t", _counter_type())
        durable = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
                   qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL),
                   qos.History(qos.HistoryKind.KEEP_ALL)]
        writer = solo.create_datawriter(topic, durable)
        for n in (1, 2, 3):
            writer.write({"n": n})
        reader = solo.create_datareader(topic, durable)
        assert _values(reader.read()) == [(1,), (2,), (3,)]

    def test_volatile_late_joiner_sees_nothing_old(self, solo):
        topic = solo.create_topic("t", _counter_type())
        writer = solo.create_datawriter(topic)
        writer.write({"n": 1})
        reader = solo.create_datareader(topic)
        assert reader.read() == []

    def test_exclusive_ownership_strength_and_failover(self, solo):
        topic = solo.create_topic("t", _counter_type())
        shared_qos = [qos.Ownership(qos.OwnershipKind.EXCLUSIVE),
                      qos.Deadline(100 * MS),
                      qos.History(qos.HistoryKind.KEEP_ALL)]
        reader = solo.create_datareader(topic, shared_qos)
        strong = solo.create_datawriter(topic, shared_qos + [qos.OwnershipStrength(10)])
        weak = solo.create_datawriter(topic, shared_qos + [qos.OwnershipStrength(5)])
        clock = solo.clock
        weak.write({"n": 1})        # only writer so far: accepted
        clock.advance(1 * MS)
        strong.write({"n": 2})      # stronger: takes the instance
        clock.advance(1 * MS)
        weak.write({"n": 3})        # weaker while the owner is alive: filtered
        clock.advance(150 * MS)
        weak.write({"n": 4})        # owner missed its deadline: failover
        values = sorted(v for (v,) in _values(reader.read()))
        assert values == [1, 2, 4]
        assert reader.statistics().ownership_filtered == 1

    def test_by_source_timestamp_drops_stale(self, solo):
        topic = solo.create_topic("t", _counter_type())
        ordered = [qos.DestinationOrder(qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP),
                   qos.History(qos.HistoryKind.KEEP_ALL)]
        reader = solo.create_datareader(topic, ordered)
        writer = solo.create_datawriter(topic, ordered)
        writer.write({"n": 1}, source_timestamp_ns=1000)
        writer.write({"n": 2}, source_timestamp_ns=900)   # older: dropped
        writer.write({"n": 3}, source_timestamp_ns=1000)  # tie, same writer: dropped
        writer.write({"n": 4}, source_timestamp_ns=1100)
        assert [v for (v,) in _values(reader.read())] == [1, 4]
        assert reader.statistics().destination_order_dropped == 2

    def test_time_based_filter_thins_arrivals(self, solo):
        topic = solo.create_topic("t", _counter_type())
        reader = solo.create_datareader(
            topic, [qos.TimeBasedFilter(10 * MS),
                    qos.History(qos.HistoryKind.KEEP_ALL)])
        writer = solo.create_datawriter(topic)
        writer.write({"n": 1})
        solo.clock.advance(1 * MS)
        writer.write({"n": 2})      # 1 ms after the last accept: dropped
        solo.clock.advance(9 * MS)
        writer.write({"n": 3})      # exactly at the separation: accepted
        assert [v for (v,) in _values(reader.read())] == [1, 3]
        assert reader.statistics().time_filter_dropped == 1

    def test_lifespan_expires_on_arrival(self, solo):
        topic = solo.create_topic("t", _counter_type(), [qos.Lifespan(50 * MS)])
        reader = solo.create_datareader(topic)
        writer = solo.create_datawriter(topic)
        now = solo.clock.wall_ns()
        writer.write({"n": 1}, source_timestamp_ns=now - 60 * MS)
        writer.write({"n": 2}, source_timestamp_ns=now - 10 * MS)
        assert [v for (v,) in _values(reader.read())] == [2]
        assert reader.statistics().lifespan_expired == 1

    def test_deadline_misses_counted_per_instance(self, solo):
        topic = solo.create_topic("kv", _keyed_type())
        reader = solo.create_datareader(topic, [qos.Deadline(100 * MS)])
        writer = solo.create_datawriter(topic, [qos.Deadline(100 * MS)])
        writer.write({"id": 1, "v": 0})
        writer.write({"id": 2, "v": 0})
        solo.clock.advance(350 * MS)
        missed = reader.check_deadlines()
        assert sorted(count for _, count in missed) == [3, 3]
        writer.write({"id": 1, "v": 1})
        solo.clock.advance(100 * MS)
        by_handle = dict(reader.check_deadlines())
        handle_1 = idl.key_hash(_keyed_type(), idl.Sample("KV", (1, 1)))
        assert by_handle[handle_1] == 4

    def test_reader_resource_limits_reject(self, solo):
        topic = solo.create_topic("t", _counter_type())
        reader = solo.create_datareader(
            topic, [qos.History(qos.HistoryKind.KEEP_ALL),
                    qos.ResourceLimits(max_samples_per_instance=2)])
        writer = solo.create_datawriter(topic)
        for n in range(4):
            writer.write({"n": n})
        stats = reader.statistics()
        assert stats.samples_accepted == 2
        assert stats.rejected_by_limits == 2

    def _full_reader(self, solo, policies, writer_policies=()):
        """A keep-all reader that holds one sample, and a writer."""
        topic = solo.create_topic("t", _counter_type())
        reader = solo.create_datareader(
            topic, policies + [qos.History(qos.HistoryKind.KEEP_ALL),
                               qos.ResourceLimits(max_samples=1)])
        return reader, solo.create_datawriter(topic, list(writer_policies))

    def test_time_filter_counts_from_the_last_accepted_sample(self, solo):
        reader, writer = self._full_reader(solo, [qos.TimeBasedFilter(100 * MS)])
        writer.write({"n": 1})
        solo.clock.advance(150 * MS)
        writer.write({"n": 2})      # refused by the full cache
        assert _values(reader.take()) == [(1,)]
        solo.clock.advance(60 * MS)
        writer.write({"n": 3})      # 210 ms after the last accepted sample
        assert _values(reader.take()) == [(3,)]
        stats = reader.statistics()
        assert (stats.rejected_by_limits, stats.time_filter_dropped) == (1, 0)

    def test_source_order_counts_from_the_last_accepted_sample(self, solo):
        by_source = [qos.DestinationOrder(qos.DestinationOrderKind.BY_SOURCE_TIMESTAMP)]
        reader, writer = self._full_reader(solo, by_source, by_source)
        writer.write({"n": 1}, source_timestamp_ns=100)
        writer.write({"n": 2}, source_timestamp_ns=300)  # refused by the full cache
        assert _values(reader.take()) == [(1,)]
        writer.write({"n": 3}, source_timestamp_ns=200)  # newer than the last accepted
        assert _values(reader.take()) == [(3,)]
        stats = reader.statistics()
        assert (stats.rejected_by_limits, stats.destination_order_dropped) == (1, 0)

    def test_deadline_counts_from_the_last_accepted_sample(self, solo):
        deadline = [qos.Deadline(100 * MS)]
        reader, writer = self._full_reader(solo, deadline, deadline)
        writer.write({"n": 0})
        for n in range(1, 6):
            solo.clock.advance(90 * MS)
            writer.write({"n": n})  # refused by the full cache
        stats = reader.statistics()
        assert (stats.samples_accepted, stats.rejected_by_limits) == (1, 5)
        # 450 ms since the one accepted sample: four whole periods missed.
        assert [count for _, count in reader.check_deadlines()] == [4]


# ---------------------------------------------------------------------------
# Two participants over the in-process network

def _pair(net, clock):
    a = DomainParticipant(0, transport=net.attach("A"), clock=clock,
                          static_peers=("B",))
    b = DomainParticipant(0, transport=net.attach("B"), clock=clock)
    return a, b


def _spin(*participants, rounds=1):
    for _ in range(rounds):
        for p in participants:
            p.spin_once()


class TestDiscovery:
    def setup_method(self):
        self.net = InProcNetwork()
        self.clock = ManualClock(1_000_000_000)
        self.a, self.b = _pair(self.net, self.clock)

    def teardown_method(self):
        self.a.close()
        self.b.close()

    def _matched_pair(self, reader_qos=None, writer_qos=None):
        topic_a = self.a.create_topic("t", _counter_type())
        topic_b = self.b.create_topic("t", _counter_type())
        writer = self.a.create_datawriter(topic_a, writer_qos)
        reader = self.b.create_datareader(topic_b, reader_qos)
        _spin(self.a, self.b, self.a, rounds=1)
        return writer, reader

    def test_match_forms_after_announce_exchange(self):
        writer, reader = self._matched_pair()
        assert writer.matched_readers() == [reader.guid]
        assert reader.matched_writers() == [writer.guid]
        assert self.a.discovery.peer_count() == 1
        assert self.b.discovery.peer_count() == 1

    def test_data_flows_between_processes(self):
        writer, reader = self._matched_pair(
            reader_qos=[qos.History(qos.HistoryKind.KEEP_ALL)])
        for n in (1, 2, 3):
            writer.write({"n": n})
        _spin(self.b)
        assert _values(reader.take()) == [(1,), (2,), (3,)]

    def test_reliable_flow_acks_and_releases(self):
        reliable = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
                    qos.History(qos.HistoryKind.KEEP_ALL)]
        writer, reader = self._matched_pair(reader_qos=reliable,
                                            writer_qos=reliable)
        for n in (1, 2):
            writer.write({"n": n})
        assert writer.unacknowledged()
        # Heartbeat, acknack, release. Each hop needs a spin on each side.
        for _ in range(4):
            _spin(self.a, self.b)
            self.clock.advance(60 * MS)
        assert not writer.unacknowledged()
        assert len(writer.history) == 0
        assert _values(reader.take()) == [(1,), (2,)]

    def test_closed_endpoint_unmatches_after_absences(self):
        writer, reader = self._matched_pair()
        reader.close()
        for _ in range(5):
            self.clock.advance(1_000 * MS)
            _spin(self.b, self.a)
            if writer.matched_readers() == []:
                break
        assert writer.matched_readers() == []

    def test_silent_peer_dropped_with_endpoints(self):
        writer, reader = self._matched_pair()
        self.clock.advance(3_100 * MS)
        _spin(self.a)  # b never spins in this window
        assert writer.matched_readers() == []
        assert self.a.discovery.peer_count() == 0

    def test_malformed_datagrams_counted_and_survived(self):
        rogue = self.net.attach("rogue")
        rogue.send(b"not a datagram", "B")
        rogue.send(b"MDDS\x01\x00\x00\x00" + b"\x00" * 12, "B")  # no submessages
        _spin(self.b)
        assert self.b.malformed_datagrams == 2
        writer, reader = self._matched_pair()
        writer.write({"n": 5})
        _spin(self.b)
        assert _values(reader.take()) == [(5,)]

    def test_blocked_keep_all_writer_raises_after_budget(self):
        reliable = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
                    qos.History(qos.HistoryKind.KEEP_ALL),
                    qos.ResourceLimits(max_samples=1, max_samples_per_instance=1)]
        writer, reader = self._matched_pair(
            reader_qos=[qos.Reliability(qos.ReliabilityKind.RELIABLE)],
            writer_qos=reliable)
        writer.write({"n": 1})
        with pytest.raises(ResourceLimitsError):
            writer.write({"n": 2})  # the peer never acks: no room appears


class TestFanOut:
    """One writer, one reader on each of two other participants."""

    def setup_method(self):
        net = InProcNetwork()
        clock = ManualClock(1_000_000_000)
        names = ("A", "B", "C")
        self.parts = [DomainParticipant(0, transport=net.attach(name), clock=clock,
                                        static_peers=tuple(n for n in names if n != name))
                      for name in names]
        keep_all = [qos.History(qos.HistoryKind.KEEP_ALL)]
        a, b, c = self.parts
        self.writer = a.create_datawriter(a.create_topic("kv", _keyed_type()))
        self.readers = [p.create_datareader(p.create_topic("kv", _keyed_type()), keep_all)
                        for p in (b, c)]
        _spin(*self.parts, rounds=2)
        assert len(self.writer.matched_readers()) == 2

    def teardown_method(self):
        for participant in self.parts:
            participant.close()

    def test_one_encoding_serves_every_destination(self, monkeypatch):
        packed, handed = record_a_write(monkeypatch, self.writer)
        sequence = self.writer.write({"id": 1, "v": 2})
        assert_one_pass(self.writer, sequence, packed, handed, 2)
        _spin(*self.parts[1:])
        for reader in self.readers:
            assert _values(reader.take()) == [(1, 2)]

    def test_remote_samples_share_one_writer_guid(self):
        for n in range(3):
            self.writer.write({"id": n % 2, "v": n})
        _spin(*self.parts[1:])
        for reader in self.readers:
            guids = [info.writer_guid for _, info in reader.take()]
            assert guids == [self.writer.guid] * 3
            assert all(g is guids[0] for g in guids)


class TestOneDeserializePerParticipant:
    """A DATA handed to several readers of one participant is deserialized
    once; each reader still runs its own session check first."""

    def setup_method(self):
        self.net = InProcNetwork()
        self.clock = ManualClock(1_000_000_000)
        self.a, self.b = _pair(self.net, self.clock)
        self.rogue = self.net.attach("rogue")
        self.writer = self.a.create_datawriter(self.a.create_topic("t", _counter_type()))
        self.topic_b = self.b.create_topic("t", _counter_type())

    def teardown_method(self):
        self.a.close()
        self.b.close()

    def _reader(self, topic=None):
        reader = self.b.create_datareader(topic or self.topic_b,
                                          [qos.History(qos.HistoryKind.KEEP_ALL)])
        _spin(self.a, self.b, self.a)
        assert reader.matched_writers() == [self.writer.guid]
        return reader

    def _count_deserialize(self, monkeypatch):
        calls = []
        original = idl.deserialize

        def counting(descriptor, *data):
            calls.append(descriptor)
            return original(descriptor, *data)

        monkeypatch.setattr(idl, "deserialize", counting)
        return calls

    def _inject(self, sequence, payload):
        """A DATA that claims to come from the matched writer."""
        sub = wire.Data(self.writer.guid.entity_id, 0, sequence, 0, 0, payload)
        self.rogue.send(wire.encode_message(wire.WireMessage(self.writer.guid.prefix, (sub,))),
                        "B")
        _spin(self.b)

    def test_one_deserialize_serves_every_local_reader(self, monkeypatch):
        readers = [self._reader(), self._reader()]
        calls = self._count_deserialize(monkeypatch)
        self.writer.write({"n": 7})
        _spin(self.b)
        assert calls == [self.topic_b.type]
        first, second = (reader.take() for reader in readers)
        assert first == second and _values(first) == [(7,)]

    def test_malformed_payload_counts_on_each_reader_that_accepts_it(self, monkeypatch):
        early = self._reader()
        self.writer.write({"n": 1})  # sequence 1
        _spin(self.b)
        late = self._reader()
        calls = self._count_deserialize(monkeypatch)
        self._inject(1, b"\x01")  # a duplicate for early, fresh for late
        assert (early.stats.duplicates_discarded, early.stats.malformed_payloads) == (1, 0)
        assert (late.stats.duplicates_discarded, late.stats.malformed_payloads) == (0, 1)
        assert len(calls) == 1
        self._inject(2, b"\x01")
        assert [r.stats.malformed_payloads for r in (early, late)] == [1, 2]
        assert len(calls) == 2
        assert _values(early.take()) == [(1,)] and late.take() == []

    def test_a_topic_asked_for_again_with_another_type_decodes_once(self, monkeypatch):
        """``create_topic`` returns the registered topic for a type of the
        same name, so a reader created on it decodes with that topic's
        type, and shares the one decode."""
        first = self._reader()
        unsigned_type = idl.parse_idl("struct Counter { unsigned long n; };")[0]
        again = self.b.create_topic("t", unsigned_type)
        assert again is self.topic_b
        second = self._reader(again)
        calls = self._count_deserialize(monkeypatch)
        self.writer.write({"n": -1})
        _spin(self.b)
        assert calls == [self.topic_b.type]
        assert _values(first.take()) == _values(second.take()) == [(-1,)]


class TestSameParticipantReliable:
    """A reliable reader on the writer's own participant acks like a remote
    one: its replies to the writer's heartbeats release the cache."""

    RELIABLE = [qos.Reliability(qos.ReliabilityKind.RELIABLE),
                qos.History(qos.HistoryKind.KEEP_ALL)]
    DURABLE = RELIABLE + [qos.Durability(qos.DurabilityKind.TRANSIENT_LOCAL)]

    def setup_method(self):
        self.net = InProcNetwork()
        self.clock = ManualClock(1_000_000_000)
        self.a, self.b = _pair(self.net, self.clock)
        self.topic = self.a.create_topic("t", _counter_type())

    def teardown_method(self):
        self.a.close()
        self.b.close()

    def _heartbeat_rounds(self, *participants):
        for _ in range(4):
            _spin(*participants)
            self.clock.advance(60 * MS)

    def test_local_acknacks_release_a_keep_all_writer(self):
        reader = self.a.create_datareader(self.topic, self.RELIABLE)
        writer = self.a.create_datawriter(self.topic, self.RELIABLE)
        for n in (1, 2, 3):
            writer.write({"n": n})
        assert writer.unacknowledged()
        assert len(writer.history) == 3
        self._heartbeat_rounds(self.a)
        assert not writer.unacknowledged()
        assert len(writer.history) == 0
        assert _values(reader.take()) == [(1,), (2,), (3,)]
        assert reader.stats.duplicates_discarded == 0

    def test_local_and_remote_reader_share_one_write(self, monkeypatch):
        local = self.a.create_datareader(self.topic, self.RELIABLE)
        writer = self.a.create_datawriter(self.topic, self.RELIABLE)
        remote = self.b.create_datareader(self.b.create_topic("t", _counter_type()),
                                          self.RELIABLE)
        _spin(self.a, self.b, self.a)
        assert writer.matched_readers() == [local.guid, remote.guid]
        packed, handed = record_a_write(monkeypatch, writer)
        sequence = writer.write({"n": 9})
        assert_one_pass(writer, sequence, packed, handed, 2)
        assert len(writer.history) == 1
        self._heartbeat_rounds(self.a, self.b)
        assert not writer.unacknowledged()
        assert len(writer.history) == 0
        for reader in (local, remote):
            assert _values(reader.take()) == [(9,)]
            assert reader.stats.samples_received == 1

    def test_transient_local_late_joiner_acks_the_replay(self):
        writer = self.a.create_datawriter(self.topic, self.DURABLE)
        for n in (1, 2, 3):
            writer.write({"n": n})
        assert not writer.unacknowledged()  # no reader yet
        reader = self.a.create_datareader(self.topic, self.DURABLE)
        assert _values(reader.read()) == [(1,), (2,), (3,)]
        assert writer.unacknowledged()  # the replay waits for an ack
        self._heartbeat_rounds(self.a)
        assert not writer.unacknowledged()
        assert len(writer.history) == 3  # the cache outlives acks for late joiners
        assert reader.stats.samples_received == 3


# ---------------------------------------------------------------------------
# Read-only entry points and the participant lock

_READ_ONLY_CALLS = {
    "reader.statistics": lambda r, w: r.statistics(),
    "reader.check_deadlines": lambda r, w: r.check_deadlines(),
    "reader.matches": lambda r, w: r.matches(),
    "reader.matched_writers": lambda r, w: r.matched_writers(),
    "writer.check_deadlines": lambda r, w: w.check_deadlines(),
    "writer.unacknowledged": lambda r, w: w.unacknowledged(),
    "writer.matches": lambda r, w: w.matches(),
    "writer.matched_readers": lambda r, w: w.matched_readers(),
}


@pytest.mark.parametrize("name", list(_READ_ONLY_CALLS))
def test_read_only_call_waits_for_the_participant_lock(solo, name):
    """State these calls read is mutated by the pump thread under the
    participant lock, so while another thread holds the lock the call
    must not return."""
    topic = solo.create_topic("counters", _counter_type())
    reader = solo.create_datareader(topic)
    writer = solo.create_datawriter(topic)
    writer.write({"n": 1})
    call = _READ_ONLY_CALLS[name]
    returned = threading.Event()
    caller = threading.Thread(target=lambda: (call(reader, writer), returned.set()))
    with solo._lock:
        caller.start()
        assert not returned.wait(0.1), f"{name} returned while the lock was held"
    assert returned.wait(5.0)
    caller.join(5.0)
    assert not caller.is_alive()
