"""QoS policies: the applicability table, typed policy values, profiles,
and the request/offered compatibility engine.

Eighteen policies are modeled. ``APPLICABILITY`` says which entity kinds
each one may be set on. A profile is fixed at creation: no policy changes
after its entity exists. Compatibility is a pure function producing a
report, never an exception.

The policies an endpoint advertises are listed once, in ``ADVERTISED_QOS``:
``RxoQos`` and the compatibility rules read it. The announce codec reads
only ``RxoQos``, whose fields it sends in field order as one fixed record.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Union, get_args

# Duration sentinel: treated as "infinite", compares above any real duration
# and still fits a signed 64-bit wire field.
INFINITE_NS = 2**63 - 1


class EntityKind(Enum):
    # Members are singletons, so identity hashing is equality hashing, and
    # it runs in C where Enum's own hashes the name in Python; both enums
    # key every policy table.
    __hash__ = object.__hash__

    TOPIC = "T"
    DATA_READER = "DR"
    DATA_WRITER = "DW"
    PARTICIPANT = "DP"
    PUBLISHER = "P"
    SUBSCRIBER = "S"


class QosPolicyId(Enum):
    """The 18 policies, in table row order."""

    __hash__ = object.__hash__  # as EntityKind's

    DURABILITY = 1
    DURABILITY_SERVICE = 2
    LIFESPAN = 3
    HISTORY = 4
    PRESENTATION = 5
    RELIABILITY = 6
    PARTITION = 7
    DESTINATION_ORDER = 8
    OWNERSHIP = 9
    OWNERSHIP_STRENGTH = 10
    DEADLINE = 11
    LATENCY_BUDGET = 12
    TRANSPORT_PRIORITY = 13
    TIME_BASED_FILTER = 14
    RESOURCE_LIMITS = 15
    USER_DATA = 16
    TOPIC_DATA = 17
    GROUP_DATA = 18


_K = EntityKind
# The entity kinds each policy may be set on, one row per policy in table
# row order. Entity creation refuses a policy set on any other kind.
APPLICABILITY: dict[QosPolicyId, frozenset[EntityKind]] = {
    QosPolicyId.DURABILITY: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.DURABILITY_SERVICE: frozenset({_K.TOPIC, _K.DATA_WRITER}),
    QosPolicyId.LIFESPAN: frozenset({_K.TOPIC, _K.DATA_WRITER}),
    QosPolicyId.HISTORY: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.PRESENTATION: frozenset({_K.PUBLISHER, _K.SUBSCRIBER}),
    QosPolicyId.RELIABILITY: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.PARTITION: frozenset({_K.PUBLISHER, _K.SUBSCRIBER}),
    QosPolicyId.DESTINATION_ORDER: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.OWNERSHIP: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.OWNERSHIP_STRENGTH: frozenset({_K.DATA_WRITER}),
    QosPolicyId.DEADLINE: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.LATENCY_BUDGET: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.TRANSPORT_PRIORITY: frozenset({_K.TOPIC, _K.DATA_WRITER}),
    QosPolicyId.TIME_BASED_FILTER: frozenset({_K.DATA_READER}),
    QosPolicyId.RESOURCE_LIMITS: frozenset({_K.TOPIC, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.USER_DATA: frozenset({_K.PARTICIPANT, _K.DATA_READER, _K.DATA_WRITER}),
    QosPolicyId.TOPIC_DATA: frozenset({_K.TOPIC}),
    QosPolicyId.GROUP_DATA: frozenset({_K.PUBLISHER, _K.SUBSCRIBER}),
}

assert list(APPLICABILITY) == list(QosPolicyId)


# ---------------------------------------------------------------------------
# Policy value kinds. IntEnum so the offered >= requested orderings are just
# integer comparisons.

class ReliabilityKind(IntEnum):
    BEST_EFFORT = 0
    RELIABLE = 1


class DurabilityKind(IntEnum):
    VOLATILE = 0
    TRANSIENT_LOCAL = 1


class HistoryKind(IntEnum):
    KEEP_LAST = 0
    KEEP_ALL = 1


class DestinationOrderKind(IntEnum):
    BY_RECEPTION_TIMESTAMP = 0
    BY_SOURCE_TIMESTAMP = 1


class OwnershipKind(IntEnum):
    SHARED = 0
    EXCLUSIVE = 1


class AccessScope(IntEnum):
    INSTANCE = 0
    TOPIC = 1


@dataclass(frozen=True)
class Reliability:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.RELIABILITY
    kind: ReliabilityKind = ReliabilityKind.BEST_EFFORT


@dataclass(frozen=True)
class Durability:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.DURABILITY
    kind: DurabilityKind = DurabilityKind.VOLATILE


@dataclass(frozen=True)
class DurabilityService:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.DURABILITY_SERVICE
    cleanup_delay_ns: int = 0


@dataclass(frozen=True)
class Lifespan:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.LIFESPAN
    duration_ns: int = INFINITE_NS


@dataclass(frozen=True)
class History:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.HISTORY
    kind: HistoryKind = HistoryKind.KEEP_LAST
    depth: int = 1


@dataclass(frozen=True)
class Presentation:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.PRESENTATION
    access_scope: AccessScope = AccessScope.INSTANCE
    coherent_access: bool = False
    ordered_access: bool = False


@dataclass(frozen=True)
class Partition:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.PARTITION
    names: tuple[str, ...] = ("",)


@dataclass(frozen=True)
class DestinationOrder:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.DESTINATION_ORDER
    kind: DestinationOrderKind = DestinationOrderKind.BY_RECEPTION_TIMESTAMP


@dataclass(frozen=True)
class Ownership:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.OWNERSHIP
    kind: OwnershipKind = OwnershipKind.SHARED


@dataclass(frozen=True)
class OwnershipStrength:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.OWNERSHIP_STRENGTH
    value: int = 0


@dataclass(frozen=True)
class Deadline:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.DEADLINE
    period_ns: int = INFINITE_NS


@dataclass(frozen=True)
class LatencyBudget:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.LATENCY_BUDGET
    duration_ns: int = 0


@dataclass(frozen=True)
class TransportPriority:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.TRANSPORT_PRIORITY
    value: int = 0


@dataclass(frozen=True)
class TimeBasedFilter:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.TIME_BASED_FILTER
    minimum_separation_ns: int = 0


@dataclass(frozen=True)
class ResourceLimits:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.RESOURCE_LIMITS
    # None means unlimited.
    max_samples: Optional[int] = None
    max_instances: Optional[int] = None
    max_samples_per_instance: Optional[int] = None


@dataclass(frozen=True)
class UserData:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.USER_DATA
    value: bytes = b""


@dataclass(frozen=True)
class TopicData:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.TOPIC_DATA
    value: bytes = b""


@dataclass(frozen=True)
class GroupData:
    policy_id: ClassVar[QosPolicyId] = QosPolicyId.GROUP_DATA
    value: bytes = b""


# The 18 value classes, in table row order.
QosValue = Union[
    Durability, DurabilityService, Lifespan, History, Presentation, Reliability,
    Partition, DestinationOrder, Ownership, OwnershipStrength, Deadline,
    LatencyBudget, TransportPriority, TimeBasedFilter, ResourceLimits,
    UserData, TopicData, GroupData,
]

_VALUE_TYPES: dict[QosPolicyId, type] = {cls.policy_id: cls for cls in get_args(QosValue)}

assert list(_VALUE_TYPES) == list(QosPolicyId)


# The value each absent policy stands for, built once: values are frozen,
# so every profile shares them.
_DEFAULTS: dict[QosPolicyId, QosValue] = {pid: cls() for pid, cls in _VALUE_TYPES.items()}


def default_value(policy_id: QosPolicyId) -> QosValue:
    """The value an absent policy stands for: one shared, frozen value."""
    return _DEFAULTS[policy_id]


def value_errors(value: QosValue) -> list[str]:
    """Violations of a single policy value's own invariants."""
    errors = []
    pid = value.policy_id
    if isinstance(value, History):
        if value.kind == HistoryKind.KEEP_LAST and value.depth < 1:
            errors.append("HISTORY KEEP_LAST depth must be >= 1")
    elif isinstance(value, ResourceLimits):
        for name in ("max_samples", "max_instances", "max_samples_per_instance"):
            limit = getattr(value, name)
            if limit is not None and limit < 1:
                errors.append(f"RESOURCE_LIMITS {name} must be >= 1 or unlimited")
        if (value.max_samples is not None
                and value.max_samples_per_instance is not None
                and value.max_samples < value.max_samples_per_instance):
            errors.append("RESOURCE_LIMITS max_samples must be >= max_samples_per_instance")
    elif isinstance(value, (Lifespan, LatencyBudget)):
        if value.duration_ns < 0:
            errors.append(f"{pid.name} duration must be >= 0")
    elif isinstance(value, Deadline):
        if value.period_ns < 0:
            errors.append("DEADLINE period must be >= 0")
    elif isinstance(value, TimeBasedFilter):
        if value.minimum_separation_ns < 0:
            errors.append("TIME_BASED_FILTER minimum_separation must be >= 0")
    elif isinstance(value, (Presentation, DurabilityService, TransportPriority)):
        if value != _DEFAULTS[pid]:  # nothing implements them
            errors.append(f"{pid.name} is not supported: only its default value is accepted")
    elif isinstance(value, Partition):
        if not all(isinstance(n, str) for n in value.names):
            errors.append("PARTITION names must be text")
    return errors


# ---------------------------------------------------------------------------
# Profiles

class QosError(Exception):
    pass


@dataclass(frozen=True)
class QosProfile:
    """Immutable policy snapshot for one entity. Absent policy means default."""

    entity_kind: EntityKind
    policies: Mapping[QosPolicyId, QosValue] = field(default_factory=dict)

    def value(self, policy_id: QosPolicyId) -> QosValue:
        """The policy's value; for an absent one, the shared default."""
        value = self.policies.get(policy_id)
        return default_value(policy_id) if value is None else value


def profile(entity_kind: EntityKind, values: Iterable[QosValue] = ()) -> QosProfile:
    policies: dict[QosPolicyId, QosValue] = {}
    for value in values:
        policies[value.policy_id] = value
    return QosProfile(entity_kind, policies)


def validate_profile(prof: QosProfile,
                     applicable_kinds: Optional[frozenset[EntityKind]] = None) -> list[str]:
    """All validation errors for a profile; empty list means valid.

    ``applicable_kinds`` widens the applicability check for collapsed entity
    models (a writer that also plays the publisher role); by default only the
    profile's own entity kind counts.
    """
    kinds = applicable_kinds if applicable_kinds is not None else frozenset({prof.entity_kind})
    errors = []
    for pid, value in prof.policies.items():
        if APPLICABILITY[pid].isdisjoint(kinds):
            errors.append(f"{pid.name} not applicable to {prof.entity_kind.value}")
        if type(value) is not _VALUE_TYPES[pid]:
            errors.append(f"{pid.name} carries a value of the wrong variant")
            continue
        errors.extend(value_errors(value))
    errors.extend(cross_policy_errors(prof, kinds))
    return errors


def cross_policy_errors(prof: QosProfile, kinds: frozenset[EntityKind]) -> list[str]:
    """The violations of the rules between policies, the part of
    ``validate_profile`` that a profile merged from values validated on
    their own still needs: a reader's filter separation cannot exceed its
    deadline."""
    if EntityKind.DATA_READER in kinds:
        tbf = prof.policies.get(QosPolicyId.TIME_BASED_FILTER)
        if (tbf is not None and tbf.minimum_separation_ns
                > prof.value(QosPolicyId.DEADLINE).period_ns):
            return ["TIME_BASED_FILTER minimum_separation exceeds DEADLINE period"]
    return []


# ---------------------------------------------------------------------------
# Request/offered compatibility

@dataclass(frozen=True)
class PolicyViolation:
    policy_id: QosPolicyId
    offered: QosValue
    requested: QosValue


@dataclass(frozen=True)
class CompatibilityReport:
    violations: tuple[PolicyViolation, ...] = ()

    @property
    def compatible(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.compatible:
            return "compatible"
        parts = [
            f"{v.policy_id.name}: offered {v.offered} < requested {v.requested}"
            for v in self.violations
        ]
        return "; ".join(parts)


@dataclass(frozen=True)
class RxoQos:
    """The policy values an endpoint advertises in announces: the negotiated
    ones, plus partition names and ownership strength (match-affecting but
    not negotiated). ``ADVERTISED_QOS`` says which fields hold which policy.
    An announce carries the partitions, then every other field, in this
    order, as one fixed 27-byte record (docs/wire.md)."""

    reliability: ReliabilityKind = ReliabilityKind.BEST_EFFORT
    durability: DurabilityKind = DurabilityKind.VOLATILE
    destination_order: DestinationOrderKind = DestinationOrderKind.BY_RECEPTION_TIMESTAMP
    ownership: OwnershipKind = OwnershipKind.SHARED
    ownership_strength: int = 0
    presentation_scope: AccessScope = AccessScope.INSTANCE
    presentation_coherent: bool = False
    presentation_ordered: bool = False
    deadline_period_ns: int = INFINITE_NS
    latency_budget_ns: int = 0
    partitions: tuple[str, ...] = ("",)

    @classmethod
    def from_profile(cls, prof: QosProfile) -> "RxoQos":
        """The advertised values of a profile, its defaults included."""
        values = {**_DEFAULTS, **prof.policies}
        presentation = values[QosPolicyId.PRESENTATION]
        return cls(reliability=values[QosPolicyId.RELIABILITY].kind,
                   durability=values[QosPolicyId.DURABILITY].kind,
                   destination_order=values[QosPolicyId.DESTINATION_ORDER].kind,
                   ownership=values[QosPolicyId.OWNERSHIP].kind,
                   ownership_strength=values[QosPolicyId.OWNERSHIP_STRENGTH].value,
                   presentation_scope=presentation.access_scope,
                   presentation_coherent=presentation.coherent_access,
                   presentation_ordered=presentation.ordered_access,
                   deadline_period_ns=values[QosPolicyId.DEADLINE].period_ns,
                   latency_budget_ns=values[QosPolicyId.LATENCY_BUDGET].duration_ns,
                   partitions=values[QosPolicyId.PARTITION].names)


@dataclass(frozen=True)
class AdvertisedPolicy:
    """One row of ``ADVERTISED_QOS``: a policy, the ``RxoQos`` fields that
    hold its value (in the field order of its value class) and, for a
    negotiated policy, the comparison each offered field must pass against
    the requested one."""

    id: QosPolicyId
    fields: tuple[str, ...]
    satisfies: Optional[Callable[[object, object], bool]] = None

    def values(self, rxo: RxoQos) -> list:
        return [getattr(rxo, name) for name in self.fields]

    def value(self, rxo: RxoQos) -> QosValue:
        return _VALUE_TYPES[self.id](*self.values(rxo))


# The advertised policies, in the order violation reports list them; the
# announce does not use this order (see ``RxoQos``). Kinds with a strength
# ordering must be offered at least as strong as requested, and so must the
# presentation flags (an offered flag serves any request; a missing one
# serves only a request without it). Budget-style durations must be offered
# at most as long as requested; ownership kinds must match exactly.
ADVERTISED_QOS: tuple[AdvertisedPolicy, ...] = (
    AdvertisedPolicy(QosPolicyId.RELIABILITY, ("reliability",), operator.ge),
    AdvertisedPolicy(QosPolicyId.DURABILITY, ("durability",), operator.ge),
    AdvertisedPolicy(QosPolicyId.DESTINATION_ORDER, ("destination_order",), operator.ge),
    AdvertisedPolicy(QosPolicyId.OWNERSHIP, ("ownership",), operator.eq),
    AdvertisedPolicy(QosPolicyId.OWNERSHIP_STRENGTH, ("ownership_strength",)),
    AdvertisedPolicy(QosPolicyId.DEADLINE, ("deadline_period_ns",), operator.le),
    AdvertisedPolicy(QosPolicyId.LATENCY_BUDGET, ("latency_budget_ns",), operator.le),
    AdvertisedPolicy(QosPolicyId.PRESENTATION, ("presentation_scope", "presentation_coherent",
                                                "presentation_ordered"), operator.ge),
)


def _negotiated(*comparisons) -> Callable[[RxoQos], tuple]:
    """A getter of the negotiated fields whose rows use one of
    ``comparisons``, in table order."""
    return operator.attrgetter(*[name for row in ADVERTISED_QOS
                                 if row.satisfies in comparisons for name in row.fields])


# check_rxo passes a compatible pair with two C-level getters: the fields
# an offer must give at least as strong as the request, and those it
# must give at most as long. An exact field (operator.eq) is in both.
assert {row.satisfies for row in ADVERTISED_QOS} <= {None, operator.ge, operator.le, operator.eq}
_AT_LEAST = _negotiated(operator.ge, operator.eq)
_AT_MOST = _negotiated(operator.le, operator.eq)
# The report of every compatible pair.
_COMPATIBLE = CompatibilityReport()


def check_rxo(offered: RxoQos, requested: RxoQos) -> CompatibilityReport:
    """Evaluate the request/offered contract between a writer's advertised
    QoS and a reader's. Violations come in ``ADVERTISED_QOS`` order; a
    compatible pair gets one shared empty report."""
    if (all(map(operator.ge, _AT_LEAST(offered), _AT_LEAST(requested)))
            and all(map(operator.le, _AT_MOST(offered), _AT_MOST(requested)))):
        return _COMPATIBLE
    return CompatibilityReport(tuple(
        PolicyViolation(row.id, row.value(offered), row.value(requested))
        for row in ADVERTISED_QOS if row.satisfies is not None
        and not all(map(row.satisfies, row.values(offered), row.values(requested)))))


def check_compatibility(offered: QosProfile, requested: QosProfile) -> CompatibilityReport:
    """``check_rxo`` on the advertised values of a writer-side profile and a
    reader-side profile."""
    return check_rxo(RxoQos.from_profile(offered), RxoQos.from_profile(requested))


def partitions_intersect(a: Iterable[str], b: Iterable[str]) -> bool:
    """Partition match rule: name lists intersect by exact text equality; an
    empty list stands for the single default name ""."""
    sa = set(a) or {""}
    sb = set(b) or {""}
    return not sa.isdisjoint(sb)


# ---------------------------------------------------------------------------
# Profile files: line-oriented "policy.key = value" text

class QosFileError(QosError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _parse_duration(text: str) -> int:
    if text.lower() == "infinite":
        return INFINITE_NS
    return int(text)


def _parse_limit(text: str) -> Optional[int]:
    if text.lower() == "unlimited":
        return None
    return int(text)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_enum(enum_cls, text: str):
    try:
        return enum_cls[text.strip().upper()]
    except KeyError:
        names = ", ".join(m.name for m in enum_cls)
        raise ValueError(f"expected one of {names}, got {text!r}") from None


# key -> (policy id, field name, parser)
_FILE_KEYS = {
    "reliability.kind": (QosPolicyId.RELIABILITY, "kind", lambda t: _parse_enum(ReliabilityKind, t)),
    "durability.kind": (QosPolicyId.DURABILITY, "kind", lambda t: _parse_enum(DurabilityKind, t)),
    "durability_service.cleanup_delay_ns": (QosPolicyId.DURABILITY_SERVICE, "cleanup_delay_ns", _parse_duration),
    "lifespan.duration_ns": (QosPolicyId.LIFESPAN, "duration_ns", _parse_duration),
    "history.kind": (QosPolicyId.HISTORY, "kind", lambda t: _parse_enum(HistoryKind, t)),
    "history.depth": (QosPolicyId.HISTORY, "depth", int),
    "presentation.access_scope": (QosPolicyId.PRESENTATION, "access_scope", lambda t: _parse_enum(AccessScope, t)),
    "presentation.coherent_access": (QosPolicyId.PRESENTATION, "coherent_access", _parse_bool),
    "presentation.ordered_access": (QosPolicyId.PRESENTATION, "ordered_access", _parse_bool),
    "partition.names": (QosPolicyId.PARTITION, "names", lambda t: tuple(n.strip() for n in t.split(","))),
    "destination_order.kind": (QosPolicyId.DESTINATION_ORDER, "kind", lambda t: _parse_enum(DestinationOrderKind, t)),
    "ownership.kind": (QosPolicyId.OWNERSHIP, "kind", lambda t: _parse_enum(OwnershipKind, t)),
    "ownership_strength.value": (QosPolicyId.OWNERSHIP_STRENGTH, "value", int),
    "deadline.period_ns": (QosPolicyId.DEADLINE, "period_ns", _parse_duration),
    "latency_budget.duration_ns": (QosPolicyId.LATENCY_BUDGET, "duration_ns", _parse_duration),
    "transport_priority.value": (QosPolicyId.TRANSPORT_PRIORITY, "value", int),
    "time_based_filter.minimum_separation_ns": (QosPolicyId.TIME_BASED_FILTER, "minimum_separation_ns", _parse_duration),
    "resource_limits.max_samples": (QosPolicyId.RESOURCE_LIMITS, "max_samples", _parse_limit),
    "resource_limits.max_instances": (QosPolicyId.RESOURCE_LIMITS, "max_instances", _parse_limit),
    "resource_limits.max_samples_per_instance": (QosPolicyId.RESOURCE_LIMITS, "max_samples_per_instance", _parse_limit),
    "user_data.hex": (QosPolicyId.USER_DATA, "value", bytes.fromhex),
    "topic_data.hex": (QosPolicyId.TOPIC_DATA, "value", bytes.fromhex),
    "group_data.hex": (QosPolicyId.GROUP_DATA, "value", bytes.fromhex),
}


def parse_qos_settings(text: str) -> dict[QosPolicyId, QosValue]:
    """Parse a profile file into policy values.

    Lines look like ``reliability.kind = RELIABLE``; ``#`` starts a comment;
    unknown keys raise ``QosFileError``.
    """
    fields_by_policy: dict[QosPolicyId, dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise QosFileError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, _, value_text = line.partition("=")
        key = key.strip().lower()
        value_text = value_text.strip()
        if key not in _FILE_KEYS:
            raise QosFileError(lineno, f"unknown key {key!r}")
        pid, field_name, parser = _FILE_KEYS[key]
        try:
            parsed = parser(value_text)
        except ValueError as exc:
            raise QosFileError(lineno, f"{key}: {exc}") from None
        fields_by_policy.setdefault(pid, {})[field_name] = parsed

    settings: dict[QosPolicyId, QosValue] = {}
    for pid, kwargs in fields_by_policy.items():
        settings[pid] = _VALUE_TYPES[pid](**kwargs)
    return settings


def load_qos_file(path: str) -> dict[QosPolicyId, QosValue]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_qos_settings(handle.read())


def settings_for(settings: Mapping[QosPolicyId, QosValue],
                 kinds: frozenset[EntityKind]) -> dict[QosPolicyId, QosValue]:
    """Subset of settings applicable to any of the given entity kinds; lets
    one profile file feed writer, reader and topic creation."""
    return {
        pid: value for pid, value in settings.items()
        if not APPLICABILITY[pid].isdisjoint(kinds)
    }
