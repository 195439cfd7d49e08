"""Shared domain types, the synthetic code system, and pipeline configuration.

Every other module depends only on this one. All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping


class OntoguardError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OntoguardError):
    """Invalid input: malformed file, out-of-range value, broken invariant."""


class StageError(OntoguardError):
    """A pipeline stage failed while processing otherwise valid input."""


# Coarse demographic bands: decade age bands and binary-plus-other sex, so
# distributions stay small categorical vectors.
AGE_BANDS: tuple[str, ...] = (
    "0-9", "10-19", "20-29", "30-39", "40-49",
    "50-59", "60-69", "70-79", "80-89", "90+",
)
SEXES: tuple[str, ...] = ("female", "male", "other")


class Layer(str, Enum):
    """Code layer selector for analytical operations.

    There is no implicit default anywhere in the API: callers must say which
    layer they read. The CLI defaults to ADMINISTRATIVE and prints the choice.
    """

    ADMINISTRATIVE = "administrative"
    CLINICAL = "clinical"


def record_code(record: "CodedRecord", layer: Layer) -> str:
    """Return the record's code on the requested layer.

    Falls back to the administrative code when the clinical layer has not
    been populated yet.
    """
    if layer is Layer.CLINICAL and record.clinical_code is not None:
        return record.clinical_code
    return record.primary_code


# ---------------------------------------------------------------------------
# Canonical serialization helpers
# ---------------------------------------------------------------------------

def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical pretty JSON form used for fixture files."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def jsonl_dumps(obj: Any) -> str:
    """Serialize one JSON Lines record (compact, sorted keys)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# ---------------------------------------------------------------------------
# Terminology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeDef:
    """One code with its taxonomy placement."""

    code: str
    clinical_group: str
    billing_category: str
    description: str


@dataclass(frozen=True)
class TerminologyVersion:
    system_id: str
    version_label: str
    release_date: date
    validated: bool


@dataclass(frozen=True)
class TransitionTable:
    """Official mapping between two adjacent terminology versions.

    ``mappings`` maps a source code to the tuple of its target codes; more
    than one target means the mapping is ambiguous and the gate treats the
    code as unmappable rather than picking one.
    """

    from_version: str
    to_version: str
    mappings: Mapping[str, tuple[str, ...]]
    unmappable: frozenset[str]


@dataclass(frozen=True)
class CodeSystem:
    """A versioned synthetic code system, including the generator's declared
    base prevalences and per-code usage profiles so reference distributions
    stay inspectable rather than hard-coded."""

    system_id: str
    versions: tuple[TerminologyVersion, ...]
    codes_by_version: Mapping[str, Mapping[str, CodeDef]]
    transitions: Mapping[tuple[str, str], TransitionTable]
    clinical_groups: tuple[str, ...]
    billing_categories: tuple[str, ...]
    base_prevalence: Mapping[str, float] = field(default_factory=dict)
    demographic_profiles: Mapping[str, Mapping[str, Mapping[str, float]]] = field(default_factory=dict)
    cooccurrence_profiles: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def version(self, label: str) -> TerminologyVersion:
        for v in self.versions:
            if v.version_label == label:
                return v
        raise ValidationError(f"unknown version: {label!r}")

    def has_version(self, label: str) -> bool:
        return any(v.version_label == label for v in self.versions)

    def codes(self, version_label: str) -> Mapping[str, CodeDef]:
        try:
            return self.codes_by_version[version_label]
        except KeyError:
            raise ValidationError(f"unknown version: {version_label!r}") from None

    def release_calendar(self) -> tuple[tuple[str, date], ...]:
        return tuple((v.version_label, v.release_date) for v in self.versions)

    def version_chain(self, from_label: str, to_label: str) -> tuple[tuple[str, str], ...]:
        """Adjacent (from, to) hops between two version labels, oldest first."""
        labels = [v.version_label for v in self.versions]
        i, j = labels.index(from_label), labels.index(to_label)
        if i >= j:
            return ()
        return tuple((labels[k], labels[k + 1]) for k in range(i, j))


# ---------------------------------------------------------------------------
# Records and annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfluenceTag:
    """Marks a record as originating from AI-influenced documentation."""

    model_version: str
    model_confidence: float
    clinician_modified: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.model_confidence <= 1.0:
            raise ValidationError(
                f"model_confidence must be in [0,1], got {self.model_confidence}"
            )


@dataclass(frozen=True)
class FidelityAnnotation:
    """Coding-fidelity score plus its three sub-scores and a short rationale.

    The score is an ordinal index of how well the coded diagnosis matches
    expected clinical patterns; it is not a calibrated probability.
    """

    score: float
    prevalence_subscore: float
    cooccurrence_subscore: float
    institutional_subscore: float
    rationale: str

    def __post_init__(self) -> None:
        for name in ("score", "prevalence_subscore", "cooccurrence_subscore",
                     "institutional_subscore"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0,1], got {value}")


@dataclass(frozen=True)
class CodedRecord:
    """One coded clinical encounter.

    ``primary_code`` is the administrative-layer code as billed;
    ``clinical_code`` is the clinical-layer code once populated. Whether the
    primary code actually exists in its version's code set is checked at
    ingestion by the version gate, which quarantines violations instead of
    dropping them.
    """

    record_id: str
    patient_age_band: str
    patient_sex: str
    institution_id: str
    encounter_time: datetime
    primary_code: str
    co_codes: frozenset[str]
    version_tag: str
    influence_tag: InfluenceTag | None = None
    fidelity: FidelityAnnotation | None = None
    clinical_code: str | None = None

    def __post_init__(self) -> None:
        if self.patient_age_band not in AGE_BANDS:
            raise ValidationError(f"unknown age band: {self.patient_age_band!r}")
        if self.patient_sex not in SEXES:
            raise ValidationError(f"unknown sex: {self.patient_sex!r}")


def with_fields(record: CodedRecord, **changes: Any) -> CodedRecord:
    """Copy of ``record`` with ``changes`` applied, validated by the constructor."""
    return CodedRecord(**{**record.__dict__, **changes})


def dominant_version(batch: Iterable[CodedRecord]) -> str:
    """Most common version tag of a batch; ties go to the greater label."""
    tags: dict[str, int] = {}
    for record in batch:
        tags[record.version_tag] = tags.get(record.version_tag, 0) + 1
    return max(tags, key=lambda t: (tags[t], t))


def record_to_dict(record: CodedRecord) -> dict[str, Any]:
    tag = record.influence_tag
    fid = record.fidelity
    return {
        "record_id": record.record_id,
        "patient_age_band": record.patient_age_band,
        "patient_sex": record.patient_sex,
        "institution_id": record.institution_id,
        "encounter_time": record.encounter_time.isoformat(),
        "primary_code": record.primary_code,
        "co_codes": sorted(record.co_codes),
        "version_tag": record.version_tag,
        "influence_tag": None if tag is None else {
            "model_version": tag.model_version,
            "model_confidence": tag.model_confidence,
            "clinician_modified": tag.clinician_modified,
        },
        "fidelity": None if fid is None else {
            "score": fid.score,
            "prevalence_subscore": fid.prevalence_subscore,
            "cooccurrence_subscore": fid.cooccurrence_subscore,
            "institutional_subscore": fid.institutional_subscore,
            "rationale": fid.rationale,
        },
        "clinical_code": record.clinical_code,
    }


def record_from_dict(data: Mapping[str, Any]) -> CodedRecord:
    tag = data.get("influence_tag")
    fid = data.get("fidelity")
    try:
        return CodedRecord(
            record_id=data["record_id"],
            patient_age_band=data["patient_age_band"],
            patient_sex=data["patient_sex"],
            institution_id=data["institution_id"],
            encounter_time=datetime.fromisoformat(data["encounter_time"]),
            primary_code=data["primary_code"],
            co_codes=frozenset(data["co_codes"]),
            version_tag=data["version_tag"],
            influence_tag=None if tag is None else InfluenceTag(
                model_version=tag["model_version"],
                model_confidence=tag["model_confidence"],
                clinician_modified=tag["clinician_modified"],
            ),
            fidelity=None if fid is None else FidelityAnnotation(
                score=fid["score"],
                prevalence_subscore=fid["prevalence_subscore"],
                cooccurrence_subscore=fid["cooccurrence_subscore"],
                institutional_subscore=fid["institutional_subscore"],
                rationale=fid["rationale"],
            ),
            clinical_code=data.get("clinical_code"),
        )
    except KeyError as exc:
        raise ValidationError(f"record missing field {exc.args[0]!r}") from None


def write_records(path: str | Path, records: Iterable[CodedRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(jsonl_dumps(record_to_dict(record)))
            fh.write("\n")


def iter_jsonl(path: str | Path) -> Iterator[Any]:
    """Parsed value of every non-blank line of a JSON Lines file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno} is not valid JSON: {exc.msg}") from None
            yield value


def iter_records(path: str | Path) -> Iterator[CodedRecord]:
    return map(record_from_dict, iter_jsonl(path))


def read_records(path: str | Path) -> list[CodedRecord]:
    return list(iter_records(path))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeWindow:
    """Closed calendar interval used for fingerprint windows."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(f"window end {self.end} before start {self.start}")

    def to_dict(self) -> dict[str, str]:
        return {"start": self.start.isoformat(), "end": self.end.isoformat()}

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> "TimeWindow":
        return cls(date.fromisoformat(data["start"]), date.fromisoformat(data["end"]))


# Paper-suggested starting point for the AI-influence breaker threshold.
DEFAULT_BREAKER_THRESHOLD = 0.15
# Quarterly prevalence above which a dormant code reactivates.
DEFAULT_ACTIVATION_PREVALENCE = 0.005


@dataclass(frozen=True)
class PipelineConfig:
    """Thresholds and weights shared across pipeline stages."""

    fidelity_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    drift_threshold: float = 0.1
    breaker_threshold: float = DEFAULT_BREAKER_THRESHOLD
    dormancy_frequency_threshold: float = 0.002
    activation_prevalence_threshold: float = DEFAULT_ACTIVATION_PREVALENCE
    release_correlation_window_days: int = 90
    baseline_window: TimeWindow | None = None
    current_window: TimeWindow | None = None
    inference_fidelity_cutoff: float = 0.5
    fingerprint_min_support: int = 20
    drift_component_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self) -> None:
        if len(self.fidelity_weights) != 3 or any(w < 0 for w in self.fidelity_weights):
            raise ValidationError("fidelity_weights must be three non-negative reals")
        if abs(sum(self.fidelity_weights) - 1.0) > 1e-9:
            raise ValidationError("fidelity_weights: weights must sum to 1")
        if not self.drift_threshold > 0:
            raise ValidationError(f"drift_threshold must be > 0, got {self.drift_threshold}")
        if not 0.0 < self.breaker_threshold < 1.0:
            raise ValidationError(
                f"breaker_threshold must be in (0,1), got {self.breaker_threshold}"
            )
        if not 0.0 < self.dormancy_frequency_threshold < 1.0:
            raise ValidationError(
                "dormancy_frequency_threshold must be in (0,1), "
                f"got {self.dormancy_frequency_threshold}"
            )
        if not 0.0 < self.activation_prevalence_threshold < 1.0:
            raise ValidationError(
                "activation_prevalence_threshold must be in (0,1), "
                f"got {self.activation_prevalence_threshold}"
            )
        if self.release_correlation_window_days <= 0:
            raise ValidationError("release_correlation_window_days must be positive")
        if not 0.0 <= self.inference_fidelity_cutoff <= 1.0:
            raise ValidationError("inference_fidelity_cutoff must be in [0,1]")
        if self.fingerprint_min_support < 1:
            raise ValidationError("fingerprint_min_support must be >= 1")
        if len(self.drift_component_weights) != 4 or any(
            w < 0 for w in self.drift_component_weights
        ):
            raise ValidationError("drift_component_weights must be four non-negative reals")
        if abs(sum(self.drift_component_weights) - 1.0) > 1e-9:
            raise ValidationError("drift_component_weights: weights must sum to 1")


_CONFIG_KEYS = {
    "fidelity_weights", "drift_threshold", "breaker_threshold",
    "dormancy_frequency_threshold", "activation_prevalence_threshold",
    "release_correlation_window_days", "baseline_window", "current_window",
    "inference_fidelity_cutoff", "fingerprint_min_support",
    "drift_component_weights",
}


def config_from_dict(data: Mapping[str, Any]) -> PipelineConfig:
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for key in ("fidelity_weights", "drift_component_weights"):
        if key in data:
            kwargs[key] = tuple(float(w) for w in data[key])
    for key in ("drift_threshold", "breaker_threshold", "dormancy_frequency_threshold",
                "activation_prevalence_threshold", "inference_fidelity_cutoff"):
        if key in data:
            kwargs[key] = float(data[key])
    for key in ("release_correlation_window_days", "fingerprint_min_support"):
        if key in data:
            kwargs[key] = int(data[key])
    for key in ("baseline_window", "current_window"):
        if key in data:
            kwargs[key] = None if data[key] is None else TimeWindow.from_dict(data[key])
    return PipelineConfig(**kwargs)


def config_to_dict(cfg: PipelineConfig) -> dict[str, Any]:
    return {
        "fidelity_weights": list(cfg.fidelity_weights),
        "drift_threshold": cfg.drift_threshold,
        "breaker_threshold": cfg.breaker_threshold,
        "dormancy_frequency_threshold": cfg.dormancy_frequency_threshold,
        "activation_prevalence_threshold": cfg.activation_prevalence_threshold,
        "release_correlation_window_days": cfg.release_correlation_window_days,
        "baseline_window": None if cfg.baseline_window is None else cfg.baseline_window.to_dict(),
        "current_window": None if cfg.current_window is None else cfg.current_window.to_dict(),
        "inference_fidelity_cutoff": cfg.inference_fidelity_cutoff,
        "fingerprint_min_support": cfg.fingerprint_min_support,
        "drift_component_weights": list(cfg.drift_component_weights),
    }


def load_config(path: str | Path) -> PipelineConfig:
    """Load and validate a pipeline config file, applying defaults for absent keys.

    Raises:
        ValidationError: on parse failure or an out-of-range threshold
            (the message names the offending key).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return config_from_dict(data)


def serialize_config(cfg: PipelineConfig) -> str:
    return canonical_dumps(config_to_dict(cfg))


# ---------------------------------------------------------------------------
# Code-system loading
# ---------------------------------------------------------------------------

def load_code_system(path: str | Path) -> CodeSystem:
    """Load a code-system file and validate all invariants.

    Raises:
        ValidationError: duplicate version labels, versions not strictly
            ordered by release date, transition tables referencing unknown
            codes, or taxonomy violations.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"code-system file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"code-system file {path} is not valid JSON: {exc}") from None
    return code_system_from_dict(data)


def code_system_from_dict(data: Mapping[str, Any]) -> CodeSystem:
    system_id = data["system_id"]

    versions: list[TerminologyVersion] = []
    seen_labels: set[str] = set()
    for entry in data["versions"]:
        label = entry["label"]
        if label in seen_labels:
            raise ValidationError(f"duplicate version label: {label!r}")
        seen_labels.add(label)
        versions.append(TerminologyVersion(
            system_id=system_id,
            version_label=label,
            release_date=date.fromisoformat(entry["release_date"]),
            validated=bool(entry["validated"]),
        ))
    for earlier, later in zip(versions, versions[1:]):
        if not earlier.release_date < later.release_date:
            raise ValidationError(
                f"versions must be strictly ordered by release date: "
                f"{earlier.version_label!r} !< {later.version_label!r}"
            )

    clinical_groups = tuple(data.get("clinical_groups", ()))
    billing_categories = tuple(data.get("billing_categories", ()))

    codes_by_version: dict[str, dict[str, CodeDef]] = {}
    for label, entries in data["codes"].items():
        if label not in seen_labels:
            raise ValidationError(f"codes listed for unknown version: {label!r}")
        table: dict[str, CodeDef] = {}
        for entry in entries:
            cdef = CodeDef(
                code=entry["code"],
                clinical_group=entry["clinical_group"],
                billing_category=entry["billing_category"],
                description=entry.get("description", ""),
            )
            if not cdef.clinical_group or not cdef.billing_category:
                raise ValidationError(f"code {cdef.code!r} has empty taxonomy fields")
            if clinical_groups and cdef.clinical_group not in clinical_groups:
                raise ValidationError(
                    f"code {cdef.code!r} references undeclared clinical group "
                    f"{cdef.clinical_group!r}"
                )
            if billing_categories and cdef.billing_category not in billing_categories:
                raise ValidationError(
                    f"code {cdef.code!r} references undeclared billing category "
                    f"{cdef.billing_category!r}"
                )
            table[cdef.code] = cdef
        codes_by_version[label] = table
    for version in versions:
        codes_by_version.setdefault(version.version_label, {})

    transitions: dict[tuple[str, str], TransitionTable] = {}
    for entry in data.get("transitions", ()):
        from_v, to_v = entry["from"], entry["to"]
        for label in (from_v, to_v):
            if label not in seen_labels:
                raise ValidationError(f"transition references unknown version: {label!r}")
        mappings: dict[str, list[str]] = {}
        for m in entry["mappings"]:
            from_code, to_code = m["from_code"], m["to_code"]
            if from_code not in codes_by_version[from_v]:
                raise ValidationError(
                    f"transition {from_v}->{to_v} maps unknown code {from_code!r}"
                )
            if to_code not in codes_by_version[to_v]:
                raise ValidationError(
                    f"transition {from_v}->{to_v} targets unknown code {to_code!r}"
                )
            mappings.setdefault(from_code, []).append(to_code)
        unmappable = frozenset(entry.get("unmappable", ()))
        for code in unmappable:
            if code not in codes_by_version[from_v]:
                raise ValidationError(
                    f"transition {from_v}->{to_v} lists unknown unmappable code {code!r}"
                )
        transitions[(from_v, to_v)] = TransitionTable(
            from_version=from_v,
            to_version=to_v,
            mappings={k: tuple(sorted(v)) for k, v in mappings.items()},
            unmappable=unmappable,
        )

    all_codes = {code for table in codes_by_version.values() for code in table}
    base_prevalence = {k: float(v) for k, v in data.get("base_prevalence", {}).items()}
    for code in base_prevalence:
        if code not in all_codes:
            raise ValidationError(f"base_prevalence lists unknown code {code!r}")
    demographic_profiles = data.get("demographic_profiles", {})
    cooccurrence_profiles = data.get("cooccurrence_profiles", {})
    for section, profiles in (("demographic_profiles", demographic_profiles),
                              ("cooccurrence_profiles", cooccurrence_profiles)):
        for code in profiles:
            if code not in all_codes:
                raise ValidationError(f"{section} lists unknown code {code!r}")

    return CodeSystem(
        system_id=system_id,
        versions=tuple(versions),
        codes_by_version=codes_by_version,
        transitions=transitions,
        clinical_groups=clinical_groups,
        billing_categories=billing_categories,
        base_prevalence=base_prevalence,
        demographic_profiles=demographic_profiles,
        cooccurrence_profiles=cooccurrence_profiles,
    )


def code_system_to_dict(system: CodeSystem) -> dict[str, Any]:
    return {
        "system_id": system.system_id,
        "versions": [
            {
                "label": v.version_label,
                "release_date": v.release_date.isoformat(),
                "validated": v.validated,
            }
            for v in system.versions
        ],
        "clinical_groups": list(system.clinical_groups),
        "billing_categories": list(system.billing_categories),
        "codes": {
            label: [
                {
                    "code": cdef.code,
                    "clinical_group": cdef.clinical_group,
                    "billing_category": cdef.billing_category,
                    "description": cdef.description,
                }
                for _, cdef in sorted(table.items())
            ]
            for label, table in sorted(system.codes_by_version.items())
        },
        "transitions": [
            {
                "from": table.from_version,
                "to": table.to_version,
                "mappings": [
                    {"from_code": from_code, "to_code": to_code}
                    for from_code in sorted(table.mappings)
                    for to_code in table.mappings[from_code]
                ],
                "unmappable": sorted(table.unmappable),
            }
            for _, table in sorted(system.transitions.items())
        ],
        "base_prevalence": dict(sorted(system.base_prevalence.items())),
        "demographic_profiles": {
            code: {axis: dict(sorted(dist.items()))
                   for axis, dist in sorted(profile.items())}
            for code, profile in sorted(system.demographic_profiles.items())
        },
        "cooccurrence_profiles": {
            code: dict(sorted(profile.items()))
            for code, profile in sorted(system.cooccurrence_profiles.items())
        },
    }


def serialize_code_system(system: CodeSystem) -> str:
    return canonical_dumps(code_system_to_dict(system))
