"""Shared domain types, the synthetic code system, and pipeline configuration.

Every other module depends only on this one. All values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import defaultdict
from collections.abc import Mapping as AbcMapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from datetime import date, datetime, timedelta, tzinfo
from enum import Enum
from functools import cache
from itertools import chain, groupby, islice
from pathlib import Path
from types import UnionType
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar,
                    Union, get_args, get_origin, get_type_hints)

import numpy as np


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


# ---------------------------------------------------------------------------
# Output files: every JSON and JSON Lines file is written here
# ---------------------------------------------------------------------------

def _plain(obj: Any) -> Any:
    """The JSON value of what ``json`` cannot encode itself: dates as ISO 8601
    text, frozensets as sorted lists and dataclasses as their fields."""
    if isinstance(obj, date):  # a datetime too
        return obj.isoformat()
    if isinstance(obj, frozenset):
        return sorted(obj)
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical pretty JSON form used for whole-file documents."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, default=_plain) + "\n"


# One JSON Lines line (compact, sorted keys); a single encoder serves every call.
jsonl_dumps: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=_plain,
).encode


def to_json(obj: Any) -> Any:
    """The plain JSON value that the encoder writes for ``obj``."""
    return json.loads(jsonl_dumps(obj))


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as one canonical JSON document."""
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> None:
    """Write each of ``rows`` as one JSON Lines line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(jsonl_dumps(row))
            fh.write("\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]],
              preamble: str | None = None) -> None:
    """Write ``header`` and ``rows`` as CSV, after ``preamble`` as a raw first line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if preamble is not None:
            fh.write(preamble + "\n")
        csv.writer(fh, lineterminator="\n").writerows(chain([header], rows))


# ---------------------------------------------------------------------------
# Input files: every JSON and JSON Lines file is read here
# ---------------------------------------------------------------------------

T = TypeVar("T")

# What a parse function raises on data of the wrong shape.
_PARSE_FAULTS = (ValidationError, LookupError, TypeError, ValueError, AttributeError,
                 ArithmeticError, RecursionError)  # RecursionError: JSON nested too deeply


def _fault(exc: Exception) -> str:
    """A parse fault, worded to follow the name of the file."""
    return str(exc) if isinstance(exc, ValidationError) else f"is malformed: {exc}"


def _identity(value: T) -> T:
    return value


def _only(*types: type) -> Callable[[Any], Any]:
    """The identity on values of exactly ``types``, so a bool is never an int."""
    def check(value: Any) -> Any:
        if type(value) not in types:
            raise TypeError
        return value
    return check


_list, _object, _str, _json_number = _only(list), _only(dict), _only(str), _only(int, float)

# A number kept as the JSON type it was read as, so that it is written back
# as read: ``1`` stays an int and ``-0.0`` a float. A ``float`` field takes
# any number as a float.
Number = float | int

# A field's JSON shape: what its value must be, what a list of such values
# holds, and the conversion of its JSON value, which raises TypeError or
# ValueError on a value of the wrong type.
_Shape = tuple[str, str, Callable[[Any], Any]]
_SCALARS: Mapping[Any, _Shape] = {
    str: ("a string", "strings", _str),
    int: ("an integer", "integers", _only(int)),
    bool: ("true or false", "booleans", _only(bool)),
    float: ("a number", "numbers", lambda value: float(_json_number(value))),
    Number: ("a number", "numbers", _json_number),
    date: ("an ISO 8601 date", "ISO 8601 dates", date.fromisoformat),
    datetime: ("an ISO 8601 timestamp", "ISO 8601 timestamps", datetime.fromisoformat),
    Path: ("a string", "strings", lambda value: Path(_str(value))),
    Any: ("a JSON value", "JSON values", _identity),
}


class _Fault(ValidationError):
    """A fault at ``path`` inside a JSON value, such as ``rules[0].when[1].key``;
    ``detail`` follows the path, as in `` must be …`` or ``: …``."""

    def __init__(self, path: str, detail: str) -> None:
        super().__init__((path.lstrip(".") + detail).lstrip())
        self.path, self.detail = path, detail


def _at(step: str, shape: _Shape, value: Any) -> Any:
    """``shape``'s conversion of ``value``, which its parent holds at ``step``
    (``.key``, ``[0]`` or ``['key']``); a fault names its path from there."""
    try:
        return shape[2](value)
    except _Fault as fault:
        raise _Fault(step + fault.path, fault.detail) from None
    except ValidationError as exc:  # a __post_init__ check
        raise _Fault(step, f": {exc}") from None
    except (TypeError, ValueError):
        raise _Fault(step, f" must be {shape[0]}, got {value!r}") from None


def _either(words: Sequence[str]) -> str:
    """``a, b or c``."""
    return " or ".join(filter(None, (", ".join(words[:-1]), words[-1])))


@cache
def _shape(tp: Any) -> _Shape:
    """The JSON shape of a value annotated ``tp``."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # X | None, or scalars, each kept as it is
        options = [a for a in args if a is not type(None)]
        shapes = [_shape(a) for a in options]
        what, items = _either([s[0] for s in shapes]), _either([s[1] for s in shapes])
        convert = shapes[0][2] if len(options) == 1 else _only(*options)
        if len(options) == len(args):
            return what, items, convert
        return (f"{what} or null", f"{items} or nulls",
                lambda value: None if value is None else convert(value))
    if origin is frozenset or (origin is tuple and args[-1] is Ellipsis):
        item = _shape(args[0])
        return (f"a list of {item[1]}", f"lists of {item[1]}", lambda value: origin(
            _at(f"[{i}]", item, v) for i, v in enumerate(_list(value))))
    if origin is tuple:
        shapes = [_shape(arg) for arg in args]
        what = (f"a list of {shapes[0][1]} of length {len(args)}" if len(set(args)) == 1
                else f"a list [{', '.join(s[0] for s in shapes)}]")
        return what, "lists" + what[len("a list"):], lambda value: tuple(
            _at(f"[{i}]", s, v) for i, (s, v) in enumerate(zip(shapes, _list(value), strict=True)))
    if origin is AbcMapping:
        item = _shape(args[1])
        return (f"an object of {item[1]}", f"objects of {item[1]}", lambda value: {
            key: _at(f"[{key!r}]", item, v) for key, v in _object(value).items()})
    if isinstance(tp, type) and issubclass(tp, Enum):
        what = f"one of {[member.value for member in tp]}"
        return what, f"values {what}", tp
    if is_dataclass(tp):
        return "an object", "objects", lambda value: _decode(tp, _object(value))
    raise TypeError(f"no JSON shape for {tp!r}")


@cache
def _plan(cls: type) -> tuple[Mapping[str, tuple[str, str, _Shape]], tuple[str, ...]]:
    """Each JSON key of dataclass ``cls`` with its field, its step ``.key``
    and its shape, and the required keys. A key is its field's name unless
    ``metadata["json"]`` names it; fields outside ``__init__`` have none."""
    hints = get_type_hints(cls)
    keyed = [(f.metadata.get("json", f.name), f) for f in fields(cls) if f.init]
    return ({key: (f.name, f".{key}", _shape(hints[f.name])) for key, f in keyed},
            tuple(key for key, f in keyed
                  if f.default is MISSING and f.default_factory is MISSING))


def _decode(cls: type[T], data: dict) -> T:
    plan, required = _plan(cls)
    if not data.keys() <= plan.keys():
        raise _Fault("", f" has unknown keys {sorted(data.keys() - plan.keys())}")
    for key in required:
        if key not in data:
            raise _Fault("", f" is missing key {key!r}")
    kwargs = {}
    for key, value in data.items():
        name, step, shape = plan[key]
        kwargs[name] = _at(step, shape, value)
    return cls(**kwargs)


def from_json(tp: Any, data: Any) -> Any:
    """The value of type ``tp`` that JSON value ``data`` holds.

    ``tp`` is any annotation a field may carry: ``str``, ``int`` and
    ``bool`` exactly that type, ``float`` any number as a float,
    ``Number`` any number as read, ``date`` and
    ``datetime`` ISO 8601 text, ``Path`` a string, ``Any`` any JSON value,
    an Enum a member's value, ``X | None`` also null, a union of scalars
    exactly those types, tuples and frozensets a list, ``Mapping[str, X]``
    an object, and a dataclass an object keyed by its fields' names or
    ``metadata["json"]``. An absent key takes the field's default, and an
    absent required key or an unknown key is a fault; range checks are each
    class's own ``__post_init__``. A fault names its path, as in
    ``rules[0].when[1].key must be a string, got 5``.
    """
    if not is_dataclass(tp):
        return _at("", _shape(tp), data)
    if type(data) is not dict:
        raise ValidationError("must hold a JSON object")
    return _decode(tp, data)


def load_json(path: str | Path, what: str, tp: Any) -> Any:
    """The value of type ``tp`` that a JSON file holds, as ``from_json``
    decodes it; any fault names ``what`` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, nested too deeply, or not UTF-8
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    try:
        return from_json(tp, data)
    except _PARSE_FAULTS as exc:
        raise ValidationError(f"{what} {path} {_fault(exc)}") from None


def iter_jsonl(path: str | Path, tp: Any = Any) -> Iterator[Any]:
    """The value of type ``tp`` that each non-blank line of a JSON Lines
    file holds, as ``from_json`` decodes it; a fault names ``path:line``."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    value = from_json(tp, json.loads(line))
                except json.JSONDecodeError as exc:
                    if line.isspace():
                        continue
                    raise ValidationError(f"{path}:{lineno} is not valid JSON: {exc.msg}") from None
                except _PARSE_FAULTS as exc:
                    raise ValidationError(f"{path}:{lineno}: {_fault(exc)}") from None
                yield value
    except FileNotFoundError:
        raise ValidationError(f"JSON Lines file not found: {path}") from None
    except UnicodeDecodeError as exc:  # decoded a block at a time, so no line number
        raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from None


# ---------------------------------------------------------------------------
# Terminology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeDef:
    """One code with its taxonomy placement."""

    code: str
    clinical_group: str
    billing_category: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.clinical_group or not self.billing_category:
            raise ValidationError(f"code {self.code!r} has empty taxonomy fields")


@dataclass(frozen=True)
class TerminologyVersion:
    label: str
    release_date: date
    validated: bool


@dataclass(frozen=True)
class CodeMapping:
    from_code: str
    to_code: str


@dataclass(frozen=True)
class TransitionTable:
    """Official mapping between two adjacent terminology versions.

    ``targets`` maps a source code to the sorted tuple of its target codes;
    more than one target means the mapping is ambiguous and the gate treats
    the code as unmappable rather than picking one.
    """

    from_version: str = field(metadata={"json": "from"})
    to_version: str = field(metadata={"json": "to"})
    mappings: tuple[CodeMapping, ...]
    unmappable: frozenset[str] = frozenset()
    targets: Mapping[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self) -> None:
        targets: dict[str, list[str]] = {}
        for m in self.mappings:
            targets.setdefault(m.from_code, []).append(m.to_code)
        object.__setattr__(self, "targets", {k: tuple(sorted(v)) for k, v in targets.items()})


@dataclass(frozen=True)
class Demographics:
    """A code's patient mix: weights by age band and by sex."""

    age: Mapping[str, float] = field(default_factory=dict)
    sex: Mapping[str, float] = field(default_factory=dict)


def _check_weights(where: str, weights: Mapping[str, float], keys: Sequence[str] = ()) -> None:
    """Each weight is finite and >= 0, and its key one of ``keys`` if any are given."""
    unknown = weights.keys() - set(keys) if keys else ()
    if unknown:
        raise ValidationError(f"{where} has unknown keys {sorted(unknown)}")
    for key, weight in weights.items():
        if not 0 <= weight < math.inf:
            raise ValidationError(f"{where}[{key!r}] must be a number >= 0, got {weight!r}")


@dataclass(frozen=True)
class CodeSystem:
    """A versioned synthetic code system, as a code-system file such as
    ``fixtures/syn_icd.json`` writes it, including the generator's declared
    base prevalences and per-code usage profiles so reference distributions
    stay inspectable rather than hard-coded.

    Construction checks version order and every reference between versions,
    codes, taxonomy and profiles, and derives the lookups that stages read.
    """

    system_id: str
    versions: tuple[TerminologyVersion, ...]
    code_lists: Mapping[str, tuple[CodeDef, ...]] = field(metadata={"json": "codes"})
    transitions: tuple[TransitionTable, ...] = ()
    clinical_groups: tuple[str, ...] = ()
    billing_categories: tuple[str, ...] = ()
    base_prevalence: Mapping[str, float] = field(default_factory=dict)
    demographic_profiles: Mapping[str, Demographics] = field(default_factory=dict)
    cooccurrence_profiles: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    codes_by_version: Mapping[str, Mapping[str, CodeDef]] = field(init=False)
    tables: Mapping[tuple[str, str], TransitionTable] = field(init=False)

    def __post_init__(self) -> None:
        labels = [v.label for v in self.versions]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError(f"duplicate version label: {label!r}")
        for earlier, later in zip(self.versions, self.versions[1:]):
            if not earlier.release_date < later.release_date:
                raise ValidationError(f"versions must be strictly ordered by release date: "
                                      f"{earlier.label!r} !< {later.label!r}")

        codes_by_version: dict[str, dict[str, CodeDef]] = {label: {} for label in labels}
        for label, entries in self.code_lists.items():
            if label not in codes_by_version:
                raise ValidationError(f"codes listed for unknown version: {label!r}")
            for cdef in entries:
                for kind, value, declared in (
                    ("clinical group", cdef.clinical_group, self.clinical_groups),
                    ("billing category", cdef.billing_category, self.billing_categories),
                ):
                    if declared and value not in declared:
                        raise ValidationError(
                            f"code {cdef.code!r} references undeclared {kind} {value!r}")
                codes_by_version[label][cdef.code] = cdef

        for table in self.transitions:
            hop = table.from_version, table.to_version
            for label in hop:
                if label not in codes_by_version:
                    raise ValidationError(f"transition references unknown version: {label!r}")
            source, target = (codes_by_version[label] for label in hop)
            for m in table.mappings:
                if m.from_code not in source:
                    raise ValidationError(f"transition {hop[0]}->{hop[1]} maps unknown code "
                                          f"{m.from_code!r}")
                if m.to_code not in target:
                    raise ValidationError(f"transition {hop[0]}->{hop[1]} targets unknown code "
                                          f"{m.to_code!r}")
            if unknown := sorted(table.unmappable - source.keys()):
                raise ValidationError(f"transition {hop[0]}->{hop[1]} lists unknown unmappable "
                                      f"code {unknown[0]!r}")

        all_codes = {code for table in codes_by_version.values() for code in table}
        for name in ("base_prevalence", "cooccurrence_profiles", "demographic_profiles"):
            for code in getattr(self, name):
                if code not in all_codes:
                    raise ValidationError(f"{name} lists unknown code {code!r}")
        _check_weights("base_prevalence", self.base_prevalence)
        for code, profile in self.cooccurrence_profiles.items():
            _check_weights(f"cooccurrence_profiles[{code!r}]", profile)
        for code, demographics in self.demographic_profiles.items():
            _check_weights(f"demographic_profiles[{code!r}].age", demographics.age, AGE_BANDS)
            _check_weights(f"demographic_profiles[{code!r}].sex", demographics.sex, SEXES)

        object.__setattr__(self, "codes_by_version", codes_by_version)
        object.__setattr__(self, "tables", {(t.from_version, t.to_version): t
                                            for t in self.transitions})

    def version(self, label: str) -> TerminologyVersion:
        for v in self.versions:
            if v.label == label:
                return v
        raise ValidationError(f"unknown version: {label!r}")

    def has_version(self, label: str) -> bool:
        return any(v.label == label for v in self.versions)

    def codes(self, version_label: str) -> Mapping[str, CodeDef]:
        try:
            return self.codes_by_version[version_label]
        except KeyError:
            raise ValidationError(f"unknown version: {version_label!r}") from None

    def version_chain(self, from_label: str, to_label: str) -> tuple[tuple[str, str], ...]:
        """Adjacent (from, to) hops between two version labels, oldest first."""
        labels = [v.label for v in self.versions]
        i, j = labels.index(from_label), labels.index(to_label)
        if i >= j:
            return ()
        return tuple((labels[k], labels[k + 1]) for k in range(i, j))


def load_code_system(path: str | Path) -> CodeSystem:
    """Load a code-system file and validate all invariants.

    Raises:
        ValidationError: duplicate version labels, versions not strictly
            ordered by release date, transition tables referencing unknown
            codes, or taxonomy violations.
    """
    return load_json(path, "code-system file", CodeSystem)


# ---------------------------------------------------------------------------
# Records and annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfluenceTag:
    """Marks a record as originating from AI-influenced documentation."""

    model_version: str
    model_confidence: Number
    clinician_modified: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.model_confidence <= 1.0:
            raise ValidationError(f"model_confidence must be in [0,1], got {self.model_confidence}")


# An annotation's four numbers: the columns of ``RecordBatch.annotations``.
_SCORES = ("score", "prevalence_subscore", "cooccurrence_subscore", "institutional_subscore")


@dataclass(frozen=True)
class FidelityAnnotation:
    """Coding-fidelity score plus its three sub-scores and a short rationale.

    The score is an ordinal index of how well the coded diagnosis matches
    expected clinical patterns; it is not a calibrated probability.
    """

    score: Number
    prevalence_subscore: Number
    cooccurrence_subscore: Number
    institutional_subscore: Number
    rationale: str

    def __post_init__(self) -> None:
        for name in _SCORES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0,1], got {value}")


MAX_RECORD_ID = 256  # a batch's ids are fixed-width text, which drops a trailing U+0000


def check_record_id(record_id: str) -> None:
    """Raise ValidationError unless ``record_id`` fits a batch's id column."""
    if len(record_id) > MAX_RECORD_ID or "\0" in record_id:
        raise ValidationError(f"record id {record_id[:32]!r} of {len(record_id)} characters must "
                              f"have at most {MAX_RECORD_ID}, none of them U+0000")


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
        check_record_id(self.record_id)
        if self.patient_age_band not in AGE_BANDS:
            raise ValidationError(f"unknown age band: {self.patient_age_band!r}")
        if self.patient_sex not in SEXES:
            raise ValidationError(f"unknown sex: {self.patient_sex!r}")


def gather(table: Sequence[Any], index: np.ndarray) -> list[Any]:
    """``[table[i] for i in index]``, where index -1 gives None; rows share the table's objects."""
    column = np.empty(len(table) + 1, dtype=object)
    column[:-1] = table
    return column[index].tolist()


def intern(values: Sequence[Hashable | None],
           table: Iterable[Hashable] = ()) -> tuple[np.ndarray, tuple[Any, ...]]:
    """``table`` extended with the distinct new ``values`` in first-seen
    order, and each value's position in it (-1 for None)."""
    positions = dict.fromkeys(table)
    positions.update(dict.fromkeys(values))
    positions.pop(None, None)
    table = tuple(positions)
    positions = dict(zip(table, range(len(table))))
    positions[None] = -1
    return np.fromiter(map(positions.__getitem__, values), np.int32, len(values)), table


_RECORD_FIELDS = tuple(f.name for f in fields(CodedRecord))
_EPOCH, _MICROSECOND = datetime(1970, 1, 1), timedelta(microseconds=1)


def _wall_clock(whens: Sequence[datetime],
                zones: dict[tzinfo, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each time's wall-clock time, and its UTC offset's number in ``zones``
    (-1 when naive), numbering new offsets as first seen."""
    zone = [-1 if when.tzinfo is None else zones.setdefault(when.tzinfo, len(zones))
            for when in whens]
    wall = np.fromiter(((when.replace(tzinfo=None) - _EPOCH) // _MICROSECOND for when in whens),
                       np.int64, len(whens))
    return wall.astype("datetime64[us]"), np.array(zone, np.int32)


# The per-row fields of a RecordBatch; every other field is a table.
_COLUMNS = ("record_id", "times", "zone", "age_band", "sex", "institution", "code",
            "clinical", "version", "co", "tag", "confidence", "fidelity")

# Each interned column of a RecordBatch: the records-file field it holds and
# the batch's table it indexes. The primary code's column is interned first.
_INTERNED: Mapping[str, tuple[str, str]] = {
    "age_band": ("patient_age_band", "age_bands"), "sex": ("patient_sex", "sexes"),
    "institution": ("institution_id", "institutions"), "code": ("primary_code", "codes"),
    "clinical": ("clinical_code", "codes"), "co": ("co_codes", "co_sets"),
    "version": ("version_tag", "versions")}


def _annotation_json(values: Sequence[float], note: tuple[Any, ...]) -> dict[str, Any]:
    """The ``fidelity`` object of the annotation entry of ``values`` and ``note``."""
    score, prev, cooc, inst = (number(value) for number, value in zip(note[1:], values))
    return {"score": score, "prevalence_subscore": prev, "cooccurrence_subscore": cooc,
            "institutional_subscore": inst, "rationale": note[0] if note[0] is not None
            else f"prev={prev:.3f} cooc={cooc:.3f} inst={inst:.3f}"}


def _annotation_entry(data: Mapping[str, Any]) -> tuple[list[float], tuple[Any, ...]]:
    """The values and note of a ``fidelity`` object of exactly its keys and types."""
    if data.keys() != {*_SCORES, "rationale"}:
        raise TypeError
    values = [_json_number(data[name]) for name in _SCORES]
    return list(map(float, values)), (_str(data["rationale"]), *map(type, values))


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """A batch of coded records held as columns, one row per record.

    Each string field is interned: its column holds a row's index into a
    table of distinct values, as ``_INTERNED`` names them. ``codes`` serves
    both code layers, and ``age_bands`` and ``sexes`` are the fixed
    ``AGE_BANDS`` and ``SEXES``. UTC offsets are interned the same way. ``fidelity``
    indexes the rows of ``annotations``, each a score and its subscores, as
    ``tag`` indexes influence tags' ``tags``; a note and a head hold each
    number's type, so a value keeps its JSON type. Rows annotated with the
    same subscores share an entry, as do rows read with the same fidelity
    text. Index -1 stands for None: no clinical code, no annotation, no
    tag, or a naive timestamp. ``times`` holds each encounter's wall-clock
    time. Record ids are fixed-width text: no field holds objects per row.

    Stages read and write the columns, and ``groups`` the distinct
    combinations of named columns. Iterating yields each row as a
    ``CodedRecord``, built on demand; only perfbench's traced counter
    iterates, and no stage does.
    """

    record_id: np.ndarray            # fixed-width text, at most MAX_RECORD_ID characters
    times: np.ndarray                # datetime64[us], wall clock
    zone: np.ndarray                 # index into zones, -1 when naive
    zones: tuple[tzinfo, ...]
    age_band: np.ndarray             # index into AGE_BANDS
    sex: np.ndarray                  # index into SEXES
    institution: np.ndarray          # index into institutions
    institutions: tuple[str, ...]
    code: np.ndarray                 # index into codes: the administrative layer
    clinical: np.ndarray             # index into codes: the clinical layer, -1 when empty
    codes: tuple[str, ...]
    version: np.ndarray              # index into versions
    versions: tuple[str, ...]
    co: np.ndarray                   # index into co_sets
    co_sets: tuple[frozenset[str], ...]
    tag: np.ndarray                  # index into tags, -1 when not AI-influenced
    confidence: np.ndarray           # float64, a tag's model_confidence; NaN when untagged
    tags: tuple[tuple[str, bool, type], ...]  # (model version, clinician modified, int or float)
    fidelity: np.ndarray             # row of annotations, -1 when not annotated
    annotations: np.ndarray          # float64 (entries, 4): the values of _SCORES
    notes: tuple[tuple[Any, ...], ...]  # (rationale or None for prev=..., 4 x int or float)
    age_bands, sexes = AGE_BANDS, SEXES  # the fixed tables of age_band and sex, not fields

    @classmethod
    def _from_columns(cls, column: Mapping[str, Sequence[Any]],
                      row: Mapping[str, np.ndarray] | None = None, **own: Any) -> RecordBatch:
        """The batch whose row ``i`` holds ``column[name][row[name][i]]`` as
        interned field ``name``, or ``column[name][i]`` when ``row`` is None,
        and the fields ``own`` gives (record ids, times and tags).
        Tables are in first-seen order of ``column``'s values; each annotation is an entry."""
        index, tables = {}, {}
        for name, (key, table) in _INTERNED.items():
            pos, tables[table] = intern(column[key], tables.get(table, getattr(cls, table, ())))
            index[name] = pos if row is None else pos[row[key]]
        entries = [entry for entry in column["fidelity"] if entry is not None]
        annotated = [entry is not None for entry in column["fidelity"]]
        fidelity = np.where(annotated, np.cumsum(annotated, dtype=np.int32) - 1, -1)
        return cls(
            **index, **{name: table for name, table in tables.items() if not hasattr(cls, name)},
            fidelity=fidelity if row is None else fidelity[row["fidelity"]],
            annotations=np.array([values for values, _ in entries], np.float64).reshape(-1, 4),
            notes=tuple(note for _, note in entries), **own,
        )

    def __len__(self) -> int:
        return len(self.record_id)

    def select(self, rows: Any) -> RecordBatch:
        """The rows that ``rows`` (a mask, indices or a slice) picks, one copy per column array."""
        columns = {name: getattr(self, name) for name in _COLUMNS}
        picked = {key: column[rows] for key, column in {id(c): c for c in columns.values()}.items()}
        return replace(self, **{name: picked[id(column)] for name, column in columns.items()})

    def encounter_time(self, row: int) -> datetime:
        """Row ``row``'s encounter time, with its UTC offset if it has one."""
        zone = self.zone[row]
        return self.times[row].item().replace(tzinfo=self.zones[zone] if zone >= 0 else None)

    def groups(self, *names: str) -> tuple[list[tuple[Any, ...]], list[int], np.ndarray]:
        """Each distinct combination of the interned columns ``names`` as a
        tuple of their values, sorted by the first column's table order, then
        the next's; its row count; and each row's index into the combinations."""
        tables = [getattr(self, _INTERNED[name][1]) for name in names]
        distinct, _, counts, index = group([getattr(self, name) for name in names],
                                           [len(table) for table in tables])
        return list(zip(*map(gather, tables, distinct))), counts.tolist(), index

    def __iter__(self) -> Iterator[CodedRecord]:
        annotations = [FidelityAnnotation(**_annotation_json(values, note))
                       for values, note in zip(self.annotations.tolist(), self.notes)]
        row = {key: gather(getattr(self, table), getattr(self, name))
               for name, (key, table) in _INTERNED.items()}
        row["record_id"] = self.record_id.tolist()
        row["fidelity"] = gather(annotations, self.fidelity)
        row["encounter_time"] = [when.replace(tzinfo=zone) for when, zone
                                 in zip(self.times.tolist(), gather(self.zones, self.zone))]
        row["influence_tag"] = [None if head is None else InfluenceTag(head[0], head[2](c), head[1])
                                for head, c in zip(gather(self.tags, self.tag),
                                                   self.confidence.tolist())]
        return map(CodedRecord, *(row[name] for name in _RECORD_FIELDS))


@dataclass(slots=True)
class CodeUsage:
    """How one code is used in a batch: its count, and its counts by co-code,
    (age band, sex), (year, month) of encounter and institution."""

    count: int
    last_seen: datetime
    co_codes: dict[str, int] = field(default_factory=dict)
    strata: dict[tuple[str, str], int] = field(default_factory=dict)
    months: dict[tuple[int, int], int] = field(default_factory=dict)
    institutions: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BatchProfile:
    """The per-code usage of one batch on one code layer.

    ``codes`` is in first-seen order; ``first_day`` and ``last_day`` are
    None for an empty batch.
    """

    n: int
    codes: Mapping[str, CodeUsage]
    versions: Mapping[str, int]
    first_day: date | None
    last_day: date | None

    def dominant_version(self) -> str:
        """Most common version tag; ties go to the greater label."""
        return max(self.versions, key=lambda t: (self.versions[t], t))

    def window(self) -> TimeWindow:
        """From the 1st of the first encounter's month to the last encounter's day."""
        if self.first_day is None:
            raise ValidationError("cannot infer a window from an empty batch")
        return TimeWindow(self.first_day.replace(day=1), self.last_day)


def group(columns: Sequence[np.ndarray], sizes: Sequence[int]
          ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by their values in ``columns``, column ``c``'s in ``range(sizes[c])``.

    Returns the distinct rows, one array per column, sorted by the first
    column, then the next; the first row and the count of each; and each
    row's index into them. Counting is one pass over the rows, each packed
    into one int64 key; keys spread far wider than the rows are numbered densely first.
    """
    keys = np.asarray(columns[0], dtype=np.int64)
    for column, size in zip(columns[1:], sizes[1:]):
        keys = keys * size + column
    size, distinct = math.prod(sizes), None
    if size > 2 * len(keys) + 4096:
        distinct, keys = np.unique(keys, return_inverse=True)
        size = len(distinct)
    counts = np.bincount(keys, minlength=size)
    first = np.full(size, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    present = np.flatnonzero(counts)
    index = (np.cumsum(counts > 0) - 1)[keys]
    keys = present if distinct is None else distinct[present]
    return [keys // math.prod(sizes[c + 1:]) % sizes[c] for c in range(len(sizes))], \
        first[present], counts[present], index


def _first_seen(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> zip:
    """Each distinct row of ``columns``, its values then its count, in first-seen order."""
    distinct, first, counts, _ = group(columns, sizes)
    order = np.argsort(first)
    return zip(*(column[order].tolist() for column in distinct), counts[order].tolist())


def profile_batch(batch: RecordBatch, layer: Layer) -> BatchProfile:
    """Count a batch per code on ``layer``, one column pass per count.

    This is the one place that picks each record's code on a layer; every
    stage that counts codes reads the profile instead of the records.
    Every dict keeps first-seen order. A code's ``last_seen`` is its latest
    encounter time; among equal instants the first one seen wins. Months
    and days are the records' own wall-clock dates.
    """
    code = batch.code
    if layer is Layer.CLINICAL:
        code = np.where(batch.clinical >= 0, batch.clinical, batch.code)
    if not len(batch):
        return BatchProfile(0, {}, {}, None, None)
    (distinct,), first, counts, inverse = group([code], [len(batch.codes)])

    # A code's times compare as instants, so they must all be naive or all
    # carry a UTC offset; the first row that breaks this is named.
    aware = batch.zone >= 0
    mixed = aware != aware[first][inverse]
    if mixed.any():
        row = int(np.argmax(mixed))
        raise ValidationError(f"record {str(batch.record_id[row])!r}: encounter times of code "
                              f"{batch.codes[code[row]]!r} mix naive and UTC-offset timestamps")
    offsets = [zone.utcoffset(None) // timedelta(microseconds=1) for zone in batch.zones]
    instant = (batch.times.astype(np.int64)
               - np.array(offsets + [0], dtype=np.int64)[batch.zone])
    # Each code's latest instant, then the first row that reaches it.
    peak = np.full(len(counts), np.iinfo(np.int64).min)
    np.maximum.at(peak, inverse, instant)
    latest, top = np.full(len(counts), len(batch)), np.flatnonzero(instant == peak[inverse])
    np.minimum.at(latest, inverse[top], top)

    usages = [CodeUsage(n, batch.encounter_time(row))
              for n, row in zip(counts.tolist(), latest.tolist())]
    codes = {batch.codes[distinct[key]]: usages[key] for key in np.argsort(first).tolist()}

    def tally(name: str, columns: list, sizes: list, label: Callable[..., Any]) -> None:
        for key, *values, n in _first_seen([inverse, *columns], [len(distinct), *sizes]):
            getattr(usages[key], name)[label(*values)] = n

    tally("strata", [batch.age_band, batch.sex], [len(AGE_BANDS), len(SEXES)],
          lambda band, sex: (AGE_BANDS[band], SEXES[sex]))
    month = batch.times.astype("datetime64[M]").astype(np.int64)  # months since 1970-01
    low = int(month.min())
    tally("months", [month - low], [int(month.max()) - low + 1],
          lambda m: (1970 + (m + low) // 12, (m + low) % 12 + 1))
    tally("institutions", [batch.institution], [len(batch.institutions)],
          batch.institutions.__getitem__)
    for key, co, n in _first_seen([inverse, batch.co], [len(distinct), len(batch.co_sets)]):
        co_codes = usages[key].co_codes
        for co_code in batch.co_sets[co]:
            co_codes[co_code] = co_codes.get(co_code, 0) + n
    versions = {batch.versions[v]: n
                for v, n in _first_seen([batch.version], [len(batch.versions)])}
    days = batch.times.astype("datetime64[D]")
    return BatchProfile(len(batch), codes, versions, days.min().item(), days.max().item())


# A records file's fields in line order, keys sorted as ``jsonl_dumps``
# sorts them. The reader captures three fields per row, and each maximal
# run of the others as one span, whose distinct texts are few: a line's
# captures are each such field's name and each span's tuple of names.
_LINE_FIELDS = sorted(_RECORD_FIELDS)
_ROW_FIELDS = ("encounter_time", "influence_tag", "record_id")
_CAPTURES = [capture for per_row, names in groupby(_LINE_FIELDS, _ROW_FIELDS.__contains__)
             for capture in (names if per_row else [tuple(names)])]
_SPANS = [capture for capture in _CAPTURES if type(capture) is tuple]

# One records-file line as a pattern. Each field's text is scanned by a
# one-character negated class: a string by [^"], co-codes by [^\]] and a
# fidelity object by [^}]. Python's re runs such a class as a tight loop,
# but tests a class of several ranges one character at a time against a
# charset, which took half of a read. Backtracking into one fails at once,
# as it stops at the character that must come next; a possessive *+ would
# need Python 3.11. What the classes let through is checked after the
# match, a block of lines at a time:
# - a match that runs across a newline leaves the block a line short;
# - the ids and times, joined, hold no backslash or control character,
#   so each, put in quotes, is a JSON string whose value is its own text;
# - the tag texts decode as one JSON array, a value per text: a string run
#   past its text's end would meet null or {"c and fail;
# - each distinct span text, put in braces, decodes to an object with
#   exactly its span's keys.
# A line that passes is then the concatenation of valid JSON object
# members with exactly the record's keys, and every capture decodes to the
# value that ``json.loads`` of the whole line holds there.
_PLAIN = r'[^"]*'
_CONTROL = re.compile(r"[\x00-\x1f]")  # searched only in texts that are not isprintable()
# A tag is captured whole, null or an object whose keys, literals and
# number the pattern spells out, and decoded by json. [0-9]: \d matches more.
_TEXT = {"clinical_code": f'(?:null|"{_PLAIN}")', "co_codes": r"\[[^\]]*\]",
         "fidelity": r"(?:null|\{[^}]*\})", "encounter_time": f'"({_PLAIN})"',
         "influence_tag": r'(null|\{"clinician_modified":(?:true|false),"model_confidence":'
         r'-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?,'
         f'"model_version":"{_PLAIN}"' r"\})", "record_id": f'"([^"]{{0,{MAX_RECORD_ID}}})"'}


def _capture_text(capture: str | tuple[str, ...]) -> str:
    if type(capture) is tuple:
        return f"({','.join(map(_capture_text, capture))})"
    return f"{re.escape(jsonl_dumps(capture))}:" + _TEXT.get(capture, f'"{_PLAIN}"')


_CANONICAL = re.compile(r"^\{" + ",".join(map(_capture_text, _CAPTURES)) + r"\}$", re.MULTILINE)

# A block's encounter times, each followed by a newline, in ``isoformat``'s
# exact naive layout, which NumPy reads as ``datetime.fromisoformat`` does.
_NAIVE_TIMES = re.compile(r"(?:\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(?:\.\d{6})?\n)*", re.ASCII)

# Each field's conversion of its JSON value, as ``from_json`` converts it;
# an age band or sex is looked up, as ``CodedRecord`` checks it.
_CHECK: Mapping[str, Callable[[Any], Any]] = {
    **{key: shape[2] for key, (_, _, shape) in _plan(CodedRecord)[0].items()},
    "patient_age_band": lambda band: AGE_BANDS[AGE_BANDS.index(band)],
    "patient_sex": lambda sex: SEXES[SEXES.index(sex)],
    "fidelity": lambda data: None if data is None else _annotation_entry(_object(data)),
}

# Lines read and matched, or encoded and written, at a time: enough that
# each step runs in C, few enough that a block's text stays small.
_BLOCK_LINES = 1024


def _times(texts: Sequence[str], zones: dict[tzinfo, int]) -> tuple[np.ndarray, np.ndarray]:
    """``_wall_clock`` of ISO 8601 time texts. Texts in ``_NAIVE_TIMES``'
    layout are checked by ``datetime.fromisoformat``, which raises
    ValueError on a time that does not exist, and read by NumPy."""
    if not _NAIVE_TIMES.fullmatch("\n".join(texts) + "\n"):
        return _wall_clock(list(map(datetime.fromisoformat, texts)), zones)
    all(map(datetime.fromisoformat, texts))
    return np.array(texts, dtype="datetime64[us]"), np.full(len(texts), -1, np.int32)


def _numbering() -> defaultdict[Hashable, int]:
    """A dict that numbers each key as it is first looked up: 0, 1, 2, ..."""
    numbers: defaultdict[Hashable, int] = defaultdict(lambda: len(numbers))
    return numbers


def _tags(tags: Sequence[Mapping[str, Any] | None],
          heads: defaultdict[Hashable, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each tag object's (model_version, clinician_modified, type(model_confidence)) head as
    ``heads`` numbers it when first seen, and its confidence; -1 and NaN for None."""
    tag = [-1 if t is None else heads[t["model_version"], t["clinician_modified"],
                                      type(t["model_confidence"])] for t in tags]
    confidence = [math.nan if t is None else t["model_confidence"] for t in tags]
    return np.array(tag, np.int32), np.array(confidence, np.float64)


def _canonical_batch(path: str | Path) -> RecordBatch | None:
    """The batch of a records file whose every line matches ``_CANONICAL`` and
    passes its checks; None for any other file.

    The file is read a block of lines at a time. A block numbers each span
    text as first seen in the file and keeps only those numbers, record ids,
    times and the tag columns of ``_tags``. Each distinct span is then
    decoded and checked once, and each field's column is its span's numbers
    mapped to the field's index, so every table is in first-seen row order.
    """
    spans = {names: _numbering() for names in _SPANS}
    numbers: dict[Any, list[np.ndarray]] = {names: [np.empty(0, np.int32)] for names in _SPANS}
    column: dict[str, list[Any]] = {name: [] for name in _LINE_FIELDS}
    times, zone, zones = [np.empty(0, "datetime64[us]")], [np.empty(0, np.int32)], {}
    heads, tagged, ids = _numbering(), [(np.empty(0, np.int32), np.empty(0))], [np.empty(0, str)]
    try:
        with open(path, encoding="utf-8") as fh:
            while lines := list(islice(fh, _BLOCK_LINES)):
                rows = _CANONICAL.findall("".join(lines))
                if len(rows) != len(lines):
                    return None
                block = dict(zip(_CAPTURES, zip(*rows)))
                plain = "".join(block["record_id"] + block["encounter_time"])
                if "\\" in plain or (not plain.isprintable() and _CONTROL.search(plain)):
                    return None
                for names, table in spans.items():
                    numbers[names].append(np.fromiter(map(table.__getitem__, block[names]),
                                                      np.int32, len(rows)))
                ids.append(np.array(block["record_id"], dtype=str))  # no str outlives its block
                tagged.append(_tags(json.loads(f'[{",".join(block["influence_tag"])}]'), heads))
                when, offset = _times(block["encounter_time"], zones)
                times.append(when)
                zone.append(offset)
        row: dict[str, np.ndarray] = {}
        for names, table in spans.items():
            row.update(dict.fromkeys(names, np.concatenate(numbers[names])))
            for text in table:
                data = json.loads("{" + text + "}")
                if data.keys() != set(names):
                    return None
                for name in names:
                    column[name].append(_CHECK[name](data[name]))
        tag, confidence = map(np.concatenate, zip(*tagged))
    except (FileNotFoundError, *_PARSE_FAULTS):  # UnicodeDecodeError is a ValueError
        return None
    batch = RecordBatch._from_columns(
        column, row, record_id=np.concatenate(ids), times=np.concatenate(times),
        zone=np.concatenate(zone), zones=tuple(zones),
        tag=tag, confidence=confidence, tags=tuple(heads))
    # Range checks by column; NaN, an untagged row's confidence, may be a fidelity value too.
    scores = batch.annotations
    if ((confidence < 0) | (confidence > 1)).any() or not ((scores >= 0) & (scores <= 1)).all():
        return None
    return batch


def read_records(path: str | Path) -> RecordBatch:
    """The batch a records file holds, one JSON object per line.

    A file that ``write_records`` wrote is read by ``_canonical_batch``.
    Any other file, and any file with a fault, is read line by line as
    ``CodedRecord`` values through ``from_json``, which names the fault
    and its ``path:line``. Each such row keeps an annotation entry of its
    own, so equal annotations written differently are written back as read.
    """
    batch = _canonical_batch(path)
    if batch is not None:
        return batch
    # Fields are moved into column lists a block of records at a time, so
    # that no more than a block of records is alive at once.
    column: dict[str, list[Any]] = {name: [] for name in _RECORD_FIELDS}
    rows = (vars(record).values() for record in iter_jsonl(path, CodedRecord))
    while block := list(islice(rows, 4096)):
        for values, fields_of_block in zip(column.values(), zip(*block)):
            values.extend(fields_of_block)
    zones: dict[tzinfo, int] = {}
    times, zone = _wall_clock(column["encounter_time"], zones)
    column["fidelity"] = [a and _annotation_entry(vars(a)) for a in column["fidelity"]]
    heads = _numbering()
    tag, confidence = _tags([t and vars(t) for t in column["influence_tag"]], heads)
    return RecordBatch._from_columns(
        column, record_id=np.array(column["record_id"], dtype=str), times=times, zone=zone,
        zones=tuple(zones), tag=tag, confidence=confidence, tags=tuple(heads))


# A row's object, each field's name between NULs where its text goes (an
# encounter time's inside its quotes), and a records-file line split at the NULs.
_ROW_OBJECT = "{" + ",".join(
    jsonl_dumps(name) + (':"\0%s\0"' if name == "encounter_time" else ":\0%s\0") % name
    for name in _LINE_FIELDS) + "}"
_LINE = (_ROW_OBJECT + "\n").split("\0")


def write_records(path: str | Path, records: RecordBatch,
                  **extra: tuple[Sequence[Any], np.ndarray]) -> None:
    """Write ``records`` as a records file: each row as ``jsonl_dumps`` writes it, one a line.

    Each ``extra`` field is a table and an index column, like a row's table-held
    fields; with any, line ``i`` is the object of each extra key's ``table[index[i]]``
    and row ``i`` under ``record``, keys sorted. Rows are encoded and written a block at
    a time. Each table entry that a row uses and each UTC offset is encoded once and
    times by NumPy, and a block's lines are one list of the constant texts with each
    field's texts slotted in. A tag's entry holds null for its confidence.
    """
    tables = {  # each table-held field's table and index column
        key: (getattr(records, table), getattr(records, name))
        for name, (key, table) in _INTERNED.items()} | extra
    tables["fidelity"] = (list(zip(records.annotations.tolist(), records.notes)), records.fidelity)
    tables["influence_tag"] = ([dict(clinician_modified=m, model_confidence=None, model_version=v)
                                for v, m, _ in records.tags], records.tag)
    line = _LINE if not extra else ("{" + ",".join(
        jsonl_dumps(key) + ":" + (_ROW_OBJECT if key == "record" else "\0%s\0" % key)
        for key in sorted([*extra, "record"])) + "}\n").split("\0")
    entries = {}
    for name, (table, index) in tables.items():  # only the entries that rows use
        used = (np.bincount(index + 1, minlength=len(table) + 1)[1:] > 0).tolist()
        value = (lambda entry: _annotation_json(*entry)) if name == "fidelity" else _identity
        entries[name] = np.array([jsonl_dumps(value(entry)) if use else None
                                  for entry, use in zip(table, used)] + ["null"], object)
    offsets = np.array([datetime(1, 1, 1, tzinfo=zone).isoformat()[19:] for zone in records.zones]
                       + [""])
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(records), _BLOCK_LINES):
            rows = slice(start, start + _BLOCK_LINES)
            text = {name: entries[name][index[rows]].tolist()
                    for name, (_, index) in tables.items()}
            text["record_id"] = list(map(jsonl_dumps, records.record_id[rows].tolist()))
            text["influence_tag"] = [  # a tag's first null is its confidence's
                tag if i < 0 else tag.replace("null", repr(records.tags[i][2](confidence)), 1)
                for i, tag, confidence in zip(records.tag[rows].tolist(), text["influence_tag"],
                                              records.confidence[rows].tolist())]
            times = records.times[rows]
            when = np.datetime_as_string(times, unit="s")
            fraction = times.astype(np.int64) % 1_000_000 != 0
            if fraction.any():  # isoformat writes microseconds only when there are some
                when = np.where(fraction, np.datetime_as_string(times, unit="us"), when)
            text["encounter_time"] = np.char.add(when, offsets[records.zone[rows]]).tolist()
            parts = line * len(when)
            for i, name in enumerate(line[1::2]):
                parts[2 * i + 1::len(line)] = text[name]
            fh.write("".join(parts))


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


# Paper-suggested starting point for the AI-influence breaker threshold.
DEFAULT_BREAKER_THRESHOLD = 0.15


@dataclass(frozen=True)
class PipelineConfig:
    """Thresholds and weights shared across pipeline stages."""

    fidelity_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    drift_threshold: float = 0.1
    breaker_threshold: float = DEFAULT_BREAKER_THRESHOLD
    dormancy_frequency_threshold: float = 0.002
    release_correlation_window_days: int = 90
    inference_fidelity_cutoff: float = 0.5
    fingerprint_min_support: int = 20
    drift_component_weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self) -> None:
        for name, size, words in (("fidelity_weights", 3, "three"),
                                  ("drift_component_weights", 4, "four")):
            weights = getattr(self, name)
            if len(weights) != size or not all(w >= 0 for w in weights):
                raise ValidationError(f"{name} must be {words} non-negative reals")
            if not abs(sum(weights) - 1.0) <= 1e-9:
                raise ValidationError(f"{name}: weights must sum to 1")
        if not self.drift_threshold > 0:
            raise ValidationError(f"drift_threshold must be > 0, got {self.drift_threshold}")
        if not 0.0 < self.breaker_threshold < 1.0:
            raise ValidationError("breaker_threshold must be in (0,1), "
                                  f"got {self.breaker_threshold}")
        if not 0.0 < self.dormancy_frequency_threshold < 1.0:
            raise ValidationError("dormancy_frequency_threshold must be in (0,1), "
                                  f"got {self.dormancy_frequency_threshold}")
        if self.release_correlation_window_days <= 0:
            raise ValidationError("release_correlation_window_days must be positive")
        if not 0.0 <= self.inference_fidelity_cutoff <= 1.0:
            raise ValidationError("inference_fidelity_cutoff must be in [0,1]")
        if self.fingerprint_min_support < 1:
            raise ValidationError("fingerprint_min_support must be >= 1")


def load_config(path: str | Path) -> PipelineConfig:
    """Load and validate a pipeline config file, applying defaults for absent keys.

    Raises:
        ValidationError: on parse failure, a mistyped value or an
            out-of-range threshold (the message names the offending key).
    """
    return load_json(path, "config file", PipelineConfig)
