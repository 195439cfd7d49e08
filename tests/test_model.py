"""Core types, config loading, and code-system loading."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SEED, annotation, read_rows, row, rows, tables, tag, tiny_system
from ontoguard import model, synthgen
from ontoguard.checkpoint import annotate_batch, build_reference_model
from ontoguard.model import (
    AGE_BANDS,
    SEXES,
    CodeSystem,
    CodedRecord,
    FidelityAnnotation,
    InfluenceTag,
    PipelineConfig,
    TimeWindow,
    ValidationError,
    from_json,
    jsonl_dumps,
    load_code_system,
    load_config,
    read_records,
    to_json,
    write_records,
)
from ontoguard.version_gate import gate_batch, read_quarantine, write_quarantine


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_omitted_breaker_threshold_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"drift_threshold": 0.1}))
        assert cfg.breaker_threshold == 0.15

    def test_weights_must_sum_to_one(self, tmp_path):
        path = write_config(tmp_path, {"fidelity_weights": [0.5, 0.3, 0.3]})
        with pytest.raises(ValidationError, match="weights must sum to 1"):
            load_config(path)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_config(path)

    def test_out_of_range_threshold_names_key(self, tmp_path):
        path = write_config(tmp_path, {"breaker_threshold": 1.5})
        with pytest.raises(ValidationError, match="breaker_threshold"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(ValidationError, match="bogus"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "nope.json")


class TestLoadCodeSystem:
    def test_bundled_system(self, walkthrough_spec, bundled_system):
        assert bundled_system.system_id == "SYN-ICD"
        assert [v.label for v in bundled_system.versions] == ["2024", "2025"]
        assert ("2024", "2025") in bundled_system.tables

    def test_single_version_no_tables(self):
        system = tiny_system(versions=[
            {"label": "v1", "release_date": "2024-01-01", "validated": True},
        ])
        assert len(system.versions) == 1
        assert system.tables == {}

    def test_transition_with_unknown_code_rejected(self):
        with pytest.raises(ValidationError, match="unknown code"):
            tiny_system(transitions=[{
                "from": "v1", "to": "v2",
                "mappings": [{"from_code": "ZZZ", "to_code": "AAA"}],
                "unmappable": [],
            }])

    def test_duplicate_version_label_rejected(self):
        with pytest.raises(ValidationError, match="duplicate version label"):
            tiny_system(versions=[
                {"label": "v1", "release_date": "2024-01-01", "validated": True},
                {"label": "v1", "release_date": "2025-01-01", "validated": True},
            ])

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_base_prevalence_must_be_a_number(self, value):
        named = re.escape(f"base_prevalence['BBB'] must be a number, got {value!r}")
        with pytest.raises(ValidationError, match=named):
            tiny_system(base_prevalence={"AAA": 0.5, "BBB": value})

    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_base_prevalence_must_be_finite_and_not_negative(self, value):
        named = re.escape(f"base_prevalence['BBB'] must be a number >= 0, got {value!r}")
        with pytest.raises(ValidationError, match=named):
            tiny_system(base_prevalence={"AAA": 0.5, "BBB": value})

    @pytest.mark.parametrize("profiles, named", [
        ({"cooccurrence": "x"},
         "cooccurrence_profiles must be an object of objects of numbers, got 'x'"),
        ({"cooccurrence": {"AAA": [0.3]}},
         "cooccurrence_profiles['AAA'] must be an object of numbers, got [0.3]"),
        ({"cooccurrence": {"AAA": {"CCC": "0.3"}}},
         "cooccurrence_profiles['AAA']['CCC'] must be a number, got '0.3'"),
        ({"cooccurrence": {"AAA": {"CCC": True}}},
         "cooccurrence_profiles['AAA']['CCC'] must be a number, got True"),
        ({"cooccurrence": {"AAA": {"CCC": -0.1}}},
         "cooccurrence_profiles['AAA']['CCC'] must be a number >= 0, got -0.1"),
        ({"demographics": [1]}, "demographic_profiles must be an object of objects, got [1]"),
        ({"demographics": {"AAA": {"sex": [1]}}},
         "demographic_profiles['AAA'].sex must be an object of numbers, got [1]"),
        ({"demographics": {"AAA": {"age": {"50-59": "0.2"}}}},
         "demographic_profiles['AAA'].age['50-59'] must be a number, got '0.2'"),
        ({"demographics": {"AAA": {"ages": {}}}},
         "demographic_profiles['AAA'] has unknown keys ['ages']"),
        ({"demographics": {"AAA": {"age": {"55-64": 0.2}}}},
         "demographic_profiles['AAA'].age has unknown keys ['55-64']"),
        ({"demographics": {"AAA": {"sex": {"femal": 0.5}}}},
         "demographic_profiles['AAA'].sex has unknown keys ['femal']"),
    ])
    def test_profiles_hold_objects_of_numbers(self, profiles, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            tiny_system(**profiles)

    def test_integer_profile_weights_accepted(self):
        system = tiny_system(cooccurrence={"AAA": {"CCC": 1}},
                             demographics={"AAA": {"age": {"50-59": 2}, "sex": {}}})
        assert system.cooccurrence_profiles == {"AAA": {"CCC": 1}}

    def test_integer_base_prevalence_is_a_float(self):
        assert tiny_system(base_prevalence={"AAA": 1}).base_prevalence == {"AAA": 1.0}

    def test_versions_must_be_ordered_by_release_date(self):
        with pytest.raises(ValidationError, match="ordered by release date"):
            tiny_system(versions=[
                {"label": "v2", "release_date": "2025-01-01", "validated": True},
                {"label": "v1", "release_date": "2024-01-01", "validated": True},
            ])

    def test_empty_taxonomy_rejected(self):
        # CodeDef checks itself, so the fault names where the code sits.
        named = re.escape("codes['v1'][0]: code 'A' has empty taxonomy fields")
        with pytest.raises(ValidationError, match=f"^{named}$"):
            from_json(CodeSystem, {
                "system_id": "X",
                "versions": [{"label": "v1", "release_date": "2024-01-01",
                              "validated": True}],
                "codes": {"v1": [{"code": "A", "clinical_group": "",
                                  "billing_category": "b", "description": ""}]},
            })

    def test_undeclared_clinical_group_rejected(self):
        with pytest.raises(ValidationError, match="undeclared clinical group"):
            from_json(CodeSystem, {
                "system_id": "X",
                "versions": [{"label": "v1", "release_date": "2024-01-01",
                              "validated": True}],
                "clinical_groups": ["g1"],
                "codes": {"v1": [{"code": "A", "clinical_group": "g9",
                                  "billing_category": "b", "description": ""}]},
            })


class TestRecords:
    def test_record_round_trip(self):
        record = row(
            co_codes=("LAB-GLU-HI", "RX-INSULIN"),
            influence_tag=tag("m1", 0.7, False),
            fidelity=annotation(0.5, 0.5, 0.5, 0.5, "test"),
            clinical_code="DM2-HYPER",
        )
        assert rows(read_rows([record])) == [record]

    def test_unknown_age_band_rejected(self):
        with pytest.raises(ValidationError, match="age band"):
            from_json(CodedRecord, row(age_band="200+"))

    def test_unknown_sex_rejected(self):
        with pytest.raises(ValidationError, match="sex"):
            from_json(CodedRecord, row(sex="unknown"))

    def test_fidelity_scores_bounded(self):
        with pytest.raises(ValidationError, match="score"):
            FidelityAnnotation(1.2, 0.5, 0.5, 0.5, "test")

    def test_influence_confidence_bounded(self):
        with pytest.raises(ValidationError, match="model_confidence"):
            InfluenceTag("m1", 1.5, False)

    def test_missing_field_named(self):
        with pytest.raises(ValidationError,
                           match=r"records\.jsonl:1: is missing key 'record_id'"):
            read_rows([{"primary_code": "X"}])

    @pytest.mark.parametrize("field, value, named", [
        ("co_codes", "LAB-GLU-HI", "co_codes must be a list of strings, got 'LAB-GLU-HI'"),
        ("co_codes", ["LAB-GLU-HI", 7], "co_codes[1] must be a string, got 7"),
        ("encounter_time", "notatime",
         "encounter_time must be an ISO 8601 timestamp, got 'notatime'"),
        ("encounter_time", 20250215, "encounter_time must be an ISO 8601 timestamp, got 20250215"),
        ("record_id", 17, "record_id must be a string, got 17"),
        ("clinical_code", ["DM2-HYPER"],
         "clinical_code must be a string or null, got ['DM2-HYPER']"),
        ("influence_tag", {"model_version": "m1", "model_confidence": "0.7",
                           "clinician_modified": False},
         "influence_tag.model_confidence must be a number, got '0.7'"),
        ("influence_tag", {"model_version": "m1", "model_confidence": True,
                           "clinician_modified": False},
         "influence_tag.model_confidence must be a number, got True"),
        ("influence_tag", {"model_version": "m1", "model_confidence": 0.7,
                           "clinician_modified": "no"},
         "influence_tag.clinician_modified must be true or false, got 'no'"),
        ("fidelity", {"score": "high", "prevalence_subscore": 0.5,
                      "cooccurrence_subscore": 0.5, "institutional_subscore": 0.5,
                      "rationale": ""}, "fidelity.score must be a number, got 'high'"),
        ("fidelity", [0.5], "fidelity must be an object or null, got [0.5]"),
    ], ids=[
        "co-codes-string", "co-code-not-string", "time-not-iso", "time-not-string",
        "record-id-int", "clinical-code-list", "confidence-string", "confidence-bool",
        "modified-string", "score-string", "fidelity-list",
    ])
    def test_mistyped_field_named(self, field, value, named):
        data = {**row(), field: value}
        with pytest.raises(ValidationError, match=r"records\.jsonl:1: " + re.escape(named) + "$"):
            read_rows([data])

    def test_record_must_be_an_object(self):
        with pytest.raises(ValidationError,
                           match=r"records\.jsonl:1: must hold a JSON object"):
            read_rows([["R-000000"]])

    @pytest.mark.parametrize("field, value, message", [
        ("patient_age_band", "200+", "unknown age band: '200\\+'"),
        ("patient_sex", "unknown", "unknown sex: 'unknown'"),
    ], ids=["age-band", "sex"])
    def test_read_unknown_demographics_named(self, field, value, message):
        data = {**row(), field: value}
        with pytest.raises(ValidationError, match=rf"records\.jsonl:1: {message}"):
            read_rows([data])

    def test_read_records_names_path_and_line(self, tmp_path):
        good = json.dumps(row())
        bad = json.dumps({**row(), "co_codes": "LAB-GLU-HI"})
        path = tmp_path / "records.jsonl"
        path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"records\.jsonl:3: co_codes must be a list "
                                                  r"of strings, got 'LAB-GLU-HI'"):
            read_records(path)


_TEXT = st.text(max_size=8)
# Record ids hold no U+0000, which a batch's fixed-width id column would drop.
_IDS = _TEXT.filter(lambda text: "\0" not in text)
# Integers and -0.0 are valid JSON numbers that must be written back as read.
_SCORES = st.floats(0, 1) | st.sampled_from([0, 1, -0.0])
_ANNOTATIONS = st.builds(annotation, _SCORES, _SCORES, _SCORES, _SCORES, _TEXT)
# UTC offsets as isoformat writes them: minutes, seconds and microseconds.
_OFFSETS = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8)),
            timezone(timedelta(hours=-3, seconds=7)),
            timezone(timedelta(minutes=-1, microseconds=5))]
_ZONES = st.sampled_from([None, *_OFFSETS])
# Records-file lines as JSON objects.
RECORDS = st.builds(
    row, record_id=_IDS, age_band=st.sampled_from(AGE_BANDS),
    sex=st.sampled_from(SEXES), institution=_TEXT, when=st.datetimes(timezones=_ZONES),
    code=_TEXT, co_codes=st.frozensets(_TEXT, max_size=4), version=_TEXT,
    influence_tag=st.none() | st.builds(tag, _TEXT, _SCORES, st.booleans()),
    fidelity=st.none() | _ANNOTATIONS, clinical_code=st.none() | _TEXT,
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(RECORDS, max_size=6))
def test_batch_rows_read_as_the_constructor_builds(records):
    batch = read_rows(records)
    built_rows = list(batch)
    assert len(batch) == len(built_rows) == len(records)
    for built_row, record in zip(built_rows, records):
        built = from_json(CodedRecord, record)
        assert type(built_row) is CodedRecord
        assert built_row == built and hash(built_row) == hash(built)
        assert jsonl_dumps(built_row) == jsonl_dumps(built)
        with pytest.raises(FrozenInstanceError):
            built_row.clinical_code = "X"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(RECORDS, max_size=6))
def test_records_file_holds_each_row_as_jsonl_dumps_writes_it(tmp_path, records):
    batch = read_rows(records)
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    write_records(path, batch)
    text = path.read_text(encoding="utf-8")
    assert text == "".join(jsonl_dumps(record) + "\n" for record in records)
    read = read_records(path)
    assert rows(read) == records
    write_records(again, read)
    assert again.read_bytes() == path.read_bytes()


# Records that the gate of tiny_system() to "v2" splits: a hostile code or
# version is quarantined, "AAA" on "v2" accepted and "AAA" on "v1", which
# has no transition table, quarantined.
GATED = st.tuples(RECORDS, st.sampled_from([None, "v1", "v2"])).map(
    lambda pair: pair[0] if pair[1] is None
    else {**pair[0], "primary_code": "AAA", "version_tag": pair[1]})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(GATED, max_size=6))
def test_quarantine_file_reads_back_as_the_quarantined_rows(tmp_path, records):
    # Quarantine is never a lossy sink: each line's record is the row as it
    # arrived, text for text, numbers keeping their JSON types.
    outcome = gate_batch(read_rows(records), tiny_system(), "v2")
    path = tmp_path / "quarantine.jsonl"
    write_quarantine(path, outcome)
    lines = read_quarantine(path)
    quarantined = rows(outcome.quarantined)
    assert ([jsonl_dumps(r) for r in rows(read_rows([line["record"] for line in lines]))]
            == [jsonl_dumps(r) for r in quarantined])
    assert ([(line["original_code"], line["original_version"]) for line in lines]
            == [(r["primary_code"], r["version_tag"]) for r in quarantined])


def test_records_file_boundary_builds_no_row(tmp_path, monkeypatch):
    # Reading and writing a records file moves field values straight between
    # lines and columns; neither builds nor checks a CodedRecord.
    india = timezone(timedelta(hours=5, minutes=30))
    records = [
        row("R-1", when=datetime(2025, 2, 15, 12, 0, 0, 250000, tzinfo=india),
            co_codes=("LAB-A1C", "RX-MET"), influence_tag=tag("m-1", 1, True),
            fidelity=annotation(0.25, -0.0, 1, 0.5, "ok"), clinical_code="DM2-HYPER"),
        row("R-2", when=datetime(2025, 3, 1, tzinfo=timezone.utc)),
    ]
    text = "".join(jsonl_dumps(record) + "\n" for record in records)
    path, out = tmp_path / "records.jsonl", tmp_path / "out.jsonl"
    path.write_text(text, encoding="utf-8")

    def refuse(*args):
        raise AssertionError("a CodedRecord was built")

    monkeypatch.setattr(CodedRecord, "__post_init__", refuse)
    write_records(out, read_records(path))
    assert out.read_text(encoding="utf-8") == text



def _rows_or_error(read):
    """Each row ``read()`` gives as ``jsonl_dumps`` writes it, or its ValidationError text."""
    try:
        return [jsonl_dumps(row) for row in read()]
    except ValidationError as exc:
        return str(exc)


def _row_reader(path):
    """What the row reader reads from each line of ``path``: a ``CodedRecord``
    through ``from_json``."""
    return model.iter_jsonl(path, CodedRecord)


_BLOCK = model._BLOCK_LINES
_ANNOTATION = {"cooccurrence_subscore": 0.5, "institutional_subscore": 0.5,
               "prevalence_subscore": 0.5, "rationale": "r", "score": 0.5}
# Each turns one line's JSON object into the text of one or more lines.
_MUTATIONS = {
    "reordered-keys": lambda data: json.dumps(dict(reversed(data.items())), separators=(",", ":"),
                                              ensure_ascii=False) + "\n",
    "added-spaces": lambda data: json.dumps(data, sort_keys=True, ensure_ascii=False) + "\n",
    "escaped-characters": lambda data: json.dumps(
        {**data, "institution_id": data["institution_id"] + 'é"/',
         "co_codes": [*data["co_codes"], "\\]"]}, sort_keys=True, separators=(",", ":")) + "\n",
    "crlf": lambda data: jsonl_dumps(data) + "\r\n",
    "blank-lines": lambda data: "\n" + jsonl_dumps(data) + "\n  \n",
    "unknown-key": lambda data: jsonl_dumps({**data, "extra": 1}) + "\n",
    "missing-key": lambda data: jsonl_dumps({k: v for k, v in data.items() if k != "version_tag"})
    + "\n",
    "record-id-int": lambda data: jsonl_dumps({**data, "record_id": 7}) + "\n",
    "co-codes-string": lambda data: jsonl_dumps({**data, "co_codes": "LAB"}) + "\n",
    "unknown-sex": lambda data: jsonl_dumps({**data, "patient_sex": "unknown"}) + "\n",
    "time-not-iso": lambda data: jsonl_dumps({**data, "encounter_time": "notatime"}) + "\n",
    "score-out-of-range": lambda data: jsonl_dumps(
        {**data, "fidelity": {**(data["fidelity"] or _ANNOTATION), "score": 1.5}}) + "\n",
    "confidence-out-of-range": lambda data: jsonl_dumps(
        {**data, "influence_tag": {"clinician_modified": False, "model_confidence": 2,
                                   "model_version": "m"}}) + "\n",
    "confidence-unicode-digit": lambda data: jsonl_dumps(
        {**data, "influence_tag": {"clinician_modified": False, "model_confidence": 0.5,
                                   "model_version": "m"}}).replace(
        '"model_confidence":0.5', '"model_confidence":0.\u0665') + "\n",
    "rationale-int": lambda data: jsonl_dumps(
        {**data, "fidelity": {**_ANNOTATION, "rationale": 3}}) + "\n",
    "not-json": lambda data: jsonl_dumps(data)[:-1] + "\n",
    # Characters that the canonical reader's one-character classes let
    # through, or stop at, in the fields they scan.
    "record-id-control": lambda data: jsonl_dumps(data).replace(
        '"record_id":"', '"record_id":"\x01', 1) + "\n",
    "span-string-control": lambda data: jsonl_dumps(data).replace(
        '"institution_id":"', '"institution_id":"\x01', 1) + "\n",
    "rationale-brace": lambda data: jsonl_dumps(
        {**data, "fidelity": {**_ANNOTATION, "rationale": "{"}}) + "\n",
    "fidelity-nested-object": lambda data: jsonl_dumps(
        {**data, "fidelity": {**_ANNOTATION, "rationale": {"text": "r"}}}) + "\n",
    "co-code-quote-bracket": lambda data: jsonl_dumps(
        {**data, "co_codes": [*data["co_codes"], '"]']}) + "\n",
}


def _escaped(key, escape):
    """The mutation that writes the string at ``key``, the record id, the
    encounter time or the tag's model version, led by the JSON escape ``escape``."""
    def mutate(data):
        tag = data["influence_tag"] or {"clinician_modified": False, "model_confidence": 0.5,
                                        "model_version": "m"}
        line = jsonl_dumps({**data, "influence_tag": tag})
        return line.replace(f'"{key}":"', f'"{key}":"{escape}', 1) + "\n"
    return mutate


_MUTATIONS.update({f"{key}-escape-{name}": _escaped(key, escape)
                   for key in ("record_id", "encounter_time", "model_version")
                   for name, escape in (("quote", '\\"'), ("backslash", "\\\\"),
                                        ("unicode", "\\u0041"))})
# Times that datetime.fromisoformat reads but that are not in isoformat's
# naive layout, where NumPy alone would read "20250101" as a year near
# -209,291; and year 0, in that layout, which NumPy reads and it rejects.
_TIME_TEXTS = {
    "time-basic-date": "20250101", "time-basic-fraction": "20250101T103000.123",
    "time-date-only": "2025-01-01", "time-space-separator": "2025-01-01 10:30:00",
    "time-z-suffix": "2025-01-01T10:30:00Z", "time-3-digit-fraction": "2025-01-01T10:30:00.123",
    "time-year-0": "0000-01-01T10:30:00",
}
_MUTATIONS.update({name: lambda data, text=text: jsonl_dumps({**data, "encounter_time": text})
                   + "\n" for name, text in _TIME_TEXTS.items()})


def _assert_read_as_the_row_reader_reads(path, lines):
    path.write_bytes("".join(lines).encode("utf-8"))
    assert (_rows_or_error(lambda: rows(read_records(path)))
            == _rows_or_error(lambda: _row_reader(path)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(RECORDS, min_size=1, max_size=6),
       mutation=st.none() | st.sampled_from(sorted(_MUTATIONS)), where=st.integers(0, 5),
       filler=st.sampled_from([0, _BLOCK - 2, _BLOCK - 1, _BLOCK]))
def test_read_records_reads_what_the_row_reader_reads(tmp_path, records, mutation, where,
                                                        filler):
    # ``filler`` canonical lines come first, so the mutated line lands
    # before, at or after the boundary between the first two blocks.
    lines = [jsonl_dumps(row()) + "\n"] * filler
    lines += [jsonl_dumps(record) + "\n" for record in records]
    if mutation is not None:
        at = filler + where % len(records)
        lines[at] = _MUTATIONS[mutation](json.loads(lines[at]))
    _assert_read_as_the_row_reader_reads(tmp_path / "records.jsonl", lines)


@pytest.mark.parametrize("line", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_each_mutation_reads_as_the_row_reader_reads(tmp_path, mutation, line):
    # Most hostile records need escapes, which send the whole file to the
    # row reader; these files are canonical but for line ``line``. Offset
    # times are read row by row, naive ones a block at a time by NumPy.
    for zone in (timezone.utc, None):
        records = [
            row(f"R-{i}", when=datetime(2025, 2, 15, i % 24, tzinfo=zone),
                co_codes=["LAB-A1C"][:i % 2], clinical_code="DM2-HYPER" if i % 3 else None,
                influence_tag=tag("m-1", 0.5, True) if i % 2 else None,
                fidelity=annotation(0.25, -0.0, 1, 0.5, "ok") if i % 5 else None)
            for i in range(_BLOCK + 2)
        ]
        lines = [jsonl_dumps(record) + "\n" for record in records]
        lines[line - 1] = _MUTATIONS[mutation](json.loads(lines[line - 1]))
        _assert_read_as_the_row_reader_reads(tmp_path / "records.jsonl", lines)


def test_reading_a_file_write_records_wrote_never_calls_the_row_reader(tmp_path, monkeypatch):
    # A file write_records wrote takes the canonical-line reader; if it fell
    # back to the line-by-line reader, every result would stay the same and
    # only the speed would be lost.
    india = timezone(timedelta(hours=5, minutes=30))
    records = [
        row(f"R-{i}", when=datetime(2025, 2, 15, 12, i % 60, tzinfo=india if i % 3 else None),
            code=f"C-{i % 7}", co_codes=[f"X-{i % 5}", f"Y-{i % 2}"][:i % 3],
            influence_tag=tag("m-1", i / 4000, i % 2 == 0) if i % 4 else None,
            fidelity=annotation(0.25, -0.0, 1, 0.5, f"r{i % 9}") if i % 5 else None,
            clinical_code=f"C-{i % 11}" if i % 6 else None)
        for i in range(2 * _BLOCK + 5)
    ]
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    write_records(path, read_rows(records))

    def refuse(*args):
        raise AssertionError("a line was read by the row reader")

    monkeypatch.setattr(model, "iter_jsonl", refuse)
    batch = read_records(path)
    assert rows(batch) == records
    assert len(batch.annotations) == 9
    write_records(again, batch)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("layout", ["added-spaces", "reordered-keys"])
def test_row_reader_keeps_each_number_as_written(tmp_path, layout):
    # A valid file that is not canonical takes the row reader, which keeps
    # integer and -0.0 scores as read, so write_records writes the file's
    # canonical text.
    records = [
        row("R-1", influence_tag=tag("m-1", 1, True), fidelity=annotation(1, 0, -0.0, 0.5, "a")),
        row("R-2", influence_tag=tag("m-1", 0, False), fidelity=annotation(-0.0, 1, 0, 1.0, "b")),
        row("R-3", influence_tag=tag("m-1", -0.0, False)),
    ]
    canonical = [jsonl_dumps(record) for record in records]
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    path.write_text("".join(_MUTATIONS[layout](json.loads(line)) for line in canonical),
                    encoding="utf-8")
    assert model._canonical_batch(path) is None
    batch = read_records(path)
    assert [jsonl_dumps(line) for line in rows(batch)] == canonical
    write_records(again, batch)
    assert again.read_text(encoding="utf-8") == "".join(line + "\n" for line in canonical)


def test_both_readers_keep_each_tag_confidence_as_written(tmp_path, monkeypatch):
    # Tagged rows on both sides of the edge between the first two blocks,
    # with confidences that must each be written back as read; the canonical
    # reader checks them by column, the row reader one tag at a time.
    confidences = [1, 1.0, 0, -0.0, 1e-05]
    records = [
        row(f"R-{i}", influence_tag=tag(f"m-{i % 2}", confidences[i % 5], i % 3 == 0)
            if _BLOCK - 6 <= i < _BLOCK + 6 else None)
        for i in range(2 * _BLOCK)
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(jsonl_dumps(record) + "\n" for record in records), encoding="utf-8")
    canonical = model._canonical_batch(path)
    assert canonical is not None
    monkeypatch.setattr(model, "_canonical_batch", lambda path: None)
    by_row = read_records(path)
    expected = [jsonl_dumps(record) for record in records]
    assert [jsonl_dumps(line) for line in rows(canonical)] == expected
    assert [jsonl_dumps(line) for line in rows(by_row)] == expected


def test_batches_hold_no_python_object(tmp_path, bundled_system, walkthrough_spec):
    # Neither a column nor the annotation table holds objects, for a
    # generated batch, an annotated one and one read back.
    batch, _ = synthgen.generate_batch(bundled_system, walkthrough_spec.distortion, 500,
                                       seed=[SEED, 2], quarter_index=2)
    reference = build_reference_model(batch, bundled_system)
    annotated = annotate_batch(batch, reference, PipelineConfig())
    path = tmp_path / "records.jsonl"
    write_records(path, annotated)
    for held in (batch, annotated, read_records(path)):
        arrays = {name: value for name, value in vars(held).items()
                  if isinstance(value, np.ndarray)}
        assert set(arrays) == {*model._COLUMNS, "annotations"}
        assert [name for name, value in arrays.items() if value.dtype == object] == []
        assert held.record_id.dtype.kind == "U"
        assert held.annotations.dtype == np.float64 and held.annotations.shape[1:] == (4,)
    # A generated batch's -1 columns are one array, and a selection copies it once.
    picked = batch.select(np.arange(0, 500, 7))
    assert picked.zone is picked.clinical is picked.fidelity
    assert rows(picked) == rows(batch)[::7]


def test_generating_reading_and_writing_build_no_influence_tag(tmp_path, monkeypatch,
                                                               bundled_system, walkthrough_spec):
    # Tags live in the tag and confidence columns; only iteration builds
    # an InfluenceTag.
    def refuse(*args):
        raise AssertionError("an InfluenceTag was built")

    monkeypatch.setattr(InfluenceTag, "__post_init__", refuse)
    batch, _ = synthgen.generate_batch(bundled_system, walkthrough_spec.distortion, 2000,
                                       seed=[SEED, 2], quarter_index=2)
    assert np.count_nonzero(batch.tag >= 0) == 240
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    write_records(path, batch)
    write_records(again, read_records(path))
    assert again.read_bytes() == path.read_bytes()


def test_write_records_writes_each_row_as_jsonl_dumps_across_blocks(tmp_path):
    # Two whole blocks and three rows more: ids that need escapes, naive and
    # offset times with and without microseconds, and years 1 and 9999.
    n = 2 * _BLOCK + 3
    records = [
        row(f"R-{i}" + '"\\é\n\x01' * (i % 5 == 0),
            when=datetime((1, 9999, 2025)[i % 3], i % 12 + 1, i % 28 + 1, i % 24, i % 60,
                          7 * i % 60, 7919 * i % 1_000_000 if i % 4 else 0,
                          tzinfo=[None, *_OFFSETS][i % 6]),
            influence_tag=tag("m-1", i / n, i % 2 == 0) if i % 3 else None,
            fidelity=annotation(0.5, 0.5, 0.5, 0.5, f"r{i % 7}") if i % 2 else None,
            clinical_code=f"C-{i % 5}" if i % 4 else None)
        for i in range(n)
    ]
    path = tmp_path / "records.jsonl"
    write_records(path, read_rows(records))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines == [jsonl_dumps(record) for record in records] + [""]
    assert rows(read_records(path)) == records


def _first_seen_tables(records):
    """The tables of a batch of JSON-form ``records``, each in first-seen row
    order, as JSON values."""
    codes = dict.fromkeys(r["primary_code"] for r in records)
    codes.update(dict.fromkeys(r["clinical_code"] for r in records
                             if r["clinical_code"] is not None))
    return to_json({
        "codes": list(codes),
        "institutions": list(dict.fromkeys(r["institution_id"] for r in records)),
        "versions": list(dict.fromkeys(r["version_tag"] for r in records)),
        "co_sets": list(dict.fromkeys(frozenset(r["co_codes"]) for r in records)),
        "annotations": list({jsonl_dumps(r["fidelity"]): r["fidelity"]
                             for r in records if r["fidelity"]}.values())})


# Reads the records file argv[1] and prints the batch's tables.
_READ_TABLES = ("import sys; from conftest import tables; from ontoguard.model import "
                "jsonl_dumps, read_records; print(jsonl_dumps(tables(read_records(sys.argv[1]))))")


def test_read_tables_come_in_first_seen_row_order_under_any_hash_seed(tmp_path):
    # Many distinct values, first seen in an order that is neither sorted
    # nor any set's, spread over three blocks.
    records = [
        row(f"R-{i}", institution=f"I-{7919 * i % 97}", code=f"C-{31 * i % 53}",
            version=f"v{5 * i % 7}", co_codes={f"X-{13 * i % 11}", f"Y-{i % 3}"},
            clinical_code=f"K-{17 * i % 41}" if i % 3 else None,
            fidelity=annotation(0.5, 0.5, 0.5, 0.5, f"r{3 * i % 29}") if i % 4 else None)
        for i in range(2 * _BLOCK + 5)
    ]
    path = tmp_path / "records.jsonl"
    write_records(path, read_rows(records))
    expected = _first_seen_tables(records)
    assert tables(read_records(path)) == expected
    src = str(Path(model.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", _READ_TABLES, str(path)], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": os.pathsep.join([src, tests])})
        assert json.loads(out.stdout) == expected


def test_naive_times_of_a_written_file_are_read_by_numpy(tmp_path, monkeypatch):
    # Times in isoformat's naive layout skip the per-row conversion; the
    # result would be the same without that, only slower.
    records = [row(f"R-{i}", when=datetime(2025, 1, 1, i % 24, 0, 0, 250000 * (i % 2)))
               for i in range(_BLOCK + 2)]
    path = tmp_path / "records.jsonl"
    write_records(path, read_rows(records))

    def refuse(*args):
        raise AssertionError("a time was converted row by row")

    monkeypatch.setattr(model, "_wall_clock", refuse)
    assert rows(read_records(path)) == records


def test_fault_in_the_first_line_after_the_first_block_is_named(tmp_path):
    good = jsonl_dumps(row()) + "\n"
    bad = jsonl_dumps({**row(), "patient_sex": "x"}) + "\n"
    path = tmp_path / "records.jsonl"
    path.write_text(good * _BLOCK + bad + good, encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=rf"records\.jsonl:{_BLOCK + 1}: unknown sex: 'x'$"):
        read_records(path)


@pytest.mark.parametrize("text", ["", "\n", "\n  \n\t\n"], ids=["empty", "blank", "blank-lines"])
def test_file_without_records_reads_as_an_empty_batch(tmp_path, text):
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    path.write_text(text, encoding="utf-8")
    batch = read_records(path)
    assert len(batch) == 0 and rows(batch) == []
    write_records(again, batch)
    assert again.read_text(encoding="utf-8") == ""


def test_read_back_annotations_are_shared_by_text(tmp_path):
    # -0.0, 0 and 0.0 are equal numbers but different texts: each keeps an
    # entry of its own, and lines with the same text share one.
    lines = [
        jsonl_dumps({**row(f"R-{i}"), "fidelity": {**_ANNOTATION, "score": score}})
        for i, score in enumerate([-0.0, 0, 0.0, 0.0, -0.0])
    ]
    text = "".join(line + "\n" for line in lines)
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    path.write_text(text, encoding="utf-8")
    batch = read_records(path)
    assert len(batch.annotations) == 3
    assert batch.fidelity.tolist() == [0, 1, 2, 2, 0]
    write_records(again, batch)
    assert again.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("reader", ["canonical", "row"])
def test_each_annotation_number_type_and_rationale_is_written_back_as_read(
        tmp_path, monkeypatch, reader):
    # 1, 1.0, 0 and -0.0 in each of the four values, and rationales that
    # are not the checkpoint's own text, come back byte for byte.
    numbers = [1, 1.0, 0, -0.0]
    lines = [
        jsonl_dumps(row(f"R-{i}", fidelity=annotation(
            *(numbers[(i + k) % 4] for k in range(4)),
            ["", "prev=0.500", "{é}", "prev=0.500 cooc=0.500 inst=0.500!"][i % 4])))
        for i in range(16)
    ]
    text = "".join(line + "\n" for line in lines)
    path, again = tmp_path / "records.jsonl", tmp_path / "again.jsonl"
    path.write_text(text, encoding="utf-8")
    if reader == "row":
        monkeypatch.setattr(model, "_canonical_batch", lambda path: None)
    batch = read_records(path)
    assert batch.notes[0] == ("", int, float, int, float)
    write_records(again, batch)
    assert again.read_text(encoding="utf-8") == text
    assert [jsonl_dumps(record) for record in batch] == [
        jsonl_dumps(from_json(CodedRecord, json.loads(line))) for line in lines]


@pytest.mark.parametrize("layout", ["canonical", "added-spaces"])
def test_record_id_with_u0000_is_a_named_fault(tmp_path, layout):
    # A batch's fixed-width id column would drop a trailing U+0000, so the
    # id is refused, whichever reader the file's layout takes.
    lines = [jsonl_dumps(row("R-0")), jsonl_dumps(row("R-1\0")), jsonl_dumps(row("R-2"))]
    if layout == "added-spaces":
        lines = [json.dumps(json.loads(line), sort_keys=True) for line in lines]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=re.escape("records.jsonl:2: record id 'R-1\\x00' of 4 characters "
                                       "must have at most 256, none of them U+0000")):
        read_records(path)


def test_record_id_longer_than_the_limit_is_a_named_fault(tmp_path):
    # One 1 MB id among 50,000 rows: the canonical reader leaves the file
    # to the row reader, which names the line before any column is built.
    lines = [jsonl_dumps(row(f"R-{i}")) + "\n" for i in range(50_000)]
    lines[-2] = jsonl_dumps(row("R" * 2**20)) + "\n"
    path = tmp_path / "records.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(
            f"records.jsonl:49999: record id {'R' * 32!r} of {2**20} characters must have at "
            f"most {model.MAX_RECORD_ID}, none of them U+0000")):
        read_records(path)
    lines[-2] = jsonl_dumps(row("R" * model.MAX_RECORD_ID)) + "\n"
    path.write_text("".join(lines[-3:]), encoding="utf-8")
    assert model._canonical_batch(path).record_id[1] == "R" * model.MAX_RECORD_ID


def group_recount(columns: list[list[int]]) -> tuple[list[tuple[int, ...]], list[int],
                                                     list[int], list[int]]:
    """What ``model.group`` returns, from a Counter of the zipped rows of values."""
    rows = list(zip(*columns))
    counts = Counter(rows)
    distinct = sorted(counts)
    return distinct, [rows.index(key) for key in distinct], [counts[key] for key in distinct], \
        [distinct.index(key) for key in rows]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_group_matches_a_recount(sparse, data):
    # group numbers the keys through np.unique once the key space, the
    # product of the sizes, exceeds 2 * rows + 4096; each side is drawn.
    n = data.draw(st.integers(0, 40))
    sizes = data.draw(st.lists(st.integers(2 * 40 + 4097, 10**6) if sparse
                               else st.integers(1, 16), min_size=1, max_size=3))
    assert (math.prod(sizes) > 2 * n + 4096) is sparse
    # A few values per column, so that rows repeat.
    pools = [data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
             for size in sizes]
    columns = [data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
               for pool in pools]
    distinct, first, counts, index = model.group([np.array(c, np.int32) for c in columns], sizes)
    assert len(distinct) == len(sizes)
    expect = group_recount(columns)
    assert list(zip(*(column.tolist() for column in distinct))) == expect[0]
    assert [first.tolist(), counts.tolist(), index.tolist()] == list(expect[1:])


def test_group_of_no_rows_is_empty():
    distinct, first, counts, index = model.group([np.empty(0, np.int32)] * 2, [3, 5])
    assert [column.tolist() for column in distinct] == [[], []]
    assert first.tolist() == counts.tolist() == index.tolist() == []


class TestTimeWindow:
    def test_inverted_window_rejected(self):
        with pytest.raises(ValidationError):
            TimeWindow(date(2025, 3, 1), date(2025, 1, 1))


class TestPipelineConfig:
    def test_defaults_are_valid(self):
        cfg = PipelineConfig()
        assert cfg.breaker_threshold == 0.15
        assert cfg.dormancy_frequency_threshold == 0.002

    def test_drift_threshold_must_be_positive(self):
        with pytest.raises(ValidationError, match="drift_threshold"):
            PipelineConfig(drift_threshold=0.0)

    def test_component_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="drift_component_weights"):
            PipelineConfig(drift_component_weights=(0.5, 0.5, 0.5, 0.5))


def _weights(n):
    # n positive weights that sum to 1 within the config's tolerance.
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(
        lambda ws: tuple(w / sum(ws) for w in ws))


CONFIGS = st.builds(
    PipelineConfig,
    fidelity_weights=_weights(3),
    drift_threshold=st.floats(1e-9, 1e9),
    breaker_threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    dormancy_frequency_threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    release_correlation_window_days=st.integers(1, 10**9),
    inference_fidelity_cutoff=st.floats(0.0, 1.0),
    fingerprint_min_support=st.integers(1, 10**9),
    drift_component_weights=_weights(4),
)


@settings(max_examples=100, deadline=None)
@given(cfg=CONFIGS)
def test_config_json_round_trip(cfg):
    assert from_json(PipelineConfig, to_json(cfg)) == cfg


class TestFromJson:
    @pytest.mark.parametrize("data, message", [
        ({"start": "2025-01-01", "end": "2025-03-31", "days": 90}, r"has unknown keys \['days'\]"),
        ({"start": 20250101, "end": "2025-03-31"}, "start must be an ISO 8601 date, got 20250101"),
        ({"start": "2025-13-01", "end": "2025-03-31"}, "start must be an ISO 8601 date"),
        ({"start": "2025-03-31", "end": "2025-01-01"}, "window end 2025-01-01 before start"),
        ([], "must hold a JSON object"),
    ], ids=["unknown-key", "number-for-date", "bad-date", "post-init", "not-an-object"])
    def test_rejects(self, data, message):
        with pytest.raises(ValidationError, match=message):
            from_json(TimeWindow, data)

    def test_absent_required_key_is_named(self):
        with pytest.raises(ValidationError, match="is missing key 'end'"):
            from_json(TimeWindow, {"start": "2025-01-01"})

    @pytest.mark.parametrize("data, message", [
        ({"model_version": "m", "model_confidence": 0.5, "clinician_modified": 1},
         "clinician_modified must be true or false, got 1"),
        ({"model_version": "m", "model_confidence": False, "clinician_modified": True},
         "model_confidence must be a number, got False"),
        ({"model_version": ["m"], "model_confidence": 0.5, "clinician_modified": True},
         r"model_version must be a string, got \['m'\]"),
    ], ids=["int-for-bool", "bool-for-float", "list-for-string"])
    def test_a_bool_is_never_a_number_and_a_number_never_a_bool(self, data, message):
        with pytest.raises(ValidationError, match=message):
            from_json(InfluenceTag, data)

    def test_absent_keys_take_defaults_and_integers_become_floats(self):
        # A float field takes an integer as a float; a Number keeps it, so
        # that a records file writes it back as read.
        assert from_json(PipelineConfig, {}) == PipelineConfig()
        cfg = from_json(PipelineConfig, {"drift_threshold": 1})
        assert type(cfg.drift_threshold) is float and cfg.drift_threshold == 1.0
        tag = from_json(InfluenceTag, {"model_version": "m", "model_confidence": 1,
                                       "clinician_modified": False})
        assert type(tag.model_confidence) is int and tag.model_confidence == 1
