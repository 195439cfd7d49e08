"""The file boundary: every input file is read through model.load_json or
model.iter_jsonl, and any malformed file raises a ValidationError naming it."""

import ast
import copy
import importlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row
from ontoguard import compliance, dormancy, dual_ontology, harness, model, synthgen
from ontoguard.model import (
    PipelineConfig,
    ValidationError,
    iter_jsonl,
    load_code_system,
    load_config,
    load_json,
    read_records,
)

FIXTURES = harness.fixture_dir()
SRC = Path(harness.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _scenario():
    # Absolute references, so that a copy written elsewhere still resolves.
    data = _fixture("diabetes_walkthrough.json")
    for key in ("code_system", "config"):
        data[key] = str(FIXTURES / data[key])
    data["adapters"] = [str(FIXTURES / ref) for ref in data["adapters"]]
    return data


STORE = [{
    "code": "DM-OTHER", "count": 3, "frequency": 0.01, "top_co_codes": [["LAB-A1C", 2]],
    "significance_note": "rare subtype",
    "activation_conditions": [{"kind": "prevalence_exceeds", "threshold": 0.005}],
    "last_observed": "2025-03-01T08:00:00",
}]

# Each loader with a valid document for it; the fuzzer feeds it arbitrary
# JSON values and mutations of that document.
LOADERS = {
    "config": (load_config, _fixture("pipeline_config.json")),
    "code-system": (load_code_system, _fixture("syn_icd.json")),
    "adapter": (compliance.load_adapter, _fixture("adapters/ai_act_demo.json")),
    "store": (dormancy.read_store, STORE),
    "scenario": (harness.load_scenario, _scenario()),
    "spec": (
        lambda path: load_json(path, "--spec file", synthgen.DistortionSpec),
        _scenario()["distortion"],
    ),
    "conditions": (
        lambda path: load_json(path, "--conditions file", dormancy.Conditions),
        _scenario()["activation_conditions"],
    ),
}
# Where each loader's valid document holds an object whose keys are fixed,
# at the top and one level down: its path in the document, and as a fault
# names it. A conditions file's top level is keyed by code, so any key goes;
# the config nests no object.
FIXED_KEY_OBJECTS = {
    "config": [((), "")],
    "code-system": [((), ""), (("versions", 0), "versions[0]")],
    "adapter": [((), ""), (("rules", 0), "rules[0]")],
    "store": [((0,), "[0]")],
    "scenario": [((), ""), (("distortion",), "distortion")],
    "spec": [((), ""), (("institutions", 0), "institutions[0]")],
    "conditions": [(("DM-OTHER", 0), "['DM-OTHER'][0]")],
}
LINE_LOADERS = {
    "records": (read_records, row(co_codes=("LAB-A1C",))),
    "overrides": (dual_ontology.read_overrides,
                  {"record_id": "R-000000", "clinical_code": "DM2-HYPER"}),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def mutations(draw, document):
    """``document`` with one to three values replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(json_values)
            break
    return doc


def _documents(document):
    return st.one_of(json_values, mutations(document))


def _lines(document):
    line = st.one_of(
        _documents(document).map(json.dumps),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    ).map(lambda text: text.encode("utf-8"))
    return st.lists(st.one_of(line, st.binary(max_size=30)), max_size=4)


def _assert_only_validation_error(load, path):
    try:
        load(path)
    except ValidationError as exc:
        assert str(path) in str(exc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_accepts_its_valid_document(fuzz_dir, name):
    load, document = LOADERS[name]
    path = fuzz_dir / f"valid-{name}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    load(path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_json_file_faults_are_validation_errors_naming_the_file(fuzz_dir, name):
    load, document = LOADERS[name]

    @given(_documents(document))
    @settings(max_examples=150, deadline=None)
    def check(value):
        path = fuzz_dir / f"{name}.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        _assert_only_validation_error(load, path)

    check()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_unknown_keys_are_rejected_by_path(fuzz_dir, name):
    load, document = LOADERS[name]
    assert FIXED_KEY_OBJECTS[name]
    for steps, named in FIXED_KEY_OBJECTS[name]:
        doc = copy.deepcopy(document)
        node = doc
        for step in steps:
            node = node[step]
        node["surplus_key"] = 1
        path = fuzz_dir / f"unknown-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            load(path)
        assert f"{path} {named}".rstrip() + " has unknown keys ['surplus_key']" in str(info.value)


# Conditions that set a field their kind does not read, with that field.
STRAY_FIELDS = [
    ({"kind": "domain_transfer_request", "domain": "d", "threshold": 0.5}, "threshold"),
    ({"kind": "prevalence_exceeds", "threshold": 0.5, "signal_code": "DM-OTHER"},
     "signal_code"),
]
# Where each loader's valid document holds a list of activation conditions.
CONDITION_LISTS = {"conditions": ("DM-OTHER",), "store": (0, "activation_conditions"),
                   "scenario": ("activation_conditions", "DM-OTHER")}


@pytest.mark.parametrize("name", sorted(CONDITION_LISTS))
@pytest.mark.parametrize("condition, field", STRAY_FIELDS,
                         ids=["threshold-of-domain-transfer", "signal-code-of-prevalence"])
def test_a_condition_field_its_kind_does_not_read_is_named(fuzz_dir, name, condition, field):
    load, document = LOADERS[name]
    doc = copy.deepcopy(document)
    node = doc
    for step in CONDITION_LISTS[name]:
        node = node[step]
    node.append(condition)
    path = fuzz_dir / f"stray-{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load(path)
    assert str(path) in str(info.value)
    assert f"{condition['kind']} condition must not set {field}" in str(info.value)


@pytest.mark.parametrize("name", sorted(LINE_LOADERS))
def test_jsonl_file_faults_are_validation_errors_naming_the_file(fuzz_dir, name):
    load, document = LINE_LOADERS[name]

    @given(_lines(document))
    @settings(max_examples=150, deadline=None)
    def check(lines):
        path = fuzz_dir / f"{name}.jsonl"
        path.write_bytes(b"\n".join(lines))
        _assert_only_validation_error(load, path)

    check()


@dataclass(frozen=True)
class Named:
    """A document with a required key, and a check of its own that raises
    a fault other than a ValidationError."""

    name: str
    items: Any = ()

    def __post_init__(self):
        iter(self.items)


class TestLoadJson:
    def write(self, tmp_path, text):
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="thing not found: .*nope.json"):
            load_json(tmp_path / "nope.json", "thing", Any)

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ValidationError, match=r"input\.json is not valid JSON"):
            load_json(self.write(tmp_path, "{"), "thing", Any)

    @pytest.mark.parametrize("text, message", [
        ("{}", "input.json is missing key 'name'"),
        ('{"name": "n", "items": 5}', "input.json is malformed: 'int'"),
        ("[]", "input.json must hold a JSON object"),
    ], ids=["missing-key", "wrong-type", "validation-error"])
    def test_parse_fault_names_file(self, tmp_path, text, message):
        with pytest.raises(ValidationError, match=message) as info:
            load_json(self.write(tmp_path, text), "thing", Named)
        assert str(info.value).startswith("thing ")

    def test_returns_parse_of_value(self, tmp_path):
        path = self.write(tmp_path, '{"a": [1]}')
        assert load_json(path, "thing", Mapping[str, tuple[int, ...]]) == {"a": (1,)}


class TestConfigSchema:
    def write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    @pytest.mark.parametrize("data, named", [
        ({"drift_threshold": True}, "drift_threshold must be a number, got True"),
        ({"drift_threshold": "0.1"}, "drift_threshold must be a number"),
        ({"fingerprint_min_support": 2.7}, "fingerprint_min_support must be an integer"),
        ({"fingerprint_min_support": True}, "fingerprint_min_support must be an integer"),
        ({"fidelity_weights": [0.5, "0.25", 0.25]},
         r"fidelity_weights\[1\] must be a number, got '0.25'"),
        ({"fidelity_weights": [float("nan"), 0.5, 0.5]}, "fidelity_weights must be three"),
        ({"drift_component_weights": [float("nan")] * 4}, "drift_component_weights must be four"),
        ({"drift_threshold": 10 ** 400}, "is malformed: int too large to convert to float"),
    ], ids=["bool-for-float", "string-for-float", "float-for-int", "bool-for-int",
            "string-weight", "nan-weight", "nan-component-weights",
            "integer-too-large-for-float"])
    def test_mistyped_value_named(self, tmp_path, data, named):
        with pytest.raises(ValidationError, match=rf"config\.json {named}"):
            load_config(self.write(tmp_path, data))

    def test_integers_accepted_for_float_fields(self, tmp_path):
        cfg = load_config(self.write(tmp_path, {
            "drift_threshold": 1, "fidelity_weights": [1, 0, 0],
        }))
        assert type(cfg.drift_threshold) is float and cfg.drift_threshold == 1.0
        assert cfg.fidelity_weights == (1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Pair:
    a: int
    b: int = 0


class TestIterJsonl:
    def test_parse_fault_names_path_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=r"rows\.jsonl:3: is missing key 'a'"):
            list(iter_jsonl(path, Pair))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('\n{"a": 1}\n  \n{"a": 2}', encoding="utf-8")
        assert list(iter_jsonl(path)) == [{"a": 1}, {"a": 2}]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found: .*rows.jsonl"):
            list(iter_jsonl(tmp_path / "rows.jsonl"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": "\xff"}\n')
        with pytest.raises(ValidationError, match=r"rows\.jsonl is not UTF-8 text"):
            list(iter_jsonl(path))


# Modules allowed to call json.load/json.loads. The oracles keep an
# independent reader by design.
JSON_READERS = {"model.py", "oracles.py"}


def test_json_is_parsed_only_at_the_boundary():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders.append(f"{path.name}:{node.lineno} imports from json")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("load", "loads") and path.name not in JSON_READERS):
                offenders.append(f"{path.name}:{node.lineno} calls json.{node.func.attr}")
    assert offenders == []


def _parsed_ops(parsed, subpattern):
    """Each (op, argument) of a parsed regular expression, at any depth."""
    for op, arg in parsed:
        yield op, arg
        for part in arg if isinstance(arg, tuple) else ():
            for sub in part if isinstance(part, list) else [part]:
                if isinstance(sub, subpattern):
                    yield from _parsed_ops(sub, subpattern)


def test_canonical_line_pattern_repeats_only_fast_classes():
    # re runs a repeat of one negated character, or of [0-9] in a number, as
    # a tight loop; a repeat of a class with several ranges tests each
    # character against a charset, which once took half of a records read.
    # re's parser is private: re._parser from Python 3.11, sre_parse before.
    try:
        import re._constants as re_constants
        import re._parser as re_parser
    except ImportError:
        import sre_constants as re_constants
        import sre_parse as re_parser
    ops = list(_parsed_ops(re_parser.parse(model._CANONICAL.pattern), re_parser.SubPattern))
    # Possessive repeats and atomic groups compile only from Python 3.11 on,
    # and pyproject.toml allows 3.10.
    newer = {getattr(re_constants, name, None) for name in ("POSSESSIVE_REPEAT", "ATOMIC_GROUP")}
    assert [op for op, _ in ops if op in newer] == []
    unbounded = [list(arg[2]) for op, arg in ops
                 if op in (re_constants.MAX_REPEAT, re_constants.MIN_REPEAT)
                 and arg[1] is re_constants.MAXREPEAT]
    digits = [(re_constants.IN, [(re_constants.RANGE, (ord("0"), ord("9")))])]
    assert unbounded
    assert [item for item in unbounded
            if item != digits and not (len(item) == 1 and item[0][0] is re_constants.NOT_LITERAL)
            ] == []


def test_canonical_line_pattern_captures_each_field_or_span_once():
    # A capture group costs a string per row: a line's pattern captures each
    # per-row field, the influence tag whole, and each span, and no more.
    assert model._CANONICAL.groups == len(model._CAPTURES)


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    # pyproject.toml declares numpy alone. A package that is merely installed,
    # such as orjson, must not give the package a second code path.
    allowed = {*sys.stdlib_module_names, "numpy", "ontoguard"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif (isinstance(node, ast.Name) and node.id == "__import__"
                  or isinstance(node, ast.Attribute) and node.attr == "import_module"):
                names = ["a module named at run time"]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names
                          if name.partition(".")[0] not in allowed]
    assert offenders == []


JSON_TYPES = {"str", "int", "float", "bool", "list", "dict"}


def _compares_type_to_json_type(node: ast.AST) -> bool:
    """``type(x) is str``, ``type(x) in (int, float)`` and the like."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "type"
            and any(getattr(n, "id", None) in JSON_TYPES
                    for c in node.comparators for n in ast.walk(c)))


# Where a JSON type may be compared by hand: model.from_json, the decoder
# itself, and ScenarioSpec's assertion kind, because assertions stay
# free-form JSON that report.json echoes as read.
TYPE_CHECKERS = {("model.py", "from_json"), ("harness.py", "ScenarioSpec")}


def test_json_types_are_checked_only_by_the_decoder():
    # A JSON value's type is checked by model.from_json (and by the oracles'
    # independent reader), not by hand.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracles.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(n) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and (path.name, node.name) in TYPE_CHECKERS
                  for n in ast.walk(node)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _compares_type_to_json_type(node) and id(node) not in exempt]
    assert offenders == []


# The entry points may write a plain-text file of their own, report.txt.
TEXT_WRITERS = {"cli.py", "harness.py"}


def test_output_format_is_decided_only_in_model():
    # Every output file is encoded by model.write_json, model.write_jsonl,
    # model.write_csv or model.write_records, so no other module names the
    # encoders, json.dump(s) or the csv module, and no stage writes text itself.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "model.py":
            continue
        forbidden = {"jsonl_dumps", "canonical_dumps", "json.dump", "json.dumps", "csv"}
        if path.name not in TEXT_WRITERS:
            forbidden.add("write_text")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.partition(".")[0] for alias in node.names}
            if isinstance(node, ast.ImportFrom):
                names.add(node.module)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "json":
                names.add(f"json.{node.attr}")
            offenders += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & forbidden)]
    assert offenders == []


def _write_calls(node: ast.AST, caller: str):
    """``(caller, callee)`` for each call of a ``write_*`` function or method
    under ``node``, where ``caller`` is the innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _write_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            callee = getattr(child.func, "id", getattr(child.func, "attr", ""))
            if callee.startswith("write_"):
                yield caller, callee
        yield from _write_calls(child, caller)


def test_only_writers_and_the_entry_points_write_files():
    # Stages return values; the caller (the CLI or the scenario harness)
    # decides which files a run writes. Elsewhere only a write_* function
    # may call write_json, write_jsonl, write_store, Path.write_text and the like.
    offenders = [
        f"{path.name} {caller} calls {callee}"
        for path in sorted(SRC.glob("*.py")) if path.name not in ("cli.py", "harness.py")
        for caller, callee in _write_calls(ast.parse(path.read_text(encoding="utf-8")), "")
        if not caller.startswith("write_")
    ]
    assert offenders == []


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _clinical_layer_reads(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "CLINICAL"]


def test_layer_codes_are_read_only_by_profile_batch():
    # Which code a record carries on a layer is decided in one place;
    # stages count codes from the profile, never from the batch's columns.
    everywhere = [
        (path.name, line) for path in sorted(SRC.glob("*.py"))
        for line in _clinical_layer_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    model = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    profile_batch = next(node for node in ast.walk(model)
                         if isinstance(node, ast.FunctionDef) and node.name == "profile_batch")
    inside = [("model.py", line) for line in _clinical_layer_reads(profile_batch)]
    assert inside and everywhere == inside


def _numbers_by_hand(call: ast.Call) -> bool:
    """A call ``X.setdefault(key, len(...))``: a table entry numbered by hand."""
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "setdefault"
            and len(call.args) == 2 and isinstance(call.args[1], ast.Call)
            and getattr(call.args[1].func, "id", None) == "len")


def test_table_entries_are_numbered_only_by_model():
    # model.intern numbers a table's entries in first-seen order; a stage
    # that rebuilds it with setdefault says the same rule a second time.
    numbered = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
                if path.name != "model.py"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and _numbers_by_hand(node)]
    assert numbered == []


def _grouped_by_hand(node: ast.AST, params: set[str] = frozenset()):
    """Each call under ``node`` of ``group`` or ``_first_seen`` that is not
    passed a list or tuple display of columns, a list comprehension or the
    enclosing function's own parameter, and each call of a function that
    packs or unpacks a key: ``divmod`` and NumPy's (un)ravel of indices."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            yield from _grouped_by_hand(child, {arg.arg for arg in child.args.args})
            continue
        if isinstance(child, ast.Call):
            name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
            columns = child.args[0] if child.args else None
            if name in ("group", "_first_seen") and not (
                    isinstance(columns, (ast.List, ast.Tuple, ast.ListComp))
                    or getattr(columns, "id", None) in params):
                yield name, child.lineno
            if name in ("divmod", "unravel_index", "ravel_multi_index"):
                yield name, child.lineno
        yield from _grouped_by_hand(child, params)


def test_rows_are_grouped_by_named_columns():
    # A stage names the columns it groups by and gets their values back;
    # packing interned columns into one integer key by hand, and decoding
    # it again, repeats what model.group does, the one place that may.
    offenders = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
                 for name, line in _grouped_by_hand(ast.parse(path.read_text(encoding="utf-8")))
                 if path.name != "model.py" or name in ("group", "_first_seen")]
    assert offenders == []


def _builds_record(call: ast.Call) -> bool:
    """A call of ``CodedRecord`` or one that is handed it: ``map(CodedRecord, ...)``,
    ``object.__new__(CodedRecord)``."""
    return any(getattr(node, "id", getattr(node, "attr", None)) == "CodedRecord"
               for node in (call.func, *call.args, *(k.value for k in call.keywords)))


def test_records_are_built_only_in_model():
    # Stages work on RecordBatch columns; a CodedRecord row is built only by
    # model.py, when a batch is read from a file or iterated.
    built = {
        path.name: [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.Call) and _builds_record(node)]
        for path in sorted(SRC.glob("*.py"))
    }
    assert built.pop("model.py")
    assert {name: lines for name, lines in built.items() if lines} == {}


def test_run_scenario_calls_stages_only_through_the_runner():
    # harness.run_stage names a stage and its quarter in a fault and appends
    # its trace entry; a stage called directly, in the quarter loop or in
    # the set-up before it, would do neither. Writers, loaders,
    # constructors, to_json and the calendar are not stages.
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname for node in imports if node.module is None for alias in node.names}
    functions = {alias.name for node in imports if node.module for alias in node.names}
    run_scenario = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "run_scenario")
    direct = []
    for call in (node for node in ast.walk(run_scenario) if isinstance(node, ast.Call)):
        if getattr(call.func, "id", None) in functions:
            name = call.func.id
        elif getattr(getattr(call.func, "value", None), "id", None) in modules:
            name = call.func.attr
        else:
            continue
        if not (name.startswith(("write_", "load_")) or name[0].isupper()
                or name in ("to_json", "quarter_window")):
            direct.append(f"harness.py:{call.lineno} {name}")
    assert _calls(run_scenario, "run_stage")
    assert direct == []


def test_every_config_field_is_read_outside_model():
    # A config key that no stage reads is a knob that does nothing.
    read = {
        node.attr for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [f.name for f in fields(PipelineConfig) if f.name not in read] == []


def _imported_names(tree: ast.AST) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_never_uses():
    # No linter is a dependency, so this is the unused-import lint.
    # __init__.py imports names only to re-export them.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [
        getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _referenced_names(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# Public names that only the perfbench tracer calls, wrapping them by the
# name it holds as a string; ROADMAP item 1b removes both.
KEPT_FOR_THE_TRACER = {"jsd_rows", "read_quarantine"}


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute name is referenced within ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _overrides_a_library_method(path: Path, class_name: str, name: str) -> bool:
    """Whether ``name`` overrides a method of a base class from outside the
    package, such as ``argparse.ArgumentParser.error``: the library calls it."""
    cls = getattr(importlib.import_module(f"ontoguard.{path.stem}"), class_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:]
               if base.__module__.partition(".")[0] != "ontoguard")


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public name that only the tests use is code the pipeline does not run;
    # test-only helpers such as the stage recounts live under tests/.
    # __init__.py only re-exports. A public method needs an attribute
    # reference outside its own def.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted([*SRC.glob("*.py"), *PERFBENCH.glob("*.py")])
             if path.name != "__init__.py"}
    statements = [(path, statement) for path, tree in trees.items() for statement in tree.body]
    references = [(statement, _referenced_names(statement)) for _, statement in statements]
    defined = [(path, statement, name) for path, statement in statements if path.parent == SRC
               for name in _defined_names(statement)]
    assert KEPT_FOR_THE_TRACER <= {name for _, _, name in defined}
    unused = [
        f"{path.name} {name}" for path, statement, name in defined
        if not name.startswith("_") and name not in KEPT_FOR_THE_TRACER
        and not any(name in names for other, names in references if other is not statement)
    ]
    attributes = sum(map(_attributes, trees.values()), Counter())
    unused += [
        f"{path.name} {statement.name}.{method.name}" for path, statement in statements
        if path.parent == SRC and isinstance(statement, ast.ClassDef)
        for method in statement.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and attributes[method.name] == _attributes(method)[method.name]
        and not _overrides_a_library_method(path, statement.name, method.name)
    ]
    assert unused == []
