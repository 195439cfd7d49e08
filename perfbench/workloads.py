"""The benchmark's workloads: set-up, timed body and output checks.

Each workload drives ontoguard in-process through ``ontoguard.cli.main``,
the entry point users run. A workload is built from three steps, run in
one fresh process: ``setup`` (imports are done; loads the scenario, code
system, config and adapters), ``run`` (the timed region) and ``check``
(recounts the outputs with code that shares nothing with the stage it
checks). ``prepare`` makes the files a file-based workload reads; it runs
once per benchmark run, untimed, in its own process.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ontoguard import cli, harness, oracles, synthgen
from ontoguard.compliance import load_adapter
from ontoguard.model import load_code_system, load_config

NAMES = ("walkthrough", "drift-storm", "jsonl-cli")
BENCH_DIR = Path(__file__).resolve().parent
DRIFT_STORM_SPEC = BENCH_DIR / "drift_storm.json"

# Records per quarter at smoke size: every check and the tracer still run,
# in seconds rather than minutes.
SMOKE_N = {"walkthrough": 2000, "drift-storm": 2000, "jsonl-cli": 2000}

# Prior quarters' AI-influence ratios handed to `breaker check`, from the
# walkthrough's schedule.
JSONL_BREAKER_HISTORY = "0.04,0.08"


@dataclass
class Context:
    workload: str
    seed: int
    smoke: bool
    work: Path
    spec: harness.ScenarioSpec
    scenario_arg: str
    cfg: Any
    records_in: int
    out: Path
    exit_codes: list[int] = field(default_factory=list)


def _scenario_file(workload: str) -> Path:
    """Scenario spec of a workload; the file chain reads the walkthrough's."""
    if workload == "drift-storm":
        return DRIFT_STORM_SPEC
    return harness.fixture_dir() / "diabetes_walkthrough.json"


def _smoke_spec(workload: str, work: Path) -> Path:
    """The workload's scenario at smoke size, with absolute file references.

    Its assertions are dropped: their expected counts hold at full size only.
    """
    source = harness.load_scenario(_scenario_file(workload))
    data = json.loads(_scenario_file(workload).read_text(encoding="utf-8"))
    data.update(
        code_system=str(source.code_system_path),
        config=str(source.config_path),
        adapters=[str(p) for p in source.adapter_paths],
        n_per_quarter=SMOKE_N[workload],
        assertions=[],
    )
    path = work / f"{workload}.smoke.json"
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return path


def setup(workload: str, seed: int, smoke: bool, work: Path, out: Path) -> Context:
    if smoke:
        scenario_arg = str(_smoke_spec(workload, work))
    elif workload == "drift-storm":
        scenario_arg = str(DRIFT_STORM_SPEC)
    else:
        scenario_arg = "diabetes-walkthrough"
    spec = harness.load_scenario(scenario_arg)
    load_code_system(spec.code_system_path)
    cfg = load_config(spec.config_path)
    for path in spec.adapter_paths:
        load_adapter(path)
    n = spec.n_per_quarter
    if workload == "jsonl-cli":
        # gate 1 file, fidelity-report 2, infer-clinical 2, dormancy 1,
        # drift-scan 2, breaker 1: nine quarter-sized files parsed.
        records_in = 9 * n
    else:
        records_in = n * (spec.quarters + 1)  # history plus every quarter
    return Context(workload, seed, smoke, work, spec, scenario_arg, cfg, records_in, out)


def _cli(ctx: Context, *argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        ctx.exit_codes.append(cli.main(list(argv)))


def _data(ctx: Context) -> Path:
    return ctx.work / "data"


def prepare(workload: str, seed: int, smoke: bool, work: Path) -> None:
    """Write the input files the jsonl-cli chain reads (untimed)."""
    ctx = setup(workload, seed, smoke, work, work)
    data = _data(ctx)
    data.mkdir(parents=True, exist_ok=True)
    spec = ctx.spec
    history_spec = data / "history_spec.json"
    history_spec.write_text(json.dumps(synthgen.spec_to_dict(
        spec.distortion.without_onset_distortions())), encoding="utf-8")
    quarter_spec = data / "quarter_spec.json"
    quarter_spec.write_text(json.dumps(synthgen.spec_to_dict(spec.distortion)), encoding="utf-8")
    (data / "significance.json").write_text(json.dumps(dict(spec.significance)), encoding="utf-8")
    (data / "conditions.json").write_text(json.dumps({
        code: [c.to_dict() for c in conds]
        for code, conds in spec.activation_conditions.items()
    }), encoding="utf-8")
    system = str(spec.code_system_path)
    n = str(spec.n_per_quarter)
    _cli(ctx, "synth", "generate", "--system", system, "--spec", str(history_spec),
         "--n", n, "--seed", str(seed), "--out", str(data / "history.jsonl"),
         "--truth", str(data / "history_truth.jsonl"))
    _cli(ctx, "synth", "generate", "--system", system, "--spec", str(quarter_spec),
         "--n", n, "--seed", str(seed + 1), "--quarters", "3",
         "--out", str(data / "quarter.jsonl"), "--truth", str(data / "quarter_truth.jsonl"))
    if any(ctx.exit_codes):
        raise RuntimeError(f"synth generate failed with exit codes {ctx.exit_codes}")


def run(ctx: Context) -> None:
    """The timed region."""
    if ctx.workload != "jsonl-cli":
        _cli(ctx, "scenario", "run", ctx.scenario_arg, "--seed", str(ctx.seed),
             "--out-dir", str(ctx.out))
        return
    data, out = _data(ctx), ctx.out
    system = str(ctx.spec.code_system_path)
    config = str(ctx.spec.config_path)
    q1, q3 = str(data / "quarter.q1.jsonl"), str(data / "quarter.q3.jsonl")
    history = str(data / "history.jsonl")
    _cli(ctx, "gate", "--records", q1, "--system", system,
         "--target-version", ctx.spec.target_version, "--config", config,
         "--out-dir", str(out / "gate"))
    _cli(ctx, "fidelity-report", "--records", q1, "--history", history,
         "--system", system, "--config", config, "--out", str(out / "fidelity.csv"))
    _cli(ctx, "infer-clinical", "--records", q1, "--history", history,
         "--system", system, "--config", config, "--out", str(out / "inferred.jsonl"),
         "--divergence-out", str(out / "divergence.csv"))
    _cli(ctx, "dormancy", "classify", "--records", str(out / "inferred.jsonl"),
         "--significance", str(data / "significance.json"),
         "--conditions", str(data / "conditions.json"), "--config", config,
         "--store", str(out / "dormant_store.json"), "--prune-log", str(out / "prune_log.csv"))
    _cli(ctx, "drift-scan", "--baseline", q1, "--current", q3, "--system", system,
         "--config", config, "--out", str(out / "alerts.jsonl"))
    _cli(ctx, "breaker", "check", "--records", q3, "--history", JSONL_BREAKER_HISTORY,
         "--config", config, "--out", str(out / "influence.csv"))


# ---------------------------------------------------------------------------
# Output checks. Each returns (name, passed); recounts read the files the
# run wrote, never the pipeline's in-memory objects.
# ---------------------------------------------------------------------------

Check = tuple[str, bool]


def _jsonl(path: Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _line_count(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _fidelity_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def _breaker_check(label: str, ratio: float, state: str, threshold: float) -> Check:
    return (f"{label}: breaker open exactly when ratio > {threshold}",
            (state == "open") == (ratio > threshold))


def _scenario_checks(ctx: Context) -> list[Check]:
    checks: list[Check] = [("scenario run exit code 0", ctx.exit_codes == [0])]
    report_path = ctx.out / "report.json"
    if not report_path.exists():
        return checks + [("report.json written", False)]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    results = report["assertions"]
    checks.append((
        f"all {len(ctx.spec.assertions)} scenario assertions pass",
        len(results) == len(ctx.spec.assertions) and all(r["passed"] for r in results),
    ))
    quarters = report["quarters"]
    checks.append((f"{ctx.spec.quarters} quarters reported", len(quarters) == ctx.spec.quarters))
    trace = report["trace"]
    threshold = ctx.cfg.breaker_threshold
    for quarter in quarters:
        q = quarter["quarter"]
        qdir = ctx.out / f"q{q}"
        gate = quarter["gate"]
        processed = gate["accepted"] + gate["reconciled"]
        checks.append((f"q{q}: gate partition covers every generated record",
                       processed + gate["quarantined"] == ctx.spec.n_per_quarter))
        checks.append((f"q{q}: quarantine file holds every quarantined record",
                       _line_count(qdir / "quarantine.jsonl") == gate["quarantined"]))
        stage_n = {
            entry["stage"]: entry["detail"].get("n")
            for entry in trace
            if entry["quarter"] == q and entry["stage"] in ("checkpoint.annotate",
                                                          "dual_ontology.infer")
        }
        checks.append((f"q{q}: checkpoint annotates every processed record",
                       stage_n.get("checkpoint.annotate") == processed))
        checks.append((f"q{q}: clinical inference keeps every record",
                       stage_n.get("dual_ontology.infer") == processed))
        rows = _fidelity_rows(qdir / "fidelity_report.csv")
        checks.append((f"q{q}: fidelity report counts every processed record",
                       sum(int(r["n"]) for r in rows) == processed))
        checks.append((f"q{q}: fidelity means and deciles in [0,1]", all(
            0.0 <= float(v) <= 1.0
            for r in rows for k, v in r.items() if k not in ("institution", "n")
        )))
        breaker = quarter["breaker"]
        checks.append(_breaker_check(f"q{q}", breaker["ratio"], breaker["state"], threshold))
        checks.append((f"q{q}: retraining refused exactly when the breaker is open",
                       breaker["refused"] == (breaker["state"] == "open")
                       == (qdir / "refusal.json").exists()))
    return checks


def _jsonl_cli_checks(ctx: Context) -> list[Check]:
    data, out = _data(ctx), ctx.out
    n = ctx.spec.n_per_quarter
    checks: list[Check] = [("six CLI commands exit 0", ctx.exit_codes == [0] * 6)]
    q1 = data / "quarter.q1.jsonl"
    gate = out / "gate"
    checks.append(("gate partition oracle holds", oracles.partition_oracle_files(
        q1, gate / "accepted.jsonl", gate / "reconciled.jsonl", gate / "quarantine.jsonl")))
    checks.append(("gate partition covers every generated record", sum(
        _line_count(gate / name)
        for name in ("accepted.jsonl", "reconciled.jsonl", "quarantine.jsonl")) == n))
    rows = _fidelity_rows(out / "fidelity.csv")
    checks.append(("checkpoint annotates every record",
                   sum(int(r["n"]) for r in rows) == n))
    inferred = _jsonl(out / "inferred.jsonl")
    checks.append(("infer-clinical writes as many rows as it reads", len(inferred) == n))
    checks.append(("every fidelity score in [0,1]", all(
        r["fidelity"] is not None and 0.0 <= r["fidelity"]["score"] <= 1.0 for r in inferred)))
    checks.append(("every record has a clinical code",
                   all(r["clinical_code"] for r in inferred)))
    alerts = _jsonl(out / "alerts.jsonl")
    checks.append(("drift alerts at or above the drift threshold", all(
        a["divergence"] >= ctx.cfg.drift_threshold for a in alerts)))
    if not ctx.smoke:
        checks.append(("Q1->Q3 raises the DM2-HYPER type-B alert", any(
            a["code"] == "DM2-HYPER" and a["drift_type"] == "type_b" for a in alerts)))
    q3 = _jsonl(data / "quarter.q3.jsonl")
    ratio = sum(1 for r in q3 if r["influence_tag"] is not None) / len(q3)
    with open(out / "influence.csv", encoding="utf-8") as fh:
        row = list(csv.DictReader(fh))[-1]
    checks.append(("breaker ratio matches a recount", abs(float(row["ratio"]) - ratio) < 1e-6))
    checks.append(_breaker_check("q3", ratio, row["state"], ctx.cfg.breaker_threshold))
    store = json.loads((out / "dormant_store.json").read_text(encoding="utf-8"))
    checks.append(("dormant store lists the significant dormant codes", all(
        e["code"] in ctx.spec.significance for e in store)))
    return checks


def check(ctx: Context) -> list[Check]:
    try:
        return _jsonl_cli_checks(ctx) if ctx.workload == "jsonl-cli" else _scenario_checks(ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [(f"outputs readable ({type(exc).__name__}: {exc})", False)]


def output_digest(ctx: Context) -> str:
    """sha256 over every deterministic output of the run."""
    digest = hashlib.sha256()
    names = ["report.json"] if ctx.workload != "jsonl-cli" else sorted(
        str(p.relative_to(ctx.out)) for p in ctx.out.rglob("*") if p.is_file()
    )
    for name in names:
        path = ctx.out / name
        digest.update(name.encode())
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()

