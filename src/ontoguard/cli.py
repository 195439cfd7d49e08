"""Command-line interface.

Exit codes: 0 success, 1 validation/usage error or a file or memory fault,
2 stage error. Every command runs through ``harness.run_stage``, so any other
fault exits 2 with one ``stage error:`` line, not a traceback. Analytical
subcommands always print the code layer they read. Those that count codes
(dormancy, drift-scan) take ``--layer``, by default the administrative one.
"""

from __future__ import annotations

import argparse
import gc
import sys
from datetime import date, datetime
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from . import breaker as breaker_mod
from . import checkpoint as checkpoint_mod
from . import compliance as compliance_mod
from . import dormancy as dormancy_mod
from . import dual_ontology as dual_mod
from . import harness as harness_mod
from . import oracles as oracles_mod
from . import sentinel as sentinel_mod
from . import synthgen as synthgen_mod
from . import version_gate as gate_mod
from .model import (
    Layer,
    PipelineConfig,
    StageError,
    ValidationError,
    load_code_system,
    load_config,
    load_json,
    profile_batch,
    read_records,
    write_records,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _layer_arg(value: str) -> Layer:
    try:
        return Layer(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"layer must be one of: {', '.join(l.value for l in Layer)}"
        ) from None


def _seed_arg(value: str) -> int:
    try:
        seed = int(value)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")


def _date_arg(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an ISO 8601 date (YYYY-MM-DD), got {value!r}"
        ) from None


def _print_layer(layer: Layer) -> None:
    print(f"layer: {layer.value}")


def _load_cfg(path: str | None) -> PipelineConfig:
    return PipelineConfig() if path is None else load_config(path)


def _blame(path: str, build, *args):
    """``build(*args)``, where ``args`` hold what was read from ``path``.

    A profile, reference model, drift scan or distortion spec can fail on a
    file as a whole, such as a code whose times mix naive and UTC-offset
    timestamps; no one line holds that fault, so its message names the file.
    ``read_records`` names ``path:line`` for a line's own faults; call it outside.
    """
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_context_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _float_list(raw: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in raw.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated numbers, got {raw!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="ontoguard")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = sub.add_parser("synth", help="synthetic data generation")
    synth_sub = synth.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    gen = synth_sub.add_parser("generate", help="generate a labeled batch")
    gen.set_defaults(handler=_cmd_synth_generate)
    gen.add_argument("--system", required=True)
    gen.add_argument("--spec", required=True, help="distortion spec JSON file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=_seed_arg, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--truth", required=True)
    gen.add_argument("--quarters", type=int, default=None)
    gen.add_argument("--start", type=_date_arg, default="2025-01-01")

    gate = sub.add_parser("gate", help="version-gate a batch")
    gate.set_defaults(handler=_cmd_gate)
    gate.add_argument("--records", required=True)
    gate.add_argument("--system", required=True)
    gate.add_argument("--target-version", required=True)
    gate.add_argument("--config", default=None)
    gate.add_argument("--out-dir", required=True)

    fid = sub.add_parser("fidelity-report", help="annotate and report fidelity")
    fid.set_defaults(handler=_cmd_fidelity_report)
    infer = sub.add_parser("infer-clinical", help="populate the clinical layer")
    infer.set_defaults(handler=_cmd_infer_clinical)
    for annotating in (fid, infer):  # the arguments of _annotate, then --out
        for flag in ("--records", "--history", "--system"):
            annotating.add_argument(flag, required=True)
        annotating.add_argument("--config", default=None)
        annotating.add_argument("--out", required=True)
    infer.add_argument("--overrides", default=None)
    infer.add_argument("--divergence-out", default=None)

    dorm = sub.add_parser("dormancy", help="dormant feature management")
    dorm_sub = dorm.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    classify = dorm_sub.add_parser("classify")
    classify.set_defaults(handler=_cmd_dormancy_classify)
    classify.add_argument("--records", required=True)
    classify.add_argument("--significance", required=True,
                          help="JSON file mapping code -> note")
    classify.add_argument("--conditions", default=None,
                          help="JSON file mapping code -> activation conditions")
    classify.add_argument("--config", default=None)
    classify.add_argument("--store", default=None,
                          help="dormant store path; an existing store is carried forward")
    classify.add_argument("--prune-log", default=None)
    classify.add_argument("--layer", type=_layer_arg, default=Layer.ADMINISTRATIVE)
    activate = dorm_sub.add_parser("activate")
    activate.set_defaults(handler=_cmd_dormancy_activate)
    activate.add_argument("--store", required=True)
    activate.add_argument("--records", required=True)
    activate.add_argument("--domain-transfer", default=None)
    activate.add_argument("--outbreak-signal", default=None)
    activate.add_argument("--layer", type=_layer_arg, default=Layer.ADMINISTRATIVE)

    scan = sub.add_parser("drift-scan", help="scan for semantic drift")
    scan.set_defaults(handler=_cmd_drift_scan)
    scan.add_argument("--baseline", required=True)
    scan.add_argument("--current", required=True)
    scan.add_argument("--system", required=True)
    scan.add_argument("--config", default=None)
    scan.add_argument("--out", default=None)
    scan.add_argument("--layer", type=_layer_arg, default=Layer.ADMINISTRATIVE)

    brk = sub.add_parser("breaker", help="AI-influence circuit breaker")
    brk_sub = brk.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    check = brk_sub.add_parser("check")
    check.set_defaults(handler=_cmd_breaker_check)
    check.add_argument("--records", required=True)
    check.add_argument("--history", default="", help="comma list of prior ratios")
    check.add_argument("--config", default=None)
    check.add_argument("--out", default=None)
    sweep = brk_sub.add_parser("sweep")
    sweep.set_defaults(handler=_cmd_breaker_sweep)
    sweep.add_argument("--records", required=True)
    sweep.add_argument("--history", default="")
    sweep.add_argument("--thresholds", default="0.05:0.30:0.05",
                       help="start:stop:step threshold sweep")

    comply = sub.add_parser("comply-check", help="evaluate compliance adapters")
    comply.set_defaults(handler=_cmd_comply_check)
    comply.add_argument("--op", required=True,
                        choices=[k.value for k in compliance_mod.OpKind])
    comply.add_argument("--context", nargs="*", default=[], metavar="KEY=VALUE")
    comply.add_argument("--adapters", nargs="*", default=None)
    comply.add_argument("--timestamp", default=None, help="ISO timestamp for the audit trail")
    comply.add_argument("--out", default=None)

    scenario = sub.add_parser("scenario", help="run a bundled or custom scenario")
    scen_sub = scenario.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    run = scen_sub.add_parser("run")
    run.set_defaults(handler=_cmd_scenario_run)
    run.add_argument("name", help="bundled scenario name or spec file path")
    run.add_argument("--seed", type=_seed_arg, required=True)
    run.add_argument("--out-dir", default="run-output")

    oracle = sub.add_parser("oracle", help="independent verification oracles")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    jsd = oracle_sub.add_parser("jsd")
    jsd.set_defaults(handler=_cmd_oracle_jsd)
    jsd.add_argument("--p", required=True, help="comma list of probabilities")
    jsd.add_argument("--q", required=True, help="comma list of probabilities")
    partition = oracle_sub.add_parser("partition")
    partition.set_defaults(handler=_cmd_oracle_partition)
    partition.add_argument("--input", required=True)
    partition.add_argument("--accepted", required=True)
    partition.add_argument("--reconciled", required=True)
    partition.add_argument("--quarantine", required=True)
    return parser


def _cmd_synth_generate(args) -> int:
    system = load_code_system(args.system)
    spec = load_json(args.spec, "--spec file", synthgen_mod.DistortionSpec)
    _blame(args.spec, synthgen_mod.validate_spec, system, spec)
    if args.quarters is None:
        records, truth = synthgen_mod.generate_batch(
            system, spec, args.n, args.seed, window=synthgen_mod.quarter_window(args.start, 0))
        write_records(args.out, records)
        synthgen_mod.write_ground_truth(args.truth, [records], [truth])
        print(f"wrote {len(records)} records to {args.out}")
        return 0
    batches, truths = synthgen_mod.generate_quarter_series(
        system, spec, args.quarters, args.n, args.seed, start=args.start,
    )
    out = Path(args.out)
    for i, batch in enumerate(batches, start=1):
        path = out.with_name(f"{out.stem}.q{i}{out.suffix}")
        write_records(path, batch)
        print(f"wrote {len(batch)} records to {path}")
    synthgen_mod.write_ground_truth(args.truth, batches, truths)
    return 0


def _cmd_gate(args) -> int:
    system = load_code_system(args.system)
    _load_cfg(args.config)  # the gate reads no setting, but a bad --config file still exits 1
    records = read_records(args.records)
    outcome = gate_mod.gate_batch(records, system, args.target_version)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records(out / "accepted.jsonl", outcome.accepted)
    write_records(out / "reconciled.jsonl", outcome.reconciled)
    gate_mod.write_quarantine(out / "quarantine.jsonl", outcome)
    print(" ".join(f"{bucket}={n}" for bucket, n in outcome.counts().items()))
    return 0


def _annotate(args):
    """``--records`` annotated against a reference model of ``--history``.

    Fidelity scores the administrative code as billed, and inference reads
    it to write the clinical layer, so both commands print that layer.
    """
    _print_layer(Layer.ADMINISTRATIVE)
    system = load_code_system(args.system)
    cfg = _load_cfg(args.config)
    ref = _blame(args.history, checkpoint_mod.build_reference_model,
                 read_records(args.history), system)
    return cfg, ref, checkpoint_mod.annotate_batch(read_records(args.records), ref, cfg)


def _cmd_fidelity_report(args) -> int:
    report = checkpoint_mod.fidelity_report(_annotate(args)[-1])
    checkpoint_mod.write_fidelity_report(report, args.out)
    print(f"wrote fidelity report for {len(report)} institutions to {args.out}")
    return 0


def _cmd_infer_clinical(args) -> int:
    cfg, ref, annotated = _annotate(args)
    inferred = dual_mod.infer_clinical_layer(annotated, ref, cfg)
    if args.overrides:
        inferred = dual_mod.apply_clinical_overrides(
            inferred, dual_mod.read_overrides(args.overrides)
        )
    write_records(args.out, inferred)
    if args.divergence_out:
        report = dual_mod.divergence(inferred)
        dual_mod.write_divergence_csv(report, args.divergence_out)
        print(f"population disagreement rate: {report.disagreement_rate:.4f}")
    print(f"wrote {len(inferred)} records to {args.out}")
    return 0


def _cmd_dormancy_classify(args) -> int:
    if not args.store and (args.conditions or args.prune_log):
        flag = "--conditions" if args.conditions else "--prune-log"
        raise ValidationError(f"{flag} needs --store")
    _print_layer(args.layer)
    cfg = _load_cfg(args.config)
    profile = _blame(args.records, profile_batch, read_records(args.records), args.layer)
    significance = load_json(args.significance, "--significance file", Mapping[str, str])
    classification = dormancy_mod.classify_features(profile, significance.keys(), cfg)
    for code in sorted(classification):
        print(f"{code}: {classification[code].value}")
    if args.store:
        conditions = {}
        if args.conditions:
            conditions = load_json(args.conditions, "--conditions file", dormancy_mod.Conditions)
        # An existing store is carried forward: its entries stay unless
        # this batch updates them.
        existing = dormancy_mod.read_store(args.store) if Path(args.store).exists() else None
        store = dormancy_mod.store_dormant(classification, profile, conditions, significance,
                                           existing)
        dormancy_mod.write_store(store, args.store)
        if args.prune_log:
            dormancy_mod.write_prune_log(store, args.prune_log)
    return 0


def _cmd_dormancy_activate(args) -> int:
    _print_layer(args.layer)
    store = dormancy_mod.read_store(args.store)
    profile = _blame(args.records, profile_batch, read_records(args.records), args.layer)
    events = []
    if args.domain_transfer:
        events.append(dormancy_mod.ActivationCondition(
            kind=dormancy_mod.ActivationKind.DOMAIN_TRANSFER_REQUEST,
            domain=args.domain_transfer,
        ))
    if args.outbreak_signal:
        events.append(dormancy_mod.ActivationCondition(
            kind=dormancy_mod.ActivationKind.OUTBREAK_SIGNAL,
            signal_code=args.outbreak_signal,
        ))
    activations = dormancy_mod.check_activation(store, profile, events)
    for code, condition in activations:
        print(f"activated {code}: {condition.kind.value}")
    if not activations:
        print("no activations")
    return 0


def _cmd_drift_scan(args) -> int:
    _print_layer(args.layer)
    system = load_code_system(args.system)
    cfg = _load_cfg(args.config)
    baseline = _blame(args.baseline, profile_batch, read_records(args.baseline), args.layer)
    current = _blame(args.current, profile_batch, read_records(args.current), args.layer)
    # scan reads the code set of the current batch's version
    alerts = _blame(args.current, sentinel_mod.scan, baseline, current, system, cfg)
    for alert in alerts:
        print(
            f"alert {alert.code}: divergence={alert.divergence:.4f} "
            f"type={alert.drift_type.value} confidence={alert.confidence:.2f}"
        )
    if not alerts:
        print("no drift alerts")
    if args.out:
        sentinel_mod.write_alerts(alerts, args.out)
    return 0


def _cmd_breaker_check(args) -> int:
    cfg = _load_cfg(args.config)
    records = read_records(args.records)
    history = breaker_mod.read_history(args.history)
    stats = breaker_mod.compute_stats(records, history)
    state = breaker_mod.evaluate(stats, cfg)
    print(f"ratio: {stats.ratio:.4f} ({stats.tagged_count}/{stats.total_count})")
    print(f"state: {state.state.value}")
    print(f"reason: {state.reason}")
    if args.out:
        breaker_mod.write_influence_csv(
            [(period, stats, state) for period, _ in stats.history[-1:]], args.out
        )
    return 0


MAX_SWEEP_THRESHOLDS = 10_000


def _cmd_breaker_sweep(args) -> int:
    # Each number as the shortest decimal that reads back as its float, so that
    # 0.7 + 0.1 is 0.8 exactly and no exponent is too large to expand.
    try:
        start, stop, step = (Fraction(repr(float(x))) for x in args.thresholds.split(":"))
    except ValueError:
        raise ValidationError(
            f"--thresholds must be start:stop:step of finite numbers, got {args.thresholds!r}"
        ) from None
    if not step > 0 or start > stop:
        raise ValidationError(
            f"--thresholds needs step > 0 and start <= stop, got {args.thresholds!r}"
        )
    if not (start > 0 and stop < 1):
        raise ValidationError(f"--thresholds must lie in (0,1), got {args.thresholds!r}")
    if (stop - start) / step >= MAX_SWEEP_THRESHOLDS:
        raise ValidationError(
            f"--thresholds sweeps more than {MAX_SWEEP_THRESHOLDS} thresholds, "
            f"got {args.thresholds!r}"
        )
    records = read_records(args.records)
    history = breaker_mod.read_history(args.history)
    stats = breaker_mod.compute_stats(records, history)
    print(f"ratio: {stats.ratio:.4f}")
    for i in range((stop - start) // step + 1):
        threshold = float(start + i * step)
        state = breaker_mod.evaluate(stats, PipelineConfig(breaker_threshold=threshold))
        print(f"threshold {threshold:.3f}: {state.state.value}")
    return 0


def _cmd_comply_check(args) -> int:
    context = {}
    for item in args.context:
        if "=" not in item:
            raise ValidationError(f"context entries must be KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        context[key] = _parse_context_value(raw)
    paths = args.adapters
    if not paths:
        adapter_dir = harness_mod.fixture_dir() / "adapters"
        paths = sorted(str(p) for p in adapter_dir.glob("*.json"))
    adapters = [compliance_mod.load_adapter(p) for p in paths]
    op = compliance_mod.DataOperation(
        op_kind=compliance_mod.OpKind(args.op), context=context
    )
    now = None
    if args.timestamp is not None:
        try:
            now = datetime.fromisoformat(args.timestamp)
        except ValueError:
            raise ValidationError(
                f"--timestamp must be an ISO 8601 timestamp, got {args.timestamp!r}"
            ) from None
    verdict, audit = compliance_mod.compose(adapters, op, now=now)
    print(f"verdict: {verdict.kind.value}")
    for condition in verdict.conditions:
        print(f"condition: {condition}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    for entry in audit:
        print(f"audit [{entry.adapter_id}] {entry.provision}: {entry.reasoning}")
    if args.out:
        compliance_mod.write_decision(verdict, audit, args.out)
    return 0


def _cmd_scenario_run(args) -> int:
    spec = harness_mod.load_scenario(args.name)
    report = harness_mod.run_scenario(spec, args.seed, args.out_dir)
    print(f"report written to {Path(args.out_dir) / 'report.json'}")
    for result in report.assertions:
        status = "PASS" if result["passed"] else "FAIL"
        print(f"{status} {result['assertion']['kind']}: {result['detail']}")
    return 0 if all(result["passed"] for result in report.assertions) else 1


def _cmd_oracle_jsd(args) -> int:
    p, q = _float_list(args.p, "--p"), _float_list(args.q, "--q")
    try:
        value = oracles_mod.jsd_oracle(p, q)
    except ValueError as exc:
        raise ValidationError(f"--p/--q: {exc}") from None
    print(f"{value:.12f}")
    return 0


def _cmd_oracle_partition(args) -> int:
    try:
        ok = oracles_mod.partition_oracle_files(
            args.input, args.accepted, args.reconciled, args.quarantine
        )
    except ValueError as exc:  # also a file that is not UTF-8
        raise ValidationError(f"oracle partition: {exc}") from None
    print("partition holds" if ok else "partition violated")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    # Records are acyclic and freed by reference counting, so the cyclic
    # collector would only re-scan them; a run leaves a fixed number of
    # cyclic objects whatever its input size. Pause it for the command.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = f"{args.command} {getattr(args, 'subcommand', '')}".rstrip()
        return harness_mod.run_stage(None, command, args.handler, args)
    # OSError: unreadable input or unwritable output; MemoryError: a size no machine holds
    except (ValidationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
