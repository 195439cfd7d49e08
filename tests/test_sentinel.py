"""Drift sentinel: fingerprints, divergence, cause classification."""

import math
from dataclasses import replace
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest

from conftest import SEED, admin, row, tiny_system
from ontoguard import harness, synthgen
from ontoguard.model import (
    PipelineConfig,
    TimeWindow,
    ValidationError,
    load_code_system,
    load_config,
    read_records,
    to_json,
    write_records,
)
from ontoguard.oracles import jsd_oracle
from ontoguard.sentinel import (
    COMPONENTS,
    DriftType,
    aligned_jsd,
    build_fingerprints,
    component_divergences,
    scan,
    write_alerts,
)
from ontoguard.synthgen import InstitutionWeight

Q1 = TimeWindow(date(2025, 1, 1), date(2025, 3, 31))


def fingerprint(co=None, demo=None, temporal=None, inst=None):
    return {
        "cooccurrence": co if co is not None else {"A": 1.0},
        "demographic": demo if demo is not None else {("50-59", "female"): 1.0},
        "temporal": temporal if temporal is not None else {0: 0.2, math.inf: 0.8},
        "institutional": inst if inst is not None else {"I1": 1.0},
    }


class TestBuildFingerprints:
    def test_low_support_codes_not_fingerprinted(self):
        cfg = PipelineConfig(fingerprint_min_support=20)
        batch = (
            [row(f"R-{i}", code="COMMON") for i in range(30)]
            + [row(f"S-{i}", code="SPARSE") for i in range(5)]
        )
        fps = build_fingerprints(admin(batch), cfg)
        assert "SPARSE" not in fps.by_code
        assert "COMMON" in fps.by_code

    def test_uniform_demographics_recovered(self, bundled_cfg):
        # A system with no demographic profile samples uniformly over the
        # age x sex grid; the fingerprint should recover that within 0.03.
        system = tiny_system(base_prevalence={"AAA": 1.0})
        spec = synthgen.DistortionSpec(
            institutions=(InstitutionWeight("I-A", 1.0),), current_version="v2"
        )
        batch, _ = synthgen.generate_batch(system, spec, 50_000, 13, window=Q1)
        fps = build_fingerprints(admin(batch), bundled_cfg)
        demo = fps.by_code["AAA"]["demographic"]
        uniform = 1.0 / 30.0
        assert len(demo) == 30
        for probability in demo.values():
            assert abs(probability - uniform) <= 0.03

    def test_same_batch_gives_identical_fingerprints(self, q1_products, bundled_cfg):
        batch = q1_products["inferred"].select(slice(5000))
        a = build_fingerprints(admin(batch), bundled_cfg)
        b = build_fingerprints(admin(batch), bundled_cfg)
        assert a.by_code == b.by_code

    def test_distributions_normalized(self, q1_products, bundled_cfg):
        fps = build_fingerprints(admin(q1_products["inferred"]), bundled_cfg)
        for fp in fps.by_code.values():
            assert tuple(fp) == COMPONENTS
            for dist in fp.values():
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)

    def test_empty_batch_rejected(self, bundled_cfg):
        with pytest.raises(ValidationError, match="empty"):
            build_fingerprints(admin([]), bundled_cfg)


class TestCompare:
    def test_identical_fingerprints_give_zero(self):
        fp = fingerprint()
        assert set(component_divergences(fp, fp).values()) == {0.0}

    def test_single_flipped_component_gives_quarter(self):
        # Two batches that differ only in their co-code: one component at
        # maximal JSD (disjoint point masses), the rest equal, equal
        # weights: total = 1/4.
        batches = [
            [row(f"{co}-{i}", code="AAA", version="v2", co_codes=(co,))
             for i in range(30)]
            for co in ("BBB", "CCC")
        ]
        alerts = scan(
            *map(admin, batches), tiny_system(), PipelineConfig(),
        )
        assert [alert.code for alert in alerts] == ["AAA"]
        assert alerts[0].divergence == pytest.approx(0.25)

    def test_symmetry_on_random_fingerprints(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            def random_dist(keys):
                raw = rng.random(len(keys))
                raw /= raw.sum()
                return dict(zip(keys, raw))

            a = fingerprint(
                co=random_dist(["A", "B", "C"]),
                demo=random_dist([("50-59", "female"), ("60-69", "male")]),
                inst=random_dist(["I1", "I2"]),
            )
            b = fingerprint(
                co=random_dist(["A", "B", "D"]),
                demo=random_dist([("50-59", "female"), ("60-69", "male")]),
                inst=random_dist(["I1", "I2"]),
            )
            assert component_divergences(a, b) == pytest.approx(
                component_divergences(b, a), abs=1e-12
            )

    def test_temporal_cells_align_across_windows_of_different_lengths(self):
        # A three-month window's month cells are zero-filled to the
        # four-month window's, and the complements stay aligned last.
        def batch(counts):
            rows = [row(f"A{month}-{i}", code="AAA", when=datetime(2025, month, 10, 8, 0))
                    for month, count in enumerate(counts, start=1) for i in range(count)]
            return rows + [row(f"B-{i}", code="BBB") for i in range(10)]

        cfg = PipelineConfig(fingerprint_min_support=1)
        short = batch([3, 5, 7])
        long = batch([4, 2, 6, 8])
        fp_short = build_fingerprints(admin(short), cfg).by_code["AAA"]
        fp_long = build_fingerprints(admin(long), cfg).by_code["AAA"]
        p = [3 / 25, 5 / 25, 7 / 25, 0.0]
        q = [4 / 30, 2 / 30, 6 / 30, 8 / 30]
        p.append(1.0 - sum(p))
        q.append(1.0 - sum(q))
        assert component_divergences(fp_short, fp_long)["temporal"] == pytest.approx(
            jsd_oracle(p, q), abs=1e-12
        )

    def test_aligned_jsd_matches_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            keys = [f"k{i}" for i in range(int(rng.integers(2, 12)))]
            p = rng.random(len(keys))
            q = rng.random(len(keys))
            p /= p.sum()
            q /= q.sum()
            observed = aligned_jsd(dict(zip(keys, p)), dict(zip(keys, q)))
            assert observed == pytest.approx(jsd_oracle(p, q), abs=1e-9)


class TestScan:
    def test_billing_drift_classified_administrative(
        self, scenario_run
    ):
        # The walkthrough's recoding drift lands on the specific diabetes
        # code with billing-category evidence.
        q3 = scenario_run["report"].quarters[2]
        matching = [
            a for a in q3["alerts"]
            if a["code"] == "DM2-HYPER" and a["drift_type"] == "type_b"
        ]
        assert matching
        assert matching[0]["billing_category"] == "bc-chronic-specific"

    def test_release_correlated_drift_classified_terminological(self, bundled_system):
        # Fingerprint shift on a code the transition table changed, in a
        # window that starts just after the 2025 release.
        cfg = PipelineConfig(drift_threshold=0.1, fingerprint_min_support=20)
        baseline = [
            row(f"B-{i}", code="RESP-COV2", institution="I-OLD",
                when=datetime(2025, 1, 10, 8, 0),
                co_codes=("LAB-CRP-HI",))
            for i in range(40)
        ]
        current = [
            row(f"C-{i}", code="RESP-COV2", institution="I-NEW",
                when=datetime(2025, 2, 10, 8, 0),
                co_codes=("LAB-CRP-HI",))
            for i in range(40)
        ]
        alerts = scan(
            admin(baseline), admin(current), bundled_system, cfg,
        )
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.code == "RESP-COV2"
        assert alert.drift_type is DriftType.TYPE_C
        assert alert.confidence == 1.0
        assert alert.evidence["release_match"]["version"] == "2025"

    @pytest.mark.parametrize("code, version, year, terminological", [
        ("DDD", "v3", 2025, True),
        ("NEW", "v3", 2025, False),
        ("OLD", "v1", 2023, False),
    ], ids=["changed-by-matched-hop", "changed-by-earlier-hop", "first-release"])
    def test_terminological_cause_uses_only_the_hop_into_the_matched_release(
        self, code, version, year, terminological
    ):
        # v1 -> v2 renames OLD to NEW and v2 -> v3 renames CCC to DDD. A
        # window just after a release can blame only the codes its own hop
        # changed; v1 has no predecessor, so it changed none.
        def codes(*names):
            return [{"code": c, "clinical_group": "g", "billing_category": f"b-{c}",
                     "description": ""} for c in names]

        def hop(source, target, renames):
            return {"from": source, "to": target, "unmappable": [], "mappings": [
                {"from_code": c, "to_code": renames.get(c, c)}
                for c in ("AAA", "OLD" if source == "v1" else "NEW", "CCC")
            ]}

        system = tiny_system(
            versions=[
                {"label": "v1", "release_date": "2023-01-01", "validated": True},
                {"label": "v2", "release_date": "2024-01-01", "validated": True},
                {"label": "v3", "release_date": "2025-01-01", "validated": True},
            ],
            codes={"v1": codes("AAA", "OLD", "CCC"), "v2": codes("AAA", "NEW", "CCC"),
                   "v3": codes("AAA", "NEW", "DDD")},
            transitions=[hop("v1", "v2", {"OLD": "NEW"}), hop("v2", "v3", {"CCC": "DDD"})],
        )
        batches = [
            [row(f"{month}-{i}", code=code, version=version, institution=f"I-{month}",
                 when=datetime(year, month, 10, 8, 0)) for i in range(40)]
            for month in (1, 2)
        ]
        alerts = scan(
            *map(admin, batches), system,
            PipelineConfig(drift_threshold=0.1, fingerprint_min_support=20),
        )
        assert [alert.code for alert in alerts] == [code]
        assert alerts[0].evidence["release_match"]["version"] == version
        assert alerts[0].evidence["release_changed_code"] is terminological
        assert (alerts[0].drift_type is DriftType.TYPE_C) is terminological

    def test_identical_windows_give_no_alerts(self, q1_products, bundled_system,
                                              bundled_cfg):
        profile = admin(q1_products["inferred"].select(slice(10_000)))
        alerts = scan(
            profile, profile, bundled_system, bundled_cfg,
        )
        assert alerts == []

    def test_no_alert_below_threshold(self, scenario_run, walkthrough_spec, bundled_cfg):
        for quarter in scenario_run["report"].quarters:
            for alert in quarter["alerts"]:
                assert alert["divergence"] >= bundled_cfg.drift_threshold

    def test_alerts_sorted_by_divergence(self, scenario_run):
        for quarter in scenario_run["report"].quarters:
            divergences = [a["divergence"] for a in quarter["alerts"]]
            assert divergences == sorted(divergences, reverse=True)

    def test_scan_is_deterministic(self, q1_products, q3_products, bundled_system,
                                   bundled_cfg):
        a = scan(admin(q1_products["inferred"]), admin(q3_products["inferred"]),
                 bundled_system, bundled_cfg)
        b = scan(admin(q1_products["inferred"]), admin(q3_products["inferred"]),
                 bundled_system, bundled_cfg)
        assert [(x.code, x.divergence, x.drift_type, x.confidence) for x in a] \
            == [(x.code, x.divergence, x.drift_type, x.confidence) for x in b]

    @pytest.mark.parametrize("scenario", [
        "diabetes-walkthrough",
        Path(__file__).parents[1] / "perfbench" / "drift_storm.json",
    ], ids=["walkthrough", "drift-storm"])
    def test_doubled_batches_and_support_leave_every_alert_equal(self, scenario, tmp_path):
        # Metamorphic relation: fingerprints are normalised, so doubling both
        # batches changes no alert once the support threshold, an absolute
        # count, doubles with them. Each batch is doubled by writing its
        # records file twice over.
        spec = harness.load_scenario(scenario)
        system, cfg = load_code_system(spec.code_system_path), load_config(spec.config_path)
        profiles = {}
        for quarter in (0, 2):
            batch, _ = synthgen.generate_batch(
                system, spec.distortion, 20_000, seed=[SEED, quarter],
                window=synthgen.quarter_window(spec.start, quarter), quarter_index=quarter)
            path = tmp_path / f"q{quarter}.jsonl"
            write_records(path, batch)
            text = path.read_text(encoding="utf-8")
            for copies in (1, 2):
                path.write_text(text * copies, encoding="utf-8")
                profiles[copies, quarter] = admin(read_records(path))
        alerts = [
            to_json(scan(profiles[copies, 0], profiles[copies, 2], system,
                         replace(cfg, fingerprint_min_support=copies
                                 * cfg.fingerprint_min_support)))
            for copies in (1, 2)
        ]
        assert alerts[0] and alerts[1] == alerts[0]

    def test_alert_file_export(self, scenario_run, tmp_path):
        source = scenario_run["out_dir"] / "q3" / "alerts.jsonl"
        lines = source.read_text(encoding="utf-8").splitlines()
        assert lines
        import json

        first = json.loads(lines[0])
        assert set(first) == {"code", "divergence", "drift_type", "confidence",
                              "component_divergences", "evidence"}


class TestJsdProperties:
    def test_bounds_symmetry_zero_iff_equal(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            dim = int(rng.integers(2, 30))
            p = rng.random(dim)
            q = rng.random(dim)
            p /= p.sum()
            q /= q.sum()
            keys = [f"k{i}" for i in range(dim)]
            dp, dq = dict(zip(keys, p)), dict(zip(keys, q))
            forward = aligned_jsd(dp, dq)
            assert 0.0 <= forward <= 1.0
            assert forward == pytest.approx(aligned_jsd(dq, dp), abs=1e-12)
            assert aligned_jsd(dp, dp) == 0.0
            if not np.allclose(p, q):
                assert forward > 0.0
