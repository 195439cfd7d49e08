"""The oracles themselves: naive implementations checked on closed forms."""

import math

import pytest

from ontoguard.oracles import jsd_oracle, partition_oracle, partition_oracle_files
from recounts import accuracy_recount, binomial_interval


class TestJsdOracle:
    def test_equal_distributions(self):
        assert jsd_oracle([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_point_masses(self):
        # Hand check: JSD((1,0),(0,1)) = 0.5*1*log2(2) + 0.5*1*log2(2) = 1.
        assert jsd_oracle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_permuted_uniform_is_zero(self):
        assert jsd_oracle([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_known_value(self):
        # Direct hand computation for (0.5, 0.5) vs (1, 0): m = (0.75, 0.25),
        # JSD = 0.5*(0.5*log2(2/3) + 0.5*log2(2)) + 0.5*(1*log2(4/3)).
        expected = 0.5 * (0.5 * math.log2(2 / 3) + 0.5 * math.log2(2.0)) \
            + 0.5 * math.log2(4 / 3)
        assert jsd_oracle([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)

    def test_non_normalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            jsd_oracle([0.5, 0.2], [0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            jsd_oracle([-0.5, 1.5], [0.5, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            jsd_oracle([1.0], [0.5, 0.5])


class TestPartitionOracle:
    def test_clean_partition(self):
        assert partition_oracle(["a", "b", "c"], ["a"], ["b"], ["c"])

    def test_missing_record_detected(self):
        assert not partition_oracle(["a", "b", "c"], ["a"], ["b"], [])

    def test_duplicated_record_detected(self):
        assert not partition_oracle(["a", "b"], ["a", "b"], ["b"], [])

    def test_empty_batch(self):
        assert partition_oracle([], [], [], [])

    def test_file_variant_detects_corruption(self, tmp_path):
        lines = ['{"record_id": "a"}', '{"record_id": "b"}', '{"record_id": "c"}']
        (tmp_path / "input.jsonl").write_text("\n".join(lines) + "\n")
        (tmp_path / "accepted.jsonl").write_text('{"record_id": "a"}\n')
        (tmp_path / "reconciled.jsonl").write_text('{"record": {"record_id": "b"}}\n')
        (tmp_path / "quarantine.jsonl").write_text('{"record": {"record_id": "c"}}\n')
        assert partition_oracle_files(
            tmp_path / "input.jsonl", tmp_path / "accepted.jsonl",
            tmp_path / "reconciled.jsonl", tmp_path / "quarantine.jsonl",
        )
        (tmp_path / "quarantine.jsonl").write_text("")
        assert not partition_oracle_files(
            tmp_path / "input.jsonl", tmp_path / "accepted.jsonl",
            tmp_path / "reconciled.jsonl", tmp_path / "quarantine.jsonl",
        )


class TestBinomialInterval:
    def test_contains_mean(self):
        lo, hi = binomial_interval(50000, 0.00094, 0.99)
        assert lo <= 47 <= hi
        assert lo > 0

    def test_degenerate_probabilities(self):
        assert binomial_interval(100, 0.0) == (0, 0)
        assert binomial_interval(100, 1.0) == (100, 100)

    def test_symmetric_case(self):
        lo, hi = binomial_interval(1000, 0.5, 0.99)
        assert lo < 500 < hi
        assert (500 - lo) == (hi - 500)

    def test_coverage_by_enumeration(self):
        # Recount the pmf mass inside the interval directly.
        n, p = 200, 0.1
        lo, hi = binomial_interval(n, p, 0.99)
        mass = sum(
            math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(lo, hi + 1)
        )
        assert mass >= 0.99 - 1e-9


def test_accuracy_recount():
    assert accuracy_recount([("a", "a"), ("b", "c")]) == 0.5
    assert accuracy_recount([]) == 0.0
