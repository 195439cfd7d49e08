"""Divergence kernel: agrees with the independent oracle, row-wise and scalar."""

import numpy as np
import pytest

from ontoguard import kernels
from ontoguard.oracles import jsd_oracle


def random_pair(rng, dim):
    p = rng.random(dim)
    q = rng.random(dim)
    return p / p.sum(), q / q.sum()


def test_disjoint_point_masses_give_one():
    assert kernels.jsd_base2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_identical_distributions_give_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert kernels.jsd_base2(p, p.copy()) == 0.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        kernels.jsd_base2(np.array([1.0]), np.array([0.5, 0.5]))


def test_kernel_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q = random_pair(rng, int(rng.integers(2, 50)))
        assert abs(kernels.jsd_base2(p, q) - jsd_oracle(list(p), list(q))) < 1e-12
        rows = kernels.jsd_rows(np.stack([p, q]), np.stack([q, p]))
        assert rows[0] == kernels.jsd_base2(p, q)
        assert rows[1] == kernels.jsd_base2(q, p)


def test_row_kernel_matches_scalar_kernel():
    rng = np.random.default_rng(11)
    ps = rng.random((50, 16))
    qs = rng.random((50, 16))
    ps /= ps.sum(axis=1, keepdims=True)
    qs /= qs.sum(axis=1, keepdims=True)
    rows = kernels.jsd_rows(ps, qs)
    for i in range(50):
        assert abs(rows[i] - kernels.jsd_base2(ps[i], qs[i])) < 1e-12


def test_results_clamped_to_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p, q = random_pair(rng, 8)
        value = kernels.jsd_base2(p, q)
        assert 0.0 <= value <= 1.0
