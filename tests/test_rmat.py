"""Tests for the Graph500 RMAT generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.rmat import degree_skew, rmat_edges, rmat_edges_unique


class TestRmatEdges:
    def test_shape_and_dtype(self):
        edges = rmat_edges(8, 1000, seed=1)
        assert edges.shape == (1000, 2)
        assert edges.dtype == np.int64

    def test_ids_within_vertex_space(self):
        edges = rmat_edges(6, 5000, seed=2)
        assert edges.min() >= 0
        assert edges.max() < 2**6

    def test_deterministic_per_seed(self):
        a = rmat_edges(8, 500, seed=7)
        b = rmat_edges(8, 500, seed=7)
        assert (a == b).all()

    def test_seeds_differ(self):
        a = rmat_edges(8, 500, seed=7)
        b = rmat_edges(8, 500, seed=8)
        assert not (a == b).all()

    def test_skewed_degrees(self):
        """RMAT with Graph500 params must be hub-heavy, not uniform."""
        skew_rmat = degree_skew(rmat_edges(12, 30000, seed=3))
        uniform = np.column_stack([
            np.random.default_rng(3).integers(0, 2**12, 30000),
            np.random.default_rng(4).integers(0, 2**12, 30000),
        ])
        assert skew_rmat > 3 * degree_skew(uniform)

    def test_zero_edges(self):
        assert rmat_edges(5, 0).shape == (0, 2)

    @pytest.mark.parametrize("scale", [0, -1, 63])
    def test_bad_scale(self, scale):
        with pytest.raises(WorkloadError):
            rmat_edges(scale, 10)

    def test_bad_probabilities(self):
        with pytest.raises(WorkloadError):
            rmat_edges(5, 10, a=0.9, b=0.2, c=0.2, d=0.2)
        with pytest.raises(WorkloadError):
            rmat_edges(5, 10, a=-0.1, b=0.5, c=0.3, d=0.3)

    def test_negative_edge_count(self):
        with pytest.raises(WorkloadError):
            rmat_edges(5, -1)

    def test_quadrant_probabilities_respected(self):
        """With a=1-eps the mass concentrates in the low-id quadrant."""
        edges = rmat_edges(10, 20000, a=0.97, b=0.01, c=0.01, d=0.01,
                           seed=5, noise=0.0)
        frac_low = ((edges[:, 0] < 2**9) & (edges[:, 1] < 2**9)).mean()
        assert frac_low > 0.8


class TestRmatUnique:
    def test_no_duplicates_no_self_loops(self):
        edges = rmat_edges_unique(9, 4000, seed=11)
        assert edges.shape == (4000, 2)
        keys = (edges[:, 0] << 9) | edges[:, 1]
        assert np.unique(keys).shape[0] == 4000
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_deterministic(self):
        a = rmat_edges_unique(8, 1000, seed=3)
        b = rmat_edges_unique(8, 1000, seed=3)
        assert (a == b).all()

    def test_impossible_density_raises(self):
        with pytest.raises(WorkloadError):
            # 2^3=8 vertices cannot host 1000 distinct edges
            rmat_edges_unique(3, 1000, seed=1, max_rounds=4)


@settings(max_examples=20, deadline=None)
@given(scale=st.integers(min_value=5, max_value=12),
       n=st.integers(min_value=1, max_value=2000),
       seed=st.integers(min_value=0, max_value=1000))
def test_rmat_unique_properties(scale, n, seed):
    n = min(n, (2**scale) * (2**scale) // 16)
    edges = rmat_edges_unique(scale, n, seed=seed)
    assert edges.shape == (n, 2)
    assert edges.min() >= 0 if n else True
    keys = (edges[:, 0].astype(np.int64) << scale) | edges[:, 1]
    assert np.unique(keys).shape[0] == n


def loop_rmat(scale, n_edges, a=0.57, b=0.19, c=0.19, d=0.05, seed=0, noise=0.1):
    """The generator as it was written before the single-buffer form:
    two bit masks per level added into int64 ids.  The reference the
    quadrant-index form must reproduce edge for edge."""
    probs = np.array([a, b, c, d], dtype=np.float64)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for level in range(scale):
        if noise:
            jitter = 1.0 + noise * (rng.random(4) - 0.5)
            pa, pb, pc, pd = probs * jitter / (probs * jitter).sum()
        else:
            pa, pb, pc, pd = probs
        u = rng.random(n_edges)
        src_bit = u >= (pa + pb)
        dst_bit = (u >= pa) & (u < pa + pb) | (u >= pa + pb + pc)
        bit = np.int64(1) << np.int64(scale - 1 - level)
        src += bit * src_bit
        dst += bit * dst_bit
    return np.column_stack([src, dst])


class TestAgainstTheLoop:
    @pytest.mark.parametrize("scale, n_edges, kwargs", [
        (1, 5000, {}),
        (62, 5000, {}),
        (15, 0, {}),
        (15, 20000, {"noise": 0.0}),
        (8, 3000, {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "noise": 0.0}),
        (33, 2000, {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_edges(self, scale, n_edges, kwargs, seed):
        got = rmat_edges(scale, n_edges, seed=seed, **kwargs)
        want = loop_rmat(scale, n_edges, seed=seed, **kwargs)
        assert got.dtype == np.int64 and got.shape == (n_edges, 2)
        assert np.array_equal(got, want)

    def test_passed_in_generator_advances_alike(self):
        mine, ref = np.random.default_rng(11), np.random.default_rng(11)
        for scale in (5, 16, 40):
            assert np.array_equal(rmat_edges(scale, 1000, seed=mine),
                                  loop_rmat(scale, 1000, seed=ref))
        assert mine.random() == ref.random()
