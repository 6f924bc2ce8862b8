"""Synthetic domain families: geometry, seeding, splits, CSV round trip."""
from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from ptg.datasets import (
    INV_SEPARATION,
    SPUR_SEPARATION,
    DomainDataset,
    DomainSpec,
    _spurious_center,
    apply_stats,
    feature_stats,
    gen_rotated_moons,
    gen_spurious_blobs,
    load_dataset_csv,
    read_config,
    save_dataset_csv,
    split_train_val,
)


class TestDomainSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec("", 10)
        with pytest.raises(ValueError):
            DomainSpec("a", 0)
        with pytest.raises(ValueError):
            DomainSpec("a", 10, spurious_correlation=1.5)
        with pytest.raises(ValueError):
            DomainSpec("a", 10, noise_std=-0.1)

    def test_json_round_trip(self):
        s = DomainSpec("train_a", 500, spurious_correlation=-0.9, rotation_deg=15.0, noise_std=0.3)
        assert read_config(DomainSpec, asdict(s)) == s


class TestSpuriousBlobs:
    SPECS = [
        DomainSpec("a", 400, spurious_correlation=0.9, noise_std=0.0),
        DomainSpec("b", 400, spurious_correlation=-0.9, noise_std=0.0),
    ]

    def test_shapes_and_partition(self):
        ds = gen_spurious_blobs(self.SPECS, d_inv=5, d_spur=4, seed=0)
        assert [d.domain_id for d in ds] == ["a", "b"]
        for d in ds:
            assert d.x.shape == (400, 9)
            assert d.invariant_cols == (0, 1, 2, 3, 4)
            assert d.spurious_cols == (5, 6, 7, 8)
            assert set(np.unique(d.y)) <= {0, 1}

    def test_invariant_block_identical_across_domains(self):
        # noiseless rows sit exactly on the shared class centers
        ds = gen_spurious_blobs(self.SPECS, d_inv=3, d_spur=2, seed=1)
        centers = {}
        for d in ds:
            for label in (0, 1):
                rows = d.x[d.y == label][:, :3]
                assert np.all(rows == rows[0])
                centers.setdefault(label, rows[0])
                np.testing.assert_array_equal(rows[0], centers[label])
        np.testing.assert_array_equal(centers[0], -centers[1])
        np.testing.assert_allclose(np.linalg.norm(centers[1]), INV_SEPARATION, rtol=1e-12)

    def test_alignment_frequency_tracks_correlation(self):
        spec = DomainSpec("freq", 20_000, spurious_correlation=0.8, noise_std=0.0)
        (d,) = gen_spurious_blobs([spec], d_inv=2, d_spur=3, seed=2)
        center = _spurious_center("freq", 3)
        spur_sign = np.sign(d.x[:, 2:] @ center)
        label_sign = 2.0 * d.y - 1.0
        frac = float((spur_sign == label_sign).mean())
        # binomial SE at p = 0.9 over 20k draws is ~0.0021
        assert abs(frac - 0.9) < 0.01

    def test_extreme_correlations_are_deterministic(self):
        specs = [
            DomainSpec("pos", 300, spurious_correlation=1.0, noise_std=0.0),
            DomainSpec("neg", 300, spurious_correlation=-1.0, noise_std=0.0),
        ]
        pos, neg = gen_spurious_blobs(specs, d_inv=2, d_spur=2, seed=3)
        for d, expect in ((pos, 1.0), (neg, -1.0)):
            center = SPUR_SEPARATION * _spurious_center(d.domain_id, 2)
            label_sign = (2.0 * d.y - 1.0)[:, None]
            np.testing.assert_array_equal(d.x[:, 2:], expect * label_sign * center)

    def test_domain_stream_independent_of_list_order(self):
        fwd = gen_spurious_blobs(self.SPECS, d_inv=3, d_spur=3, seed=4)
        rev = gen_spurious_blobs(self.SPECS[::-1], d_inv=3, d_spur=3, seed=4)
        np.testing.assert_array_equal(fwd[0].x, rev[1].x)
        np.testing.assert_array_equal(fwd[0].y, rev[1].y)
        np.testing.assert_array_equal(fwd[1].x, rev[0].x)

    def test_seed_changes_data(self):
        a = gen_spurious_blobs(self.SPECS[:1], 3, 3, seed=0)[0]
        b = gen_spurious_blobs(self.SPECS[:1], 3, 3, seed=1)[0]
        assert not np.array_equal(a.x, b.x)

    def test_rejections(self):
        with pytest.raises(ValueError):
            gen_spurious_blobs([self.SPECS[0], self.SPECS[0]], 3, 3, seed=0)
        with pytest.raises(ValueError):
            gen_spurious_blobs(self.SPECS, 0, 3, seed=0)

    def test_one_spurious_column_gives_finite_data(self):
        # with d_spur = 1 the common and offset directions are both +-1, so the
        # orthogonal offset is exactly zero and every domain shares one center
        assert abs(_spurious_center("a", 1)[0]) == 1.0
        assert _spurious_center("a", 1)[0] == _spurious_center("b", 1)[0]
        for d in gen_spurious_blobs(self.SPECS, d_inv=2, d_spur=1, seed=0):
            assert d.x.shape == (400, 3) and np.isfinite(d.x).all()
            np.testing.assert_array_equal(np.abs(d.x[:, 2]), SPUR_SEPARATION)


class TestRotatedMoons:
    def test_noiseless_points_lie_on_arcs(self):
        spec = DomainSpec("m", 500, rotation_deg=0.0, noise_std=0.0)
        (d,) = gen_rotated_moons([spec], seed=0)
        on0 = d.x[d.y == 0]
        on1 = d.x[d.y == 1]
        np.testing.assert_allclose((on0**2).sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            (on1[:, 0] - 1.0) ** 2 + (on1[:, 1] - 0.5) ** 2, 1.0, rtol=1e-12
        )

    def test_rotation_is_a_plain_rotation(self):
        base = DomainSpec("m", 200, rotation_deg=0.0, noise_std=0.0)
        rot = DomainSpec("m", 200, rotation_deg=90.0, noise_std=0.0)
        (d0,) = gen_rotated_moons([base], seed=1)
        (d90,) = gen_rotated_moons([rot], seed=1)
        theta = np.deg2rad(90.0)
        mat = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        np.testing.assert_allclose(d90.x, d0.x @ mat.T, atol=1e-12)

    def test_full_turn_is_near_identity(self):
        base = DomainSpec("m", 200, rotation_deg=0.0, noise_std=0.0)
        turn = DomainSpec("m", 200, rotation_deg=360.0, noise_std=0.0)
        (d0,) = gen_rotated_moons([base], seed=2)
        (d360,) = gen_rotated_moons([turn], seed=2)
        assert np.abs(d360.x - d0.x).max() < 1e-9

    def test_all_columns_domain_varying(self):
        (d,) = gen_rotated_moons([DomainSpec("m", 50)], seed=0)
        assert d.invariant_cols == ()
        assert d.spurious_cols == (0, 1)

    def test_rejects_duplicate_domain_ids(self):
        with pytest.raises(ValueError, match="domain ids must be unique"):
            gen_rotated_moons([DomainSpec("m", 5), DomainSpec("m", 6)], seed=0)


class TestDomainDataset:
    @pytest.mark.parametrize("x, y", [
        (np.zeros(4), np.zeros(4)),            # x is not a matrix
        (np.zeros((4, 2)), np.zeros(3)),       # one label short
        (np.zeros((4, 2)), np.zeros((4, 1))),  # labels not a vector
    ])
    def test_rejects_a_shape_mismatch(self, x, y):
        with pytest.raises(ValueError, match=r"x must be \(n, d\) with one label per row"):
            DomainDataset("d", x, y, (0,), (1,))

    @pytest.mark.parametrize("inv, spur", [((0,), ()), ((0, 1), (1,)), ((0,), (2,))])
    def test_rejects_columns_that_do_not_partition_the_features(self, inv, spur):
        with pytest.raises(ValueError, match="must partition the features"):
            DomainDataset("d", np.zeros((3, 2)), np.zeros(3), inv, spur)

    def test_rejects_a_negative_label(self):
        with pytest.raises(ValueError, match="labels must be non-negative"):
            DomainDataset("d", np.zeros((3, 2)), np.array([0, -1, 1]), (0,), (1,))


class TestSplit:
    def make(self, n):
        rng = np.random.default_rng(0)
        return DomainDataset("d", rng.standard_normal((n, 4)), rng.integers(0, 2, n), (0, 1), (2, 3))

    def test_eighty_twenty_exact(self):
        tr, va = split_train_val(self.make(100), ratio=0.8, seed=0)
        assert tr.n_samples == 80
        assert va.n_samples == 20

    def test_ratio_floor(self):
        tr, va = split_train_val(self.make(7), ratio=0.8, seed=0)
        assert (tr.n_samples, va.n_samples) == (5, 2)

    def test_partition_preserves_rows(self):
        ds = self.make(60)
        tr, va = split_train_val(ds, seed=3)
        joined = np.concatenate([tr.x, va.x])
        assert joined.shape == ds.x.shape
        order = np.lexsort(joined.T)
        base = np.lexsort(ds.x.T)
        np.testing.assert_array_equal(joined[order], ds.x[base])

    def test_seed_determinism(self):
        ds = self.make(50)
        a = split_train_val(ds, seed=9)[0]
        b = split_train_val(ds, seed=9)[0]
        np.testing.assert_array_equal(a.x, b.x)
        c = split_train_val(ds, seed=10)[0]
        assert not np.array_equal(a.x, c.x)

    def test_rejections(self):
        with pytest.raises(ValueError):
            split_train_val(self.make(10), ratio=1.0)
        with pytest.raises(ValueError):
            split_train_val(self.make(1), ratio=0.5)


class TestStandardization:
    def test_stats_and_apply(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((500, 3)) * [2.0, 0.5, 7.0] + [1.0, -3.0, 0.0]
        mean, std = feature_stats(x)
        z = apply_stats(x, mean, std)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
        mean, std = feature_stats(x)
        assert std[0] == 1.0
        z = apply_stats(x, mean, std)
        np.testing.assert_array_equal(z[:, 0], 0.0)


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        (ds,) = gen_spurious_blobs(
            [DomainSpec("rt", 40, spurious_correlation=0.5)], d_inv=2, d_spur=2, seed=5
        )
        path = tmp_path / "rt.csv"
        save_dataset_csv(ds, path)
        assert (tmp_path / "rt.meta.json").exists()
        back = load_dataset_csv(path)
        assert back.domain_id == "rt"
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.invariant_cols == ds.invariant_cols
        assert back.spurious_cols == ds.spurious_cols

    def test_mismatched_domain_rejected(self, tmp_path):
        (ds,) = gen_spurious_blobs([DomainSpec("x", 5)], 2, 2, seed=0)
        path = tmp_path / "x.csv"
        save_dataset_csv(ds, path)
        sidecar = tmp_path / "x.meta.json"
        sidecar.write_text(sidecar.read_text().replace('"x"', '"y"', 1))
        with pytest.raises(ValueError):
            load_dataset_csv(path)
