import numpy as np
import pytest

from scatopt.pairs import Block, PairTransform


class TestPairTransform:
    # the canonical transform is its own inverse, so invert_many also
    # applies the forward mixing (a, b) -> (c, d)

    def test_canonical_mixes_equal_pair(self):
        c, d = PairTransform().invert_many(1.0, 1.0)
        assert c == pytest.approx(np.sqrt(2.0))
        assert d == pytest.approx(0.0)

    def test_canonical_single_unit(self):
        c, d = PairTransform().invert_many(1.0, 0.0)
        assert c == pytest.approx(0.70711, abs=1e-5)
        assert d == pytest.approx(0.70711, abs=1e-5)

    def test_canonical_inverse_value(self):
        a, b = PairTransform().invert_many(np.sqrt(2.0), 0.0)
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_random(self):
        M = PairTransform()
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 100))
        qa, qb = M.invert_many(*M.invert_many(a, b))
        np.testing.assert_allclose(qa, a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(qb, b, rtol=0, atol=1e-12)

    def test_canonical_is_orthonormal_and_self_inverse(self):
        M = PairTransform()
        # columns of the inverse are the images of the unit pairs
        inv = np.column_stack([M.invert_many(1.0, 0.0), M.invert_many(0.0, 1.0)])
        assert np.abs(inv.T @ inv - np.eye(2)).max() < 1e-12
        assert np.abs(inv @ inv - np.eye(2)).max() < 1e-12
        assert np.abs(inv - np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)).max() < 1e-12

    def test_norm_preservation(self):
        M = PairTransform()
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=100), rng.normal(size=100)
        c, d = M.invert_many(a, b)
        np.testing.assert_allclose(c**2 + d**2, a**2 + b**2, rtol=1e-12)

    def test_invert_many_matches_scalar(self):
        M = PairTransform()
        rng = np.random.default_rng(2)
        c, d = rng.normal(size=5), rng.normal(size=5)
        a, b = M.invert_many(c, d)
        for i in range(5):
            ai, bi = M.invert_many(c[i], d[i])
            assert a[i] == ai
            assert b[i] == bi


class TestBlock:
    def test_slice_and_stop(self):
        b = Block(3, 4)
        assert b.stop == 7
        assert b.slice == slice(3, 7)

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            Block(-1, 2)
        with pytest.raises(ValueError):
            Block(0, 0)
