import numpy as np
import pytest

from scatopt.pairs import (
    Block,
    DecisionPair,
    PairTransform,
    TransformedPair,
    canonical_transform,
)


class TestPairTransform:
    def test_canonical_mixes_equal_pair(self):
        tp = canonical_transform().apply(DecisionPair(1.0, 1.0))
        assert tp.c == pytest.approx(np.sqrt(2.0))
        assert tp.d == pytest.approx(0.0)

    def test_identity_transform(self):
        ident = PairTransform(1.0, 0.0, 0.0, 1.0)
        assert ident.apply(DecisionPair(3.0, -2.0)) == TransformedPair(3.0, -2.0)
        assert ident.invert(TransformedPair(5.0, 7.0)) == DecisionPair(5.0, 7.0)

    def test_canonical_single_unit(self):
        tp = canonical_transform().apply(DecisionPair(1.0, 0.0))
        assert tp.c == pytest.approx(0.70711, abs=1e-5)
        assert tp.d == pytest.approx(0.70711, abs=1e-5)

    def test_canonical_inverse_value(self):
        pair = canonical_transform().invert(TransformedPair(np.sqrt(2.0), 0.0))
        assert pair.a == pytest.approx(1.0, abs=1e-12)
        assert pair.b == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_random(self):
        M = canonical_transform()
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = DecisionPair(*rng.normal(size=2))
            q = M.invert(M.apply(p))
            assert q.a == pytest.approx(p.a, abs=1e-12)
            assert q.b == pytest.approx(p.b, abs=1e-12)

    def test_canonical_is_orthonormal_and_self_inverse(self):
        M = canonical_transform()
        assert M.is_orthonormal()
        MM = M.as_matrix() @ M.as_matrix()
        assert np.abs(MM - np.eye(2)).max() < 1e-12

    def test_norm_preservation(self):
        M = canonical_transform()
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=100), rng.normal(size=100)
        c, d = M.apply_many(a, b)
        np.testing.assert_allclose(c**2 + d**2, a**2 + b**2, rtol=1e-12)

    def test_invert_many_matches_scalar(self):
        M = canonical_transform()
        rng = np.random.default_rng(2)
        c, d = rng.normal(size=5), rng.normal(size=5)
        a, b = M.invert_many(c, d)
        for i in range(5):
            pair = M.invert(TransformedPair(c[i], d[i]))
            assert a[i] == pytest.approx(pair.a)
            assert b[i] == pytest.approx(pair.b)

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            PairTransform(1.0, 2.0, 2.0, 4.0)


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
