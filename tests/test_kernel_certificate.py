"""The positive-definiteness check of similarity kernels.

A cosine kernel carries a bound on its rounding error, and when that bound
proves that Cholesky of kernel + jitter*I would succeed, build_kernel skips
the factorization.  These tests pin the outcomes the factorization gives,
check that the certificate never accepts a kernel the factorization would
reject, and check that every kernel build_kernel returns is exactly
symmetric and bit-equal to its dense form.
"""

import contextlib

import numpy as np
import pytest

from submodsum.data import GroundSet, SimilarityKernel, build_kernel
from submodsum.errors import NumericError

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _feature_ground(feats):
    return GroundSet([f"i{k}" for k in range(len(feats))], feats)


def test_cosine_zero_jitter_with_more_items_than_dims_is_not_definite(rng):
    with pytest.raises(NumericError, match="positive definite"):
        build_kernel(_feature_ground(rng.normal(size=(30, 4))), [], jitter=0.0)


def test_cosine_negative_jitter_is_not_definite(rng):
    with pytest.raises(NumericError, match="positive definite"):
        build_kernel(_feature_ground(rng.normal(size=(30, 4))), [], jitter=-1e-6)


def test_nan_kernel_is_not_definite():
    # numpy factors a NaN entry into NaNs instead of raising LinAlgError
    kern = SimilarityKernel(np.array([[1.0, np.nan], [np.nan, 1.0]]), ("a", "b"), "rbf")
    with pytest.raises(NumericError, match="positive definite"):
        kern.check_positive_definite()


def test_cosine_duplicate_and_zero_rows_pass_at_default_jitter(rng):
    feats = rng.normal(size=(30, 4))
    feats[10:20] = feats[:10]
    feats[25:] = 0.0
    kern = build_kernel(_feature_ground(feats), [])
    np.linalg.cholesky(kern.matrix + kern.psd_jitter * np.eye(30))


def test_cosine_features_near_underflow_are_not_definite(rng):
    # squares of 1e-160 underflow, so the computed unit rows miss unit length
    # by ~1e-3 and the kernel has an eigenvalue near -1e-4, below -jitter
    with pytest.raises(NumericError, match="positive definite"):
        build_kernel(_feature_ground(rng.normal(size=(30, 4)) * 1e-160), [])


@contextlib.contextmanager
def _factorizations():
    """Shapes of the matrices handed to np.linalg.cholesky inside the block."""
    calls = []
    real = np.linalg.cholesky

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", spy)
        yield calls


def test_certificate_replaces_the_factorization_for_cosine_only(rng):
    ground = _feature_ground(rng.normal(size=(300, 16)))
    with _factorizations() as calls:
        build_kernel(ground, [])
    assert calls == []
    with _factorizations() as calls:
        build_kernel(ground, [], metric="rbf")
    assert calls == [(300, 300)]
    # a jitter below the certificate's floor falls back to the factorization
    with _factorizations() as calls:
        build_kernel(ground, [], jitter=1e-9)
    assert calls == [(300, 300)]
    # so does a check given no rounding bound on the entries
    kern = build_kernel(ground, [])
    with _factorizations() as calls:
        kern.check_positive_definite()
    assert calls == [(300, 300)]


def _dense(metric, feats, sigma=1.0):
    """Each metric's similarity matrix, formed as a whole from the full product."""
    if metric == "dot":
        return feats @ feats.T
    if metric == "rbf":
        sq = np.sum(feats**2, axis=1)
        return np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2 * (feats @ feats.T), 0.0) / (2 * sigma**2))
    norms = np.linalg.norm(feats, axis=1)
    zero = norms == 0
    unit = feats / np.where(zero, 1.0, norms)[:, None]
    sim = np.clip(unit @ unit.T, -1.0, 1.0)
    sim[zero, :] = 0.0
    sim[:, zero] = 0.0
    np.fill_diagonal(sim, 1.0)
    return sim


@pytest.mark.parametrize("metric", ["cosine", "rbf", "dot"])
def test_kernel_is_the_symmetrized_dense_form_bit_for_bit(rng, metric):
    for n in (1, 255, 256, 257, 2 * 256 + 37):
        feats = rng.normal(size=(n, 5))
        if metric == "cosine":
            feats[rng.integers(n, size=max(1, n // 50))] = 0.0
        mat = _dense(metric, feats)
        expect = (mat + mat.T) / 2.0
        kern = build_kernel(_feature_ground(feats), [], metric=metric).matrix
        assert np.array_equal(kern.view(np.int64), expect.view(np.int64)), (metric, n)
        assert np.array_equal(kern, kern.T)


def _check_certificate(seed, n, dim, copies, zeros, scale, spread, jitter):
    """Whenever the certificate skips the factorization, the factorization
    succeeds; every kernel returned is exactly symmetric and within [-1, 1]."""
    rng = np.random.default_rng(seed)
    # rows of unequal length, each scaled by a power of ten in [1e-160, 1e150]
    powers = np.clip(scale + rng.integers(-spread, spread + 1, size=(n, 1)), -160, 150)
    feats = rng.normal(size=(n, dim)) * 10.0**powers
    for _ in range(copies):
        feats[rng.integers(n)] = feats[rng.integers(n)]
    feats[rng.integers(n, size=zeros)] = 0.0
    with _factorizations() as calls:
        try:
            kern = build_kernel(_feature_ground(feats), [], jitter=jitter)
        except NumericError:
            assert calls, "only a factorization may reject a kernel"
            event("rejected")
            return
    event("factored" if calls else "certified")
    mat = kern.matrix
    assert np.array_equal(mat, mat.T)
    assert -1.0 <= mat.min() and mat.max() <= 1.0
    if not calls:
        np.linalg.cholesky(kern.matrix + jitter * np.eye(n))


JITTERS = st.one_of(st.sampled_from([0.0, 1e-6, -1e-6]),
                    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]),
                              st.floats(-16, -3)))


# no max_examples here: the loaded profile (tests/conftest.py) sets it
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.integers(1, 6),
       copies=st.integers(0, 10), zeros=st.integers(0, 3), scale=st.integers(-160, 150),
       spread=st.integers(0, 4), jitter=JITTERS)
def test_certified_cosine_kernel_factors(seed, n, dim, copies, zeros, scale, spread, jitter):
    _check_certificate(seed, n, dim, copies, zeros, scale, spread, jitter)


# kernels past one BLAS block: n around 256 and 512, where the product's
# blocking and its remainder rows change
@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.one_of(st.integers(250, 260), st.integers(508, 516)),
       dim=st.integers(1, 6), copies=st.integers(0, 10), zeros=st.integers(0, 3),
       scale=st.integers(-160, 150), spread=st.integers(0, 4), jitter=JITTERS)
def test_cosine_certificate_holds_on_large_kernels(seed, n, dim, copies, zeros, scale, spread, jitter):
    _check_certificate(seed, n, dim, copies, zeros, scale, spread, jitter)
