import numpy as np
import pytest

from seedbank.streams import as_rng, mean_stderr, substream


def test_substream_reproducible_and_distinct():
    a = substream(42, 1, 7).standard_normal(8)
    b = substream(42, 1, 7).standard_normal(8)
    assert np.array_equal(a, b)
    c = substream(42, 1, 8).standard_normal(8)
    d = substream(43, 1, 7).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substream_key_validation():
    with pytest.raises(ValueError):
        substream(1, -1)
    with pytest.raises(ValueError):
        substream(1, 2**32)


def test_as_rng_passthrough():
    rng = np.random.default_rng(5)
    assert as_rng(rng) is rng
    assert isinstance(as_rng(7), np.random.Generator)
    x = as_rng(7).random()
    assert as_rng(7).random() == x


def test_mean_stderr():
    mean, se = mean_stderr([1, 2, 3, 4])
    assert mean == 2.5 and se == float(np.std([1.0, 2.0, 3.0, 4.0], ddof=1) / 2.0)
    assert mean_stderr(np.array([7])) == (7.0, 0.0)
