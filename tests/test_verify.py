import pytest

import lpns.spectral
import lpns.verify
from lpns.errors import ConfigurationError
from lpns.verify import (
    bernstein_suite,
    lemma1_suite,
    partition_suite,
    riccati_suite,
    run_suite,
    tensor_suite,
)


def _all_pass(results):
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_random_field_generator_lives_in_spectral():
    assert lpns.verify.random_solenoidal_field is lpns.spectral.random_solenoidal_field


def test_partition_suite():
    _all_pass(partition_suite(16))


def test_tensor_suite_small():
    _all_pass(tensor_suite(seed=3, n=16, n_fields=1))


def test_tensor_suite_rejects_large_grid():
    with pytest.raises(ConfigurationError):
        tensor_suite(seed=0, n=32)


def test_lemma1_suite():
    _all_pass(lemma1_suite(seed=0, n=16, n_fields=5))


def test_bernstein_suite():
    _all_pass(bernstein_suite(seed=0, n=16, n_fields=6))


def test_riccati_suite():
    _all_pass(riccati_suite(seed=0, n=16))


def test_run_suite_dispatch():
    _all_pass(run_suite("partition", n=16))
    with pytest.raises(ConfigurationError):
        run_suite("nope")
