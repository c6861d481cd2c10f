"""The suite's own warning and thread policy, which every way of running it shares.

``pyproject.toml`` makes a RuntimeWarning and every DeprecationWarning an
error, but libcst's ``mypy_extensions.TypedDict is deprecated``;
``tests/conftest.py`` sets one BLAS/OpenMP thread before numpy is imported.
"""

import os
import warnings

import pytest

import conftest

LIBCST_MESSAGE = (
    "mypy_extensions.TypedDict is deprecated, and will be removed in a future version. "
    "Use typing.TypedDict or typing_extensions.TypedDict instead."
)


def test_runtime_and_deprecation_warnings_are_errors_but_libcsts():
    with pytest.raises(RuntimeWarning):
        warnings.warn("overflow encountered in exp", RuntimeWarning)
    with pytest.raises(DeprecationWarning):
        warnings.warn("this call is deprecated", DeprecationWarning)
    warnings.warn(LIBCST_MESSAGE, DeprecationWarning)


def test_the_thread_count_is_set_before_numpy_is_imported():
    assert not conftest.NUMPY_IMPORTED_FIRST
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(name), name
