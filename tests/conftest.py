from pathlib import Path

import pytest

from cwsense import pool


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(__file__).parent / "data"


@pytest.fixture
def two_blas_threads():
    """The OpenBLAS thread count at 2 for the test, so that 1 inside the
    pool's units is told apart from the caller's count; the count before
    the test is set back after.  Yields the count's getter."""
    if pool._blas_threads() is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread API")
    get, put = pool._blas_threads()
    before = get()
    put(2)
    yield get
    put(before)
