"""Suite-wide set-up: every test runs with numpy's OpenBLAS on one thread, as
the CLI does, so in-process training computes the same bits as `logicrl
train` whatever OPENBLAS_NUM_THREADS or the core count is."""
import pytest

from logicrl import cli


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    with cli._one_blas_thread():
        yield
