import pytest

from okc import _blas


@pytest.fixture
def numpy_blas(monkeypatch):
    """Run the test with every ``okc._blas`` primitive on its NumPy fallback."""
    for name, fallback in _blas.FALLBACKS.items():
        monkeypatch.setattr(_blas, name, fallback)
