import pytest

from maassl import build_J, build_J_squared, quadrature, synth_harmonic


@pytest.fixture(scope="session")
def J():
    return build_J(40)


@pytest.fixture(scope="session")
def Jsq():
    return build_J_squared(40)


@pytest.fixture(scope="session")
def harm_k0():
    return synth_harmonic(0, {1: 0.5}, {-1: 1})


@pytest.fixture(scope="session")
def harm_km2():
    return synth_harmonic(-2, {1: 1}, {-1: 2 - 1j})


@pytest.fixture
def no_quadrature(monkeypatch):
    """Any quadrature raises: for a value that must come in closed form."""
    def forbidden(g, edges):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(quadrature, "_doubling", forbidden)
