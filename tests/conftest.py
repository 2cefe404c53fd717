import pytest

from qrdyn.global_map import build_maps


@pytest.fixture(scope="session")
def build():
    """One full construction shared by the whole suite."""
    return build_maps()


@pytest.fixture(scope="session")
def gmap(build):
    return build.g


@pytest.fixture(scope="session")
def fmap(build):
    return build.f
