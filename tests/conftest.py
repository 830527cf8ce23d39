import pytest

from quiverlab import build_quiver, positive_roots, quiver, standard_quiver


def _clear_memos():
    for memo in quiver._MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold():
    """Every memo of the package cleared; calling the value clears them again."""
    _clear_memos()
    return _clear_memos


@pytest.fixture(scope="session")
def a2():
    return standard_quiver("A", 2)


@pytest.fixture(scope="session")
def a3():
    return standard_quiver("A", 3)


@pytest.fixture(scope="session")
def d4():
    return standard_quiver("D", 4)


@pytest.fixture(scope="session")
def t2(a2):
    return positive_roots(a2)


@pytest.fixture(scope="session")
def t3(a3):
    return positive_roots(a3)


@pytest.fixture(scope="session")
def t4(d4):
    return positive_roots(d4)


@pytest.fixture(scope="session")
def zigzag_a4():
    return positive_roots(build_quiver("A", 4, [(2, 1), (2, 3), (4, 3)]))


@pytest.fixture(scope="session")
def sink_d4():
    return positive_roots(build_quiver("D", 4, [(1, 2), (3, 2), (4, 2)]))


@pytest.fixture(scope="session")
def e6():
    return positive_roots(standard_quiver("E", 6))
