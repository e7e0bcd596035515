import random

import pytest

from convka import models
from convka.values import make_boolean, make_min_plus, make_nat_inf_conway


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture
def boolean():
    return make_boolean()


@pytest.fixture
def minplus():
    return make_min_plus()


@pytest.fixture
def natinf():
    return make_nat_inf_conway()


@pytest.fixture(scope="session")
def unary1200():
    """Words over one letter up to length 1200, shared by the long-element tests
    because its Moebius check alone takes about a second."""
    return models.free_monoid("a", 1200)


@pytest.fixture
def words3():
    return models.free_monoid("ab", 3)


@pytest.fixture
def words4():
    return models.free_monoid("ab", 4)


@pytest.fixture
def example_intervals():
    return models.interval_catoid(models.example_poset())


@pytest.fixture
def diamond_paths():
    return models.path_catoid(models.diamond_dag(), 4)
