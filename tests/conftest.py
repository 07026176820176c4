import pytest

from finsite.fields import PrimeField, RationalField
from finsite.gallery import (chain_poset, cyclic_group, group_category,
                             idempotent_pair_category, involution_category,
                             orbit_category, reduced_p_orbit_category,
                             split_idempotent_category, symmetric_group)

from oracles import pure_yaml


@pytest.fixture(scope="session")
def chain3():
    return chain_poset(3)


@pytest.fixture(scope="session")
def involution():
    return involution_category()


@pytest.fixture(scope="session")
def c2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def group_c2(c2):
    return group_category(c2)


@pytest.fixture(scope="session")
def orbit_c2(c2):
    return orbit_category(c2)


@pytest.fixture(scope="session")
def orbit3_s3(s3):
    return reduced_p_orbit_category(s3, 3)


@pytest.fixture(scope="session")
def f2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def f5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def rationals():
    return RationalField()


@pytest.fixture
def pure_yaml_backend():
    """finsite.serialize on PyYAML's pure-Python classes for one test."""
    with pure_yaml():
        yield
