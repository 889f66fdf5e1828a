from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from weightbounds.codes import read_generator_file
from weightbounds.corpus import DEFAULT_SELFTEST_SEED, random_corpus

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def corpus1000():
    """The seeded 1000-code corpus shared by the property and acceptance suites."""
    return list(random_corpus(1000, DEFAULT_SELFTEST_SEED))


def fixture_code(name):
    """The code in fixtures/<name>.gen, the one home of the paper's named codes."""
    return read_generator_file(FIXTURES / f"{name}.gen")


def ratio_rows(q):
    """Rows of the [q+1, 2, q]_q code attaining (q+1)*d = q*n: all ones then a
    zero, and every field element in encoding order then a one."""
    return ((1,) * q + (0,), tuple(range(q)) + (1,))
