from importlib.util import find_spec
from pathlib import Path

import pytest

from logrew import parse_presentation, system_from_presentation
from logrew.completion import logged_knuth_bendix
from logrew.endorewrites import generate

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"


def pytest_report_header(config):
    # found without importing it, and with no warning filter: none removes the traceback
    if find_spec("mypy_extensions") is not None:
        return ("mypy_extensions is installed: under -W error a failing Hypothesis test also "
                "prints an INTERNALERROR traceback (ROADMAP item 12)")


def load(name):
    return parse_presentation((PRESENTATIONS / name).read_text())


@pytest.fixture(scope="session")
def se_presentation():
    return load("se_monoid.txt")


@pytest.fixture(scope="session")
def se_init(se_presentation):
    return system_from_presentation(se_presentation)


@pytest.fixture(scope="session")
def se_completion(se_init):
    return logged_knuth_bendix(se_init)


@pytest.fixture(scope="session")
def se_system(se_completion):
    return se_completion.system


@pytest.fixture(scope="session")
def se_rules(se_system):
    return se_system.rule_map


@pytest.fixture(scope="session")
def se_generators(se_completion, se_init):
    return generate(se_completion, se_init)


@pytest.fixture(scope="session")
def ab_presentation():
    return load("ab_monoid.txt")


@pytest.fixture(scope="session")
def ab_init(ab_presentation):
    return system_from_presentation(ab_presentation)


@pytest.fixture(scope="session")
def ab_completion(ab_init):
    return logged_knuth_bendix(ab_init)


@pytest.fixture(scope="session")
def abc_completion():
    return logged_knuth_bendix(system_from_presentation(load("abc_cyclic.txt")))


@pytest.fixture(scope="session")
def free_presentation():
    return load("free_monoid.txt")
