import random

import pytest
from hypothesis import HealthCheck, settings

from hedcex.counterexample import build_counterexample, params_for, verify_counterexample
from hedcex.families import omega_tuples
from hedcex.graphs import new_graph

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_graph(rng: random.Random, n: int, p: float, label: str | None = None):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return new_graph(n, edges, label)


@pytest.fixture(scope="session")
def omega63():
    return omega_tuples(6, 3)


@pytest.fixture(scope="session")
def omega82():
    return omega_tuples(8, 2)


@pytest.fixture(scope="session")
def c5_report():
    return verify_counterexample(params_for("c5_refined"))


@pytest.fixture(scope="session")
def c7_report():
    return verify_counterexample(params_for("c7"))


@pytest.fixture(scope="session")
def c5_wide_build():
    return build_counterexample(params_for("c5_wide"))
