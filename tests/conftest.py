import random
import sys

import pytest
from hypothesis import HealthCheck, settings

from hedcex.counterexample import params_for, verify_counterexample
from hedcex.families import omega_tuples
from hedcex.graphs import new_graph

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_graph(rng: random.Random, n: int, p: float):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return new_graph(n, edges)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` rebinds each named function of
    ``module`` in every hedcex module that binds it, so a call through any
    path is counted; returns the name -> calls dict."""

    def install(module, *names):
        calls = dict.fromkeys(names, 0)

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        modules = [mod for key, mod in sys.modules.items() if key.startswith("hedcex")]
        for name in names:
            inner = getattr(module, name)
            wrapper = counted(name, inner)
            for mod in modules:
                if getattr(mod, name, None) is inner:
                    monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install


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
def c5_wide_report():
    return verify_counterexample(params_for("c5_wide"))


@pytest.fixture(scope="session")
def c5_wide_build(c5_wide_report):
    return c5_wide_report.build
