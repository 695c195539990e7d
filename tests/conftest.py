"""Shared fixtures: minimal scenarios and expression strategies."""

from __future__ import annotations

import numpy as np
import pytest

from pdegensol.expr_core import Env
from pdegensol.numeric import polynomial


class StubScenario:
    """Bare scenario: the three attributes the engine reads (parameters,
    functions, base_points), plus the variables test_engine's _jet helper
    reads."""

    def __init__(self, variables, parameters=None, functions=None,
                 base_points=None):
        self.variables = tuple(variables)
        self.parameters = dict(parameters or {})
        self.functions = dict(functions or {})
        self.base_points = dict(base_points or {})


@pytest.fixture
def scn_x():
    return StubScenario(("x",), base_points={"p0": 0.0})


@pytest.fixture
def scn_tx():
    return StubScenario(("t", "x"), base_points={"p0": 0.0, "p1": 0.0})


@pytest.fixture
def env_x():
    return Env(variables=("x",))


@pytest.fixture
def env_tx():
    return Env(variables=("t", "x"), parameters=("a", "b"),
               functions={"F": 1, "G": 1})


def mk_poly1(name, cmap, **kw):
    return polynomial(name, 1, {(k,): v for k, v in cmap.items()}, **kw)


def central_diff(f, x, h, order=1):
    """Plain central differences; independent route for derivative checks."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    if order == 3:
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h)
                - f(x - 2 * h)) / (2 * h**3)
    raise ValueError(order)


def richardson(est_h, est_h2):
    """Eliminate the O(h^2) error of a central difference."""
    return (4.0 * est_h2 - est_h) / 3.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
