from __future__ import annotations

import numpy as np
import pytest

from inclusafe import boundary_extract, build_modulus
from inclusafe import scenarios


@pytest.fixture(scope="session")
def example1():
    return scenarios.build("example1")


@pytest.fixture(scope="session")
def example2():
    return scenarios.build("example2")


@pytest.fixture(scope="session")
def linear_stable():
    return scenarios.build("linear-stable")


@pytest.fixture(scope="session")
def noisy_loop():
    return scenarios.build("noisy-loop")


@pytest.fixture()
def two_radii():
    """linear-stable's barrier under two pieces that hold everywhere, {-0.1}
    and {-1} + 0.5 B, with the unsafe set x1 > 1.02: the image is
    [-1.5, -0.1] at every x, so the barrier's rate is at most -0.1."""
    cfg = scenarios.builtin_config("linear-stable")
    cfg.update(name="two-radii", unsafe="x1 > 1.02", depth="x1 - 1.02", dynamics={"pieces": [
        {"when": "True", "image": {"kind": "constant", "points": [[-0.1]]}},
        {"when": "True", "image": {"kind": "constant", "points": [[-1.0]], "radius": 0.5}},
    ]})
    return cfg


@pytest.fixture(scope="session")
def lipschitz_2d():
    """A planar polyhedral-norm candidate without a gradient oracle under a
    contracting spiral: its finite-difference Clarke vertices at the kinks
    are general vectors."""
    norm = "abs(0.37*x1 + 0.11*x2) + abs(0.23*x1 - 0.61*x2)"
    cfg = scenarios.builtin_config("example2")
    cfg.update(
        name="abs-lipschitz-2d",
        box=[[-2.0, 2.0], [-2.0, 2.0]],
        resolution=[21, 21],
        barrier={"value": f"{norm} - 0.5", "smoothness": "lipschitz"},
        initial=f"{norm} <= 0.25",
        unsafe=f"{norm} >= 1",
        depth=f"{norm} - 0.5",
        tolerances={},
        dynamics={"pieces": [{"when": "True", "image": {
            "kind": "polynomial", "components": ["-x1 + 0.2*x2", "-0.2*x1 - x2"]}}]},
    )
    return scenarios.bundle_from_config(cfg)


@pytest.fixture(scope="session")
def partial_oracle():
    """The unit circle under a planar contraction, with a gradient oracle
    that vanishes where x1 < -0.5 and raises (``sqrt`` of a negative
    number) where x2 < -0.8 and x1 >= -0.5 on and inside the circle: some
    boundary representatives have no outward normal, most have one, and
    the outer collar has a gradient everywhere."""
    cfg = scenarios.builtin_config("example2")
    cfg.update(
        name="partial-oracle",
        box=[[-2.0, 2.0], [-2.0, 2.0]],
        resolution=[21, 21],
        barrier={"value": "x1*x1 + x2*x2 - 1", "smoothness": "C2", "gradient": [
            "0 if x1 < -0.5 else 2*x1",
            "0 if x1 < -0.5 else 2*x2 if x2 >= -0.8 else 2*x2 + 0*sqrt(x1*x1 + x2*x2 - 1.000001)"]},
        initial="x1*x1 + x2*x2 <= 0.25",
        unsafe="x1*x1 + x2*x2 >= 2.25",
        depth="x1*x1 + x2*x2 - 1",
        tolerances={},
        dynamics={"pieces": [{"when": "True", "image": {
            "kind": "polynomial", "components": ["-x1", "-x2"]}}]},
    )
    return scenarios.bundle_from_config(cfg)


@pytest.fixture(scope="session")
def example1_grid(example1):
    return boundary_extract(example1.scenario)


@pytest.fixture(scope="session")
def example2_grid(example2):
    return boundary_extract(example2.scenario)


@pytest.fixture(scope="session")
def linear_grid(linear_stable):
    return boundary_extract(linear_stable.scenario)


@pytest.fixture(scope="session")
def linear_modulus(linear_stable):
    return build_modulus(linear_stable.scenario.dynamics)


@pytest.fixture(scope="session")
def example2_modulus(example2):
    # the slow 2-D build; shared by every weighted-check test
    return build_modulus(example2.scenario.dynamics)


@pytest.fixture(scope="session")
def lipschitz_2d_modulus(lipschitz_2d):
    return build_modulus(lipschitz_2d.scenario.dynamics)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
