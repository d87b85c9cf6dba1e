"""Built-in scenario corpus and config-driven scenario construction.

Four systems exercise every verdict the checkers can produce:

``example1``      one-dimensional piecewise-constant inclusion that is safe,
                  stays safe under pure image inflation, and escapes once
                  the perturbation also enters the argument (the sensed
                  state crosses the switching interface before the true
                  state does).
``example2``      planar drift field that satisfies the unweighted uniform
                  condition with margin one on the whole strip yet admits
                  arbitrarily slow escapes starting far out on the x1 axis.
``linear-stable`` scalar contraction with perturbation margin exactly 1/2.
``noisy-loop``    the contraction wrapped in fixed sensing and actuation
                  noise below that margin, hence still safe.

Scenario configs are plain JSON-able dicts (the same shape the command line
loads from files); builders here return them fresh so callers may mutate.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .barrier import BarrierCandidate, SafetyScenario, Tolerances
from .flow import Hint, constant_policy, expression_policy
from .svmap import PerturbedSystem, SetValuedMap
from . import expressions

__all__ = [
    "BUILTIN",
    "ScenarioBundle",
    "builtin_config",
    "build",
    "bundle_from_config",
    "scenario_from_config",
    "hints_from_config",
]

BUILTIN = ("example1", "example2", "linear-stable", "noisy-loop")


def _example1_config() -> dict:
    return {
        "name": "example1",
        "dimension": 1,
        "box": [[-3.0, 1.0]],
        "resolution": [201],
        "barrier": {
            "value": "x1*(x1 + 2)",
            "gradient": ["2*x1 + 2"],
            "smoothness": "C2",
            "name": "parabola",
        },
        "initial": "(-2 <= x1) and (x1 <= 0)",
        "unsafe": "(x1 > 0) or (x1 < -2)",
        "depth": "max(x1, -2 - x1)",
        "dynamics": {
            "pieces": [
                {"when": "x1 <= 0", "image": {"kind": "constant", "points": [[2.0]]}, "label": "left"},
                {
                    "when": "x1 == 0",
                    "image": {"kind": "constant", "points": [[-1.0], [2.0]]},
                    "label": "interface",
                },
                {"when": "x1 >= 0", "image": {"kind": "constant", "points": [[-1.0]]}, "label": "right"},
            ]
        },
        "hints": [{"x0": [0.0], "velocity": ["1"], "label": "interface-escape"}],
    }


def _example2_config() -> dict:
    return {
        "name": "example2",
        "dimension": 2,
        "box": [[-10.0, 10.0], [-1.0, 1.0]],
        "resolution": [41, 21],
        "barrier": {
            "value": "x2",
            "gradient": ["0", "1"],
            "smoothness": "C2",
            "name": "height",
        },
        "initial": "x2 <= 0",
        "unsafe": "x2 > 0",
        "depth": "x2",
        # the nominal collar condition -1 + x1^2*x2 <= 0 only holds within
        # 1/x1^2 of the boundary; keep the collar under that on |x1| <= 10
        "tolerances": {"collar_width": 0.005},
        "dynamics": {
            "pieces": [
                {
                    "when": "True",
                    "image": {"kind": "polynomial", "components": ["0", "-1 + x1**2*x2"]},
                    "label": "drift",
                }
            ]
        },
    }


def _linear_stable_config() -> dict:
    return {
        "name": "linear-stable",
        "dimension": 1,
        "box": [[-2.0, 2.0]],
        "resolution": [81],
        "barrier": {
            "value": "x1 - 1",
            "gradient": ["1"],
            "smoothness": "C2",
            "name": "offset-line",
        },
        "initial": "x1 <= 0.5",
        "unsafe": "x1 > 1",
        "depth": "x1 - 1",
        "dynamics": {
            "pieces": [
                {
                    "when": "True",
                    "image": {"kind": "affine", "matrix": [[-1.0]], "offset": [0.0]},
                    "label": "contraction",
                }
            ]
        },
    }


def _noisy_loop_config() -> dict:
    cfg = _linear_stable_config()
    cfg["name"] = "noisy-loop"
    cfg["perturbation"] = {
        "margin": 0.1,
        "sense_margin": 0.05,
        "mode": "strong",
        "density": 9,
    }
    # a stable loop has nothing to find; keep the default search cheap
    cfg["falsify"] = {"starts": 24, "horizon": 2.0}
    return cfg


_BUILDERS = {
    "example1": _example1_config,
    "example2": _example2_config,
    "linear-stable": _linear_stable_config,
    "noisy-loop": _noisy_loop_config,
}

# short human-readable outcome notes, surfaced in report bundles
_EXPECTED = {
    "example1": {
        "nominal": "pass",
        "robust-strict": "fail at the switching interface",
        "image-perturbed": "safe for any constant margin",
        "strong-perturbed": "escapes for every margin; synthesized margin 0",
        "region-overlap": "closures of the initial and unsafe sets meet at"
        " {-2, 0}; separation-based guarantees do not apply",
    },
    "example2": {
        "uniform-plain": "margin 1 on the whole boundary strip",
        "strong-perturbed": "escapes from (1/sqrt(eps), 0)",
    },
    "linear-stable": {"strong-margin": "0.5"},
    "noisy-loop": {"own-noise": "safe (0.1 actuation / 0.05 sensing below margin 0.5)"},
}


def _example1_hints(eps: Optional[float]) -> list[Hint]:
    return [Hint(np.array([0.0]), constant_policy([1.0]), "interface-escape")]


def _example2_hints(eps: Optional[float]) -> list[Hint]:
    if eps is None or eps <= 0.0:
        return []
    x1 = 1.0 / math.sqrt(eps)
    policy = expression_policy(
        ["0", f"-1 + x1**2*(x2 + {eps!r}) + {eps!r}"], 2, name="sensing-offset"
    )
    return [Hint(np.array([x1, 0.0]), policy, "cone-escape")]


_HINT_BUILDERS = {
    "example1": _example1_hints,
    "example2": _example2_hints,
}


def builtin_config(name: str) -> dict:
    """Fresh config dict for a built-in scenario (safe to mutate)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; built-ins: {', '.join(BUILTIN)}") from None
    return builder()


def _check_lengths(cfg: dict, dim: int) -> None:
    """Raise ValueError, naming the field, for the first config vector whose
    length is not the dimension: box, resolution list, barrier gradient,
    piece points, matrix, offset and components, hint x0 and velocity, and
    boundary points.  A flat list of points is one point, as
    :class:`ConvexCompactSet` reads it."""

    def vector(path, v):
        k = len(v) if np.ndim(v) == 1 else None
        if k != dim:
            raise ValueError(f"{path}: {'not a vector' if k is None else f'{k} components'}, "
                             f"dimension {dim}")

    def points(path, vs):
        if all(np.ndim(v) == 0 for v in vs):
            return vector(path, vs)
        for j, v in enumerate(vs):
            vector(f"{path}/{j}", v)

    if len(cfg["box"]) != dim:
        raise ValueError(f"/box: {len(cfg['box'])} intervals, dimension {dim}")
    if isinstance(cfg["resolution"], list):
        vector("/resolution", cfg["resolution"])
    if cfg["barrier"].get("gradient") is not None:
        vector("/barrier/gradient", cfg["barrier"]["gradient"])
    for k, piece in enumerate(cfg["dynamics"]["pieces"]):
        path, img = f"/dynamics/pieces/{k}/image", piece["image"]
        if "points" in img:
            points(f"{path}/points", img["points"])
        if "matrix" in img:
            if len(img["matrix"]) != dim:
                raise ValueError(f"{path}/matrix: {len(img['matrix'])} rows, dimension {dim}")
            for j, row in enumerate(img["matrix"]):
                vector(f"{path}/matrix/{j}", row)
        for key in ("offset", "components"):
            if key in img:
                vector(f"{path}/{key}", img[key])
    for k, hint in enumerate(cfg.get("hints", ())):
        vector(f"/hints/{k}/x0", hint["x0"])
        vector(f"/hints/{k}/velocity", hint["velocity"])
    if cfg.get("boundary_points"):
        points("/boundary_points", cfg["boundary_points"])


def scenario_from_config(cfg: dict) -> SafetyScenario:
    """Construct a scenario from a config dict (shared with the CLI).

    Every vector in the config must have ``dimension`` components."""
    dim = int(cfg["dimension"])
    _check_lengths(cfg, dim)
    dynamics = SetValuedMap.from_config(dim, cfg["dynamics"]["pieces"])
    pert = cfg.get("perturbation")
    if pert:
        sense = pert.get("sense_margin")
        dynamics = PerturbedSystem(
            dynamics,
            margin=float(pert["margin"]),
            mode=pert.get("mode", "image"),
            density=int(pert.get("density", 9)),
            sense_margin=None if sense is None else float(sense),
        )
    bar = BarrierCandidate.from_config(cfg["barrier"], dim)
    tol = Tolerances(**cfg["tolerances"]) if cfg.get("tolerances") else None
    depth = expressions.scalar_fn(cfg["depth"], dim) if cfg.get("depth") else None
    bpts = np.asarray(cfg["boundary_points"], dtype=float) if cfg.get("boundary_points") else None
    scenario = SafetyScenario(
        cfg.get("name", "custom"),
        dynamics,
        bar,
        expressions.predicate_fn(cfg["initial"], dim),
        expressions.predicate_fn(cfg["unsafe"], dim),
        cfg["box"],
        cfg["resolution"],
        tolerances=tol,
        depth=depth,
        boundary_points=bpts,
    )
    scenario.validate()
    return scenario


def hints_from_config(cfg: dict, dimension: int) -> list[Hint]:
    """Static hints declared in a config file (constant or expression velocity)."""
    out = []
    for h in cfg.get("hints", ()):
        policy = expression_policy(h["velocity"], dimension, name=h.get("label", "hint"))
        out.append(Hint(np.asarray(h["x0"], dtype=float), policy, h.get("label", "hint")))
    return out


@dataclass
class ScenarioBundle:
    """A scenario plus its config and hint source."""

    name: str
    scenario: SafetyScenario
    config: dict = field(repr=False)
    expected: dict = field(default_factory=dict)

    def hints(self, eps: Optional[float] = None) -> list[Hint]:
        """The builtin's hint builder while the config keeps its hints."""
        builder = _HINT_BUILDERS.get(self.name)
        if builder is not None and self.config.get("hints") == builtin_config(self.name).get("hints"):
            dynamic = builder(eps)
            if dynamic:
                return dynamic
        return hints_from_config(self.config, self.scenario.dimension)


def bundle_from_config(cfg: dict) -> ScenarioBundle:
    scenario = scenario_from_config(cfg)
    return ScenarioBundle(
        name=scenario.name,
        scenario=scenario,
        config=copy.deepcopy(cfg),
        expected=dict(_EXPECTED.get(scenario.name, {})),
    )


def build(name: str, *, resolution=None, box=None) -> ScenarioBundle:
    """Built-in scenario by name, optionally overriding grid or domain."""
    cfg = builtin_config(name)
    if resolution is not None:
        res = np.broadcast_to(np.asarray(resolution, dtype=int), (int(cfg["dimension"]),))
        cfg["resolution"] = [int(r) for r in res]
    if box is not None:
        cfg["box"] = [[float(lo), float(hi)] for lo, hi in box]
    return bundle_from_config(cfg)
