"""Command lists, generated configs and the outcome oracle of the benchmark.

Each workload is a fixed list of ``inclusafe.cli.run`` commands over configs
generated from the builtin scenarios.  The workload seed reaches the program
only through ``run(seed=...)`` and the configs' ``falsify.seed``.  Every
command carries the outcome the README and the acceptance criteria document,
and :func:`check` compares a returned bundle with it.
"""
from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from inclusafe import scenarios


def _box_edge_margin() -> float:
    """example2's synthesized margin: the box edge |x1| = 10 sets it as the
    root of (10 + eps)^2 * eps + eps = 1, found here by bisection."""
    lo, hi = 1e-6, 0.1
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if (10.0 + mid) ** 2 * mid + mid < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class Command:
    """One timed ``cli.run`` call and the outcome it must produce.

    ``role`` says which end-to-end metric the command feeds: "find" and
    "exhaust" falsifications, "verify", "margin" or "modulus".
    ``known_defect`` names an open program defect that makes the command
    miss its documented outcome; the miss still counts as a failed
    operation, but does not make the run incorrect.
    """

    label: str
    command: str
    scenario: str
    role: str
    expect: dict
    overrides: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    known_defect: Optional[str] = None


def _falsify(scenario, role, expect, *, starts, horizon, known_defect=None, **flags):
    tag = ",".join(f"{k}={v}" for k, v in flags.items()) or "native"
    return Command(
        label=f"falsify {scenario} {tag}",
        command="falsify",
        scenario=scenario,
        role=role,
        expect=expect,
        overrides={"falsify": {"starts": starts, "horizon": horizon}},
        flags=flags,
        known_defect=known_defect,
    )


def _exhaust(scenario, starts, hints, **kw):
    # hinted starts run one pinned policy, sampled starts both default ones
    tried = hints + 2 * (starts - hints)
    return _falsify(scenario, "exhaust", {"exit": 0, "found": False, "tried": tried},
                    starts=starts, **kw)


def _grid(command, scenario, resolution, role, expect, **flags):
    tag = "x".join(str(r) for r in resolution)
    extra = "".join(f" {k}={v}" for k, v in flags.items())
    return Command(
        label=f"{command} {scenario} {tag}{extra}",
        command=command,
        scenario=scenario,
        role=role,
        expect=expect,
        overrides={"resolution": list(resolution)},
        flags=flags,
    )


def _modulus(scenario, log_step=None):
    overrides = {"modulus": {"log_step": log_step}} if log_step else {}
    return Command(
        label=f"modulus {scenario}",
        command="modulus",
        scenario=scenario,
        role="modulus",
        expect={"exit": 0, "modulus_verified": True},
        overrides=overrides,
    )


_ESCAPE_DEFECT = (
    "the falsifier's exit threshold (1.11) exceeds the deepest excursion the "
    "box allows (1.0), so the hinted escape is reported as not found"
)

WORKLOADS: dict[str, list[Command]] = {
    # Euler steps through strong lattice images: safe scenarios that must
    # exhaust their budget, plus early-exit escapes (time to witness).
    "falsify-search": [
        _exhaust("linear-stable", 2, 0, horizon=1.0, eps=0.1, mode="strong"),
        _exhaust("noisy-loop", 2, 0, horizon=1.0),
        _exhaust("example1", 3, 1, horizon=1.0, eps=1.0, mode="image"),
        *[
            _falsify("example1", "find", {"exit": 1, "found": True, "start": [0.0]},
                     starts=3, horizon=1.0, eps=eps, mode="strong")
            for eps in (0.5, 0.1, 0.01)
        ],
        *[
            _falsify("example2", "find",
                     {"exit": 1, "found": True, "start": [1.0 / math.sqrt(eps), 0.0]},
                     starts=1, horizon=0.5, eps=eps, mode="strong",
                     known_defect=_ESCAPE_DEFECT if eps == 0.1 else None)
            for eps in (0.04, 0.1)
        ],
    ],
    # Boundary extraction, every applicable check and per-cell margin
    # bisection; never integrates and never builds a modulus.
    "certify-grid": [
        *[
            cmd
            for res in ((61, 21), (81, 41))
            for cmd in (
                _grid("verify", "example2", res, "verify",
                      {"exit": 0, "all_pass": True, "uniform_plain": 1.0}),
                _grid("margin", "example2", res, "margin",
                      {"exit": 0, "eps_star": _box_edge_margin(), "eps_rtol": 0.01}),
            )
        ],
        _grid("verify", "example2", (41, 21), "verify",
              {"exit": 1, "fail_with_witness": True}, eps=0.05),
        _grid("verify", "example1", (2001,), "verify",
              {"exit": 1, "fail_with_witness": True, "robust_strict_witness": [0.0]}),
        _grid("margin", "example1", (2001,), "margin", {"exit": 1, "eps_star": 0.0}),
        _grid("verify", "linear-stable", (2001,), "verify", {"exit": 0, "all_pass": True}),
        _grid("margin", "linear-stable", (2001,), "margin",
              {"exit": 0, "eps_star": 0.5, "eps_atol": 0.01}),
        _grid("verify", "noisy-loop", (2001,), "verify", {"exit": 0, "all_pass": True}),
        _grid("margin", "noisy-loop", (2001,), "margin",
              {"exit": 0, "eps_star": 0.5, "eps_atol": 0.01}),
    ],
    # Log-grid tabulation of argument-ball hulls and Hausdorff distances, on
    # grids with twice the default log step.
    "modulus-tables": [
        _modulus("example1", 1.0),
        _modulus("example2", 2.0),
        _modulus("linear-stable", 1.0),
        _modulus("noisy-loop", 1.0),
    ],
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def make_config(cmd: Command, seed: int) -> dict:
    """The config a command runs on: its builtin plus overrides and seed."""
    cfg = _merge(scenarios.builtin_config(cmd.scenario), cmd.overrides)
    if "falsify" in cfg:
        cfg["falsify"]["seed"] = seed
    return cfg


def write_configs(commands: list[Command], seed: int, directory: str) -> list[str]:
    """Write one JSON config per command; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, cmd in enumerate(commands):
        path = os.path.join(directory, f"config-{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(make_config(cmd, seed), fh, indent=2, sort_keys=True)
        paths.append(path)
    return paths


def digest(bundle: dict) -> str:
    """sha256 of a bundle without its timestamp, serialized as the CLI does."""
    body = {k: v for k, v in bundle.items() if k != "timestamp"}
    text = json.dumps(body, sort_keys=True, indent=2, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(cmd: Command, bundle: dict, code: int) -> list[str]:
    """Mismatches between a command's outcome and its documented truth."""
    e = cmd.expect
    bad = []
    if code != e["exit"]:
        bad.append(f"exit code {code}, expected {e['exit']}")
    fal = bundle.get("falsification") or {}
    if "found" in e and fal.get("found") is not e["found"]:
        bad.append(f"found={fal.get('found')}, expected {e['found']}")
    if "tried" in e and fal.get("tried") != e["tried"]:
        bad.append(f"tried={fal.get('tried')}, expected {e['tried']}")
    start = fal.get("start")
    if "start" in e and (start is None or len(start) != len(e["start"])
                         or any(abs(a - b) > 1e-12 for a, b in zip(start, e["start"]))):
        bad.append(f"start={fal.get('start')}, expected {e['start']}")
    checks = {c["check_id"]: c for c in bundle.get("checks") or []}
    if e.get("all_pass") and not (checks and all(c["verdict"] == "pass-numeric"
                                                 for c in checks.values())):
        bad.append("a check did not pass: "
                   + ", ".join(f"{k}={c['verdict']}" for k, c in checks.items()))
    if "uniform_plain" in e:
        m = (checks.get("uniform-plain") or {}).get("margin")
        if m is None or abs(m - e["uniform_plain"]) > 1e-6:
            bad.append(f"uniform-plain margin {m}, expected {e['uniform_plain']} +- 1e-6")
    if e.get("fail_with_witness") and not any(
        c["verdict"] == "fail" and c["witness"] is not None for c in checks.values()
    ):
        bad.append("no failed check carries a witness")
    if "robust_strict_witness" in e:
        w = (checks.get("robust-strict") or {}).get("witness")
        if w != e["robust_strict_witness"]:
            bad.append(f"robust-strict witness {w}, expected {e['robust_strict_witness']}")
    if "eps_star" in e:
        got = (bundle.get("margin") or {}).get("eps_star")
        tol = e.get("eps_atol", 0.0) + e.get("eps_rtol", 0.0) * e["eps_star"]
        if got is None or abs(got - e["eps_star"]) > tol:
            bad.append(f"eps_star={got}, expected {e['eps_star']:.6g} +- {tol:.3g}")
    if e.get("modulus_verified"):
        ver = (bundle.get("modulus") or {}).get("verification") or {}
        if ver.get("passed") is not True:
            bad.append(f"modulus verification {ver.get('passed')}, min_slack {ver.get('min_slack')}")
    return bad
