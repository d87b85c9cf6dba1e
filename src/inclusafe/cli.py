"""Command-line front end: load a scenario, run checks, emit a report bundle.

Usage:  inclusafe COMMAND CONFIG [flags]

COMMAND is one of verify, falsify, margin, modulus, all.  CONFIG is a JSON
file or the name of a built-in scenario.  Reports are written as one JSON
bundle per invocation (sorted keys; the timestamp lives in its own field so
bundles from identical config + seed compare byte-identical without it),
plus columnar text files for any witness trajectories.

Exit codes: 0 all requested checks passed / nothing falsified; 1 a check
failed, was inconclusive, a witness was found, or no positive margin
exists; 2 configuration error, a barrier undefined on the grid and a
gradient oracle that raises where a check or the margin reads it included.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import __version__, checker, scenarios
from .barrier import SMOOTHNESS_TAGS, boundary_extract, candidate_check
from .checker import CANNOT_RUN, CHECKS, MARGIN_SMOOTHNESS, synthesize_margin
from .flow import FalsifyBudget, falsify
from .modulus import LOG_RANGE, build_modulus, log_grid_steps, verify_modulus
from .numerics import scale_box
from .svmap import unperturbed

__all__ = ["ConfigError", "load_config", "run", "main", "SCHEMA"]

COMMANDS = ("verify", "falsify", "margin", "modulus", "all")
CHECK_IDS = ("candidate-signs", *CHECKS)


class ConfigError(Exception):
    """Configuration problems that map to exit code 2."""


def _num(minimum=None, exclusive=None):
    out = {"type": "number"}
    if minimum is not None:
        out["minimum"] = minimum
    if exclusive is not None:
        out["exclusiveMinimum"] = exclusive
    return out


_TOLERANCE_PROPS = {
    "tol": _num(0),
    "tol_strict": _num(0),
    "tol_boundary": _num(exclusive=0),
    "interface_slack": _num(0),
    "collar_cells": _num(exclusive=0),
    "collar_width": {"type": ["number", "null"]},
    "clarke_radius_scale": _num(exclusive=0),
    "clarke_samples": {"type": "integer", "minimum": 1},
}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dimension", "dynamics", "barrier", "initial", "unsafe", "box", "resolution"],
    "properties": {
        "name": {"type": "string"},
        "dimension": {"type": "integer", "minimum": 1},
        "box": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "number"},
            },
        },
        "resolution": {
            "anyOf": [
                {"type": "integer", "minimum": 2},
                {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 2}},
            ]
        },
        "initial": {"type": "string"},
        "unsafe": {"type": "string"},
        "depth": {"type": "string"},
        "barrier": {
            "type": "object",
            "additionalProperties": False,
            "required": ["value", "smoothness"],
            "properties": {
                "value": {"type": "string"},
                "gradient": {"type": ["array", "null"], "items": {"type": "string"}},
                "smoothness": {"enum": list(SMOOTHNESS_TAGS)},
                "singular": {"type": ["string", "null"]},
                "name": {"type": "string"},
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "required": ["pieces"],
            "properties": {
                "pieces": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["when", "image"],
                        "properties": {
                            "when": {"type": "string"},
                            "label": {"type": "string"},
                            "image": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["kind"],
                                "properties": {
                                    "kind": {"enum": ["constant", "affine", "polynomial"]},
                                    "points": {"type": "array"},
                                    "matrix": {"type": "array"},
                                    "offset": {"type": "array"},
                                    "components": {"type": "array", "items": {"type": "string"}},
                                    "radius": _num(0),
                                },
                            },
                        },
                    },
                }
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": _TOLERANCE_PROPS,
        },
        "perturbation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["margin"],
            "properties": {
                "margin": _num(exclusive=0),
                "sense_margin": _num(exclusive=0),
                "mode": {"enum": ["none", "image", "strong"]},
                "density": {"type": "integer", "minimum": 1},
            },
        },
        "hints": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["x0", "velocity"],
                "properties": {
                    "x0": {"type": "array", "items": {"type": "number"}},
                    "velocity": {"type": "array", "items": {"type": "string"}},
                    "label": {"type": "string"},
                },
            },
        },
        "boundary_points": {"type": "array"},
        "falsify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "starts": {"type": "integer", "minimum": 1},
                "horizon": _num(exclusive=0),
                "step": _num(exclusive=0),
                "seed": {"type": "integer"},
            },
        },
        "margin": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "bracket": _num(exclusive=0),
                "density": {"type": "integer", "minimum": 1},
                "rel_tol": _num(exclusive=0),
            },
        },
        "modulus": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "log_step": _num(exclusive=0),
                "density": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1},
                "delta_max": _num(exclusive=0),
                "seed": {"type": "integer"},
            },
        },
    },
}

#: the keywords :func:`_violations` reads; ``SCHEMA`` may use no others
_KEYWORDS = frozenset({"type", "properties", "additionalProperties", "required", "enum",
                       "items", "minItems", "maxItems", "minimum", "exclusiveMinimum", "anyOf"})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the JSON types a ``type`` keyword may name; as in Draft 2020-12, a bool is
#: not a number and an integral float is an integer
_TYPES = {
    "null": lambda v: v is None,
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _show(value) -> str:
    if isinstance(value, list):
        return "an array"
    if isinstance(value, dict):
        return "an object"
    return json.dumps(value)


def _pointer(path: tuple) -> str:
    return "/" + "/".join(map(str, path))


def _violations(value, schema: dict, path: tuple = ()):
    """Yield ``(path, message)`` for every way ``value`` breaks ``schema``,
    read as JSON Schema Draft 2020-12 restricted to ``_KEYWORDS``.  Paths
    are tuples of keys and indices, as in the error paths of a Draft
    2020-12 validator: ``required`` and ``additionalProperties`` point at
    the object, ``anyOf`` at the value that fits no branch."""
    types = schema.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else types
        if not any(_TYPES[t](value) for t in names):
            yield path, f"expected {' or '.join(names)}, got {_show(value)}"
    if "enum" in schema and value not in schema["enum"]:
        allowed = ", ".join(map(json.dumps, schema["enum"]))
        yield path, f"expected one of {allowed}, got {_show(value)}"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"missing required key {json.dumps(key)}"
        if schema.get("additionalProperties") is False:
            extra = [key for key in value if key not in props]
            if extra:
                listed = ", ".join(map(json.dumps, extra))
                yield path, f"unknown key{'s' * (len(extra) > 1)} {listed}"
        for key, child in value.items():
            if key in props:
                yield from _violations(child, props[key], path + (key,))
    elif isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            yield path, f"expected at least {schema['minItems']} items, got {len(value)}"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield path, f"expected at most {schema['maxItems']} items, got {len(value)}"
        if "items" in schema:
            for i, child in enumerate(value):
                yield from _violations(child, schema["items"], path + (i,))
    elif _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, f"expected at least {schema['minimum']}, got {_show(value)}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, f"expected more than {schema['exclusiveMinimum']}, got {_show(value)}"
    if "anyOf" in schema:
        first = [next(_violations(value, branch, path), None) for branch in schema["anyOf"]]
        if all(first):
            why = "; ".join(m if p == path else f"{_pointer(p)}: {m}" for p, m in first)
            yield path, f"fits none of the allowed forms ({why})"


def _finite(literal: str) -> float:
    """A JSON number or ``NaN``/``Infinity`` constant; ``1e999`` is inf."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {literal}")
    return value


def _int(literal: str) -> int:
    """A JSON integer, kept as an int; it must also fit a float, as the
    numeric fields are computed in floats."""
    if not math.isfinite(float(literal)):
        raise ConfigError(f"integer of {len(literal.lstrip('-'))} digits beyond float range")
    return int(literal)


def load_config(path: str) -> dict:
    """Read and schema-check a config (a file path or a built-in name).

    Parse errors report line and column.  The config is checked against
    ``SCHEMA``, read as JSON Schema Draft 2020-12: an integral float such as
    ``3.0`` counts as an integer, and a bool is not a number.  Every
    violation is listed, one per line as ``  /json/path: message``, sorted
    by path.  Numbers must be finite, integers within float range, and a
    modulus ``log_step`` must also divide the log range of the modulus grid.
    Every problem raises :class:`ConfigError`.
    """
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path!r}: {e}") from e
        try:
            cfg = json.loads(text, parse_float=_finite, parse_int=_int, parse_constant=_finite)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"parse error in {path!r} at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
        except RecursionError:
            raise ConfigError(f"parse error in {path!r}: nested too deeply") from None
        except ConfigError as e:
            raise ConfigError(f"{e} in {path!r}; config numbers must be finite") from e
    elif path in scenarios.BUILTIN:
        cfg = scenarios.builtin_config(path)
    else:
        raise ConfigError(
            f"config file not found: {path!r} (and it is not a built-in scenario; "
            f"built-ins: {', '.join(scenarios.BUILTIN)})"
        )
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    errors = sorted(_violations(cfg, SCHEMA), key=lambda e: list(e[0]))
    if errors:
        lines = (f"  {_pointer(p)}: {m}" for p, m in errors)
        raise ConfigError("invalid config:\n" + "\n".join(lines))
    log_step = cfg.get("modulus", {}).get("log_step")
    if log_step is not None:
        try:
            log_grid_steps(log_step)
        except ValueError:
            raise ConfigError(f"invalid config:\n  /modulus/log_step: {log_step} does not divide "
                              f"the modulus log range {LOG_RANGE:g}") from None
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _jsonable(obj):
    """Recursively convert report objects to strict-JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return {math.inf: "inf", -math.inf: "-inf"}.get(f, "nan")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


_QUOTED = json.encoder.encode_basestring_ascii

#: the strings that stand in for the non-finite floats, quoted
_NON_FINITE = {math.inf: '"inf"', -math.inf: '"-inf"'}


def _float_text(f: float) -> str:
    return float.__repr__(f) if math.isfinite(f) else _NON_FINITE.get(f, '"nan"')


def _json_text(obj, nl: str = "\n") -> str:
    """``json.dumps(_jsonable(obj), sort_keys=True, indent=2,
    allow_nan=False)`` in one walk: ``nl`` is a newline and the indent of
    the line that ``obj`` starts on.  A list of finite floats is joined in
    one call; the repr of a finite float holds no ``n``."""
    t = type(obj)
    if t is float:
        return _float_text(obj)
    if t is list or t is tuple or t is np.ndarray:
        items = obj.tolist() if t is np.ndarray else obj
        if not items:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if all(type(v) is float for v in items):
            text = sep.join(map(float.__repr__, items))
            if "n" not in text:
                return "[" + inner + text + nl + "]"
        return "[" + inner + sep.join(_json_text(v, inner) for v in items) + nl + "]"
    if t is dict:
        if not all(type(k) is str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            _QUOTED(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)) + nl + "}"
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _QUOTED(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(float(obj))
    plain = _jsonable(obj)
    if plain is obj:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    return _json_text(plain, nl)


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_trajectory(path: str, traj, barrier_values: bool) -> None:
    n = traj.states.shape[1]
    cols = ["t"] + [f"x{i + 1}" for i in range(n)] + (["B"] if barrier_values else [])
    lines = ["# " + " ".join(cols)]
    # one tolist per column: Python floats format faster than numpy scalars
    columns = [traj.times, *traj.states.T] + ([traj.values] if barrier_values else [])
    row_format = " ".join(["%.17g"] * len(columns))
    lines.extend(row_format % row for row in zip(*(c.tolist() for c in columns)))
    _atomic_write(path, "\n".join(lines) + "\n")


def _default_checks(scenario, command: str) -> list[str]:
    """The sign check, then every table row that ``command`` runs unasked
    and that is meant for the candidate."""
    bar = scenario.barrier
    return ["candidate-signs"] + [
        spec.check_id for spec in CHECKS.values() if command in spec.commands and spec.suits(bar)
    ]


def _run_check(check_id: str, scenario, grid, modulus):
    """Run one check; ``modulus()`` returns the run's modulus, which only
    the weighted rows read."""
    if check_id == "candidate-signs":
        return candidate_check(scenario)
    spec = CHECKS[check_id]
    # looked up by module attribute, so a wrapper set on the public name is used
    run_spec = getattr(checker, spec.function)
    try:
        if spec.variant is None:
            return run_spec(scenario, grid)
        return run_spec(scenario, grid, modulus(), spec.variant)
    except CANNOT_RUN as e:
        raise ConfigError(f"check {check_id!r} cannot run on this scenario: {e}") from e


def _keys(section: dict, *names: str) -> dict:
    """The entries of a config section among ``names`` that it sets."""
    return {k: section[k] for k in names if k in section}


def _modulus_summary(pair, report) -> dict:
    t = pair.tables
    return {
        "degenerate": pair.degenerate,
        "flags": dict(pair.flags),
        "kind": t.get("kind"),
        "onset": t.get("onset"),
        "scale": t.get("scale"),
        "verification": report.to_dict(),
    }


def run(
    config_path: str,
    command: str,
    *,
    check: Optional[str] = None,
    mode: Optional[str] = None,
    eps: Optional[float] = None,
    seed: int = 0,
    box_scale: Optional[float] = None,
    out: Optional[str] = None,
    density: Optional[int] = None,
) -> tuple[dict, int]:
    """Execute one command against one config; returns (bundle, exit code).

    The flags are written into a copy of the config, and every stage reads
    its settings from that copy; a setting it leaves out takes the default
    of the library function that reads it, except that ``seed`` seeds the
    falsify and modulus sections and the perturbation's density is the
    margin density.
    Raises ConfigError for problems that should exit with code 2.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    if check is not None and command != "verify":
        raise ConfigError(f"--check runs with verify only, not with {command!r}")
    if check is not None and check not in CHECK_IDS:
        raise ConfigError(f"unknown check id {check!r}; expected one of {', '.join(CHECK_IDS)}")
    cfg = load_config(config_path)
    cfg_hash = _config_hash(cfg)

    # flag overrides (applied to a working copy; the hash covers the load)
    work = json.loads(json.dumps(cfg))
    if box_scale is not None:
        if box_scale <= 0:
            raise ConfigError("--box-scale must be positive")
        work["box"] = [[float(a), float(b)] for a, b in scale_box(work["box"], box_scale)]
    if eps is not None:
        if not 0.0 < eps < math.inf:
            raise ConfigError("--eps must be positive and finite")
        work["perturbation"] = {"mode": "strong", **work.get("perturbation", {}), "margin": eps}
    if mode is not None:
        if "perturbation" not in work:
            raise ConfigError("--mode requires --eps or a perturbation section in the config")
        work["perturbation"]["mode"] = mode
    if density is not None:
        if "perturbation" in work:
            work["perturbation"]["density"] = density
        work.setdefault("margin", {})["density"] = density
    # the schema takes an integral float such as 3.0 for an integer field;
    # counts, densities and seeds reach the library as ints
    for name in ("perturbation", "falsify", "margin", "modulus"):
        props = SCHEMA["properties"][name]["properties"]
        section = work.get(name, {})
        for key in section:
            if props[key].get("type") == "integer":
                section[key] = int(section[key])

    try:
        bundle_scenario = scenarios.bundle_from_config(work)
    except Exception as e:  # expression errors, inconsistent sets, bad shapes
        raise ConfigError(f"cannot build scenario: {e}") from e
    scenario = bundle_scenario.scenario
    base = unperturbed(scenario.dynamics)
    # margin synthesis needs generalized gradients: `all` skips the stage
    # for other candidates, as it skips checks not meant for them
    synthesize = scenario.barrier.smoothness in MARGIN_SMOOTHNESS
    if command == "margin" and not synthesize:
        raise ConfigError(f"margin synthesis needs a {'/'.join(MARGIN_SMOOTHNESS)} candidate, "
                          f"got smoothness {scenario.barrier.smoothness!r}")

    out_dir = out or "inclusafe-reports"
    os.makedirs(out_dir, exist_ok=True)

    artifacts: dict = {}
    checks: list = []
    margin_out = None
    modulus_out = None
    fals_out = None
    exit_code = 0

    pert = work.get("perturbation", {})
    mocfg = work.get("modulus", {})

    @functools.cache
    def modulus():
        """The run's one continuity modulus of the base map, built from the
        config's modulus section on first use by a weighted check or the
        modulus stage."""
        return build_modulus(base, **_keys(mocfg, "log_step", "density"))

    grid = boundary_extract(scenario) if command in ("verify", "margin", "all") else None

    if command in ("verify", "all"):
        ids = [check] if check is not None else _default_checks(scenario, command)
        for cid in ids:
            rep = _run_check(cid, scenario, grid, modulus)
            checks.append(rep.to_dict())
            if not rep.passed:
                exit_code = 1

    if command in ("margin", "all") and synthesize:
        try:
            synth = synthesize_margin(scenario, grid, **{**_keys(pert, "density"), **work.get("margin", {})})
        except CANNOT_RUN as e:
            raise ConfigError(f"margin synthesis cannot run on this scenario: {e}") from e
        margin_out = synth.to_dict()
        if synth.eps_star <= 0.0:
            exit_code = 1

    if command in ("modulus", "all"):
        pair = modulus()
        mreport = verify_modulus(base, pair, scenario.box,
                                 **{"seed": seed, **_keys(mocfg, "samples", "delta_max", "seed")})
        modulus_out = _modulus_summary(pair, mreport)
        if pair.tables:
            tbl_name = "modulus-tables.json"
            _atomic_write(
                os.path.join(out_dir, tbl_name),
                _json_text(pair.tables),
            )
            artifacts["modulus_tables"] = tbl_name
        if not mreport.passed:
            exit_code = 1

    if command == "falsify" and not pert:
        raise ConfigError("falsify needs --eps or a perturbation section in the config")
    if command in ("falsify", "all") and pert:
        # an eps flag re-wraps the base dynamics in the run's mode and
        # density; without it the config's perturbed dynamics run as they are
        try:
            result = falsify(scenario, eps, FalsifyBudget(**{"seed": seed, **work.get("falsify", {})}),
                             hints=bundle_scenario.hints(pert["margin"]),
                             **_keys(pert, "mode", "density"))
        except CANNOT_RUN as e:
            raise ConfigError(f"falsification cannot run on this scenario: {e}") from e
        fals_out = result.to_dict()
        if result.found:
            exit_code = 1
            traj_name = "trajectory-witness.txt"
            _write_trajectory(
                os.path.join(out_dir, traj_name),
                result.trajectory,
                barrier_values=result.trajectory.values is not None,
            )
            artifacts["trajectory"] = traj_name

    bundle = {
        "bundle_version": 1,
        "tool": {"name": "inclusafe", "version": __version__},
        "command": command,
        "scenario": scenario.name,
        "config_sha256": cfg_hash,
        "seed": seed,
        "flags": {
            "check": check,
            "mode": mode,
            "eps": eps,
            "box_scale": box_scale,
            "density": density,
        },
        "expected_notes": bundle_scenario.expected,
        "checks": checks,
        "margin": margin_out,
        "modulus": modulus_out,
        "falsification": fals_out,
        "artifacts": artifacts,
        "exit_code": exit_code,
    }
    # the timestamp lives in its own top-level field: dropping that single
    # key must make bundles from identical config + seed byte-identical
    stamped = dict(_jsonable(bundle))
    stamped["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    bundle_name = f"bundle-{command}.json"
    _atomic_write(
        os.path.join(out_dir, bundle_name),
        _json_text(stamped),
    )
    return stamped, exit_code


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="inclusafe",
        description="sampled safety verification and falsification for differential inclusions",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("config", help="config JSON path or built-in scenario name")
    p.add_argument("--check", help="run a single check id (verify only)")
    p.add_argument("--mode", choices=["none", "image", "strong"], help="perturbation mode")
    p.add_argument("--eps", type=float, help="constant perturbation margin")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled searches")
    p.add_argument("--box-scale", type=float, dest="box_scale", help="shrink/grow the domain box")
    p.add_argument("--out", help="output directory (default: inclusafe-reports)")
    p.add_argument("--density", type=int, help="ball lattice density override")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        bundle, code = run(
            args.config,
            args.command,
            check=args.check,
            mode=args.mode,
            eps=args.eps,
            seed=args.seed,
            box_scale=args.box_scale,
            out=args.out,
            density=args.density,
        )
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    for rep in bundle.get("checks", []):
        print(f"[{rep['check_id']}] {rep['verdict']} margin={rep['margin']}")
    if bundle.get("margin") is not None:
        print(f"[margin] eps_star={bundle['margin']['eps_star']}")
    if bundle.get("modulus") is not None:
        ver = bundle["modulus"].get("verification") or {}
        print(
            f"[modulus] degenerate={bundle['modulus']['degenerate']}"
            f" verified={ver.get('passed')} min_slack={ver.get('min_slack')}"
        )
    if bundle.get("falsification") is not None:
        f = bundle["falsification"]
        print(f"[falsify] found={f['found']} depth={f['depth']} policy={f['policy']}")
    out_dir = args.out or "inclusafe-reports"
    print(f"bundle: {os.path.join(out_dir, 'bundle-' + args.command + '.json')}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
