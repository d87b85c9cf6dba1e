"""Print the sha256 of report bundles, timestamp removed, one per line, and
of every artifact file a run writes.

    python3 tools/bundle_digests.py > digests.txt

Covers the ``all`` bundle of every builtin scenario, every command of the
benchmark workloads in ``perfbench/workloads.py`` (which includes ``falsify``
at the benchmark's perturbation sizes), and ``verify --check ID`` for every
check id on every builtin and on a few inline variants that reach the checks
``all`` never runs on a builtin (Lipschitz candidates with and without a
gradient oracle, a semicontinuous one, the one linear setting where the
C4 separation precondition holds, a planar Lipschitz candidate whose
sampled Clarke vertices are general vectors, and a planar C2 candidate whose
gradient oracle vanishes at some boundary representatives and raises at
others); each variant's ``all`` bundle too.  Then plain ``verify`` on that
last variant and ``falsify`` on it at ``--eps 0.5``, where b-ascent meets
the rows on which its oracle raises, ``verify`` on five builtin configs
with one vector whose length is not the dimension, and last ``falsify
linear-stable --eps 0.1`` at the default budget (400 trials of 5000 steps
in one lockstep run).
Last, one run for each flag path that a config value can meet: ``--density``
beside a margin stage, a nonzero ``--seed``, ``--eps`` on a config that has
its own perturbation, ``--eps`` with ``--mode``, ``--box-scale``, and
``falsify`` with ``--eps`` and ``--mode none``.  Then ``falsify --eps 0.5`` on
example1's config under another name, whose hint so comes from the config
as an expression policy, not from the builtin's hint builder, and
``falsify --eps 0.04`` on example2's config under another name with a
config hint: the start (5, 0) and the state-feedback velocity of the
builtin's cone-escape hint at that eps, and the same on another name with
the hint velocity (0, 100), which lies outside the image, so the hint is
truncated at its first step by the 256-direction containment product.
Then two searches of
extreme-point trials only, which the loop advances in steered blocks:
``falsify linear-stable --eps 0.6``, where the first trial (b-ascent) hits
after 1,923 steps and the 399 trials after it retire, and ``falsify --eps
0.04`` on example2's config under another name, so without its hint, with
12 starts and a horizon of 2, where planar trials leave the box and the
fifth trial hits inside the first block.  Then three runs on
``two-radii``, linear-stable's config with the unsafe set x1 > 1.02 and
two pieces that hold everywhere, {-0.1} and {-1} + 0.5 B, so that every
image is the hull of two radii, [-1.5, -0.1]: ``falsify --eps 0.01``,
``verify --eps 0.05 --check robust-strict`` and ``margin``.  The falsify
run is the default budget, 400 trials of 25,000 steps, and each of its
strong images is a lookup in the map's table of runs: it takes about 2 s,
and the whole script 6 to 8 s, on a 2-vCPU machine.  Last,
``verify example2 --eps 0.05 --density 13`` and ``falsify example2 --eps
0.04 --density 13``, whose strong images concatenate the images of the
113 points of each row's argument-ball lattice.  Every other run
uses seed 0.
A command that raises prints ``raise <ErrorClass>`` in place of a digest.
Each file that a bundle names under ``artifacts`` (the modulus tables, the
witness trajectory) gets one more line: its sha256 and its file name, after
the bundle's line.
The check ids are written out here rather than imported, so the same file
runs on an older checkout.  The program is imported from ``src/`` of the
checkout that holds this file, so running the script in two checkouts and
diffing the outputs shows whether a change moved any bundle byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from inclusafe import cli, scenarios  # noqa: E402
import workloads  # noqa: E402

CHECK_IDS = (
    "candidate-signs",
    "nominal-nonincrease",
    "robust-strict",
    "clarke-strict",
    "uniform-plain",
    "uniform-weighted-c1",
    "uniform-weighted-c2",
    "uniform-weighted-c3",
    "uniform-weighted-c4",
)


def _variants() -> dict:
    """Inline configs derived from linear-stable and example2."""

    def derived(name, **changes):
        cfg = scenarios.builtin_config(name)
        cfg.update(changes)
        return cfg

    def linear(**changes):
        return derived("linear-stable", **changes)

    # a polyhedral norm without a gradient oracle: finite-difference Clarke
    # vertices at the kinks, under a contracting spiral
    norm = "abs(0.37*x1 + 0.11*x2) + abs(0.23*x1 - 0.61*x2)"

    return {
        "abs-lipschitz": linear(
            barrier={"value": "abs(x1) - 1", "smoothness": "lipschitz", "singular": "x1 == 0"},
            initial="abs(x1) <= 0.5",
            unsafe="abs(x1) > 1.2",
        ),
        "abs-lipschitz-oracle": linear(
            barrier={"value": "abs(x1) - 1", "gradient": ["1 if x1 > 0 else -1"],
                     "smoothness": "lipschitz", "singular": "x1 == 0"},
            initial="abs(x1) <= 0.5",
            unsafe="abs(x1) > 1.2",
        ),
        "linear-lsc": linear(
            barrier={"value": "x1 - 1", "gradient": ["1"], "smoothness": "lsc"},
            boundary_points=[[1.0]],
        ),
        "linear-unsafe-1.5": linear(unsafe="x1 >= 1.5"),
        "abs-lipschitz-2d": derived(
            "example2",
            box=[[-2.0, 2.0], [-2.0, 2.0]],
            resolution=[21, 21],
            barrier={"value": f"{norm} - 0.5", "smoothness": "lipschitz"},
            initial=f"{norm} <= 0.25",
            unsafe=f"{norm} >= 1",
            depth=f"{norm} - 0.5",
            tolerances={},
            dynamics={"pieces": [{"when": "True", "image": {
                "kind": "polynomial", "components": ["-x1 + 0.2*x2", "-0.2*x1 - x2"]}}]},
        ),
        # a gradient oracle that vanishes at some boundary representatives
        # (x1 < -0.5) and raises at others (x2 < -0.8, on or inside the circle)
        "partial-oracle": derived(
            "example2",
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
        ),
    }


def _wrong_lengths() -> dict:
    """Builtin configs with one vector whose length is not the dimension."""

    def edited(name, edit):
        cfg = scenarios.builtin_config(name)
        edit(cfg)
        return cfg

    def image(cfg):
        return cfg["dynamics"]["pieces"][0]["image"]

    return {
        "linear-stable gradient": edited("linear-stable", lambda c: c["barrier"].update(gradient=["1", "0"])),
        "example2 components": edited("example2", lambda c: image(c).update(components=["0"])),
        "example1 points": edited("example1", lambda c: image(c).update(points=[[2.0, 1.0]])),
        "linear-stable matrix": edited("linear-stable", lambda c: image(c).update(matrix=[[-1.0, 0.0]])),
        "example1 hint velocity": edited("example1", lambda c: c["hints"][0].update(velocity=["1", "2"])),
    }


def _line(tmp, config, command, label, seed=0, **flags) -> str:
    out = os.path.join(tmp, "out")
    try:
        bundle, code = cli.run(config, command, seed=seed, out=out, **flags)
    except Exception as e:  # noqa: BLE001 - the error class is the output
        return f"raise {type(e).__name__}  {label}"
    lines = [f"{workloads.digest(bundle)}  exit={code}  {label}"]
    for name in sorted(bundle.get("artifacts", {}).values()):
        with open(os.path.join(out, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}  {label}")
    return "\n".join(lines)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenarios.BUILTIN:
            print(_line(tmp, name, "all", f"all {name}"), flush=True)
        for workload, commands in workloads.WORKLOADS.items():
            paths = workloads.write_configs(commands, 0, os.path.join(tmp, workload))
            for cmd, path in zip(commands, paths):
                print(_line(tmp, path, cmd.command, f"{workload}: {cmd.label}", **cmd.flags),
                      flush=True)
        configs = {name: name for name in scenarios.BUILTIN}
        for name, cfg in _variants().items():
            configs[name] = os.path.join(tmp, f"{name}.json")
            with open(configs[name], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        for name, config in configs.items():
            if config != name:
                print(_line(tmp, config, "all", f"all {name}"), flush=True)
            for check in CHECK_IDS:
                print(_line(tmp, config, "verify", f"verify {name} --check {check}", check=check),
                      flush=True)
        print(_line(tmp, configs["partial-oracle"], "verify", "verify partial-oracle"), flush=True)
        print(_line(tmp, configs["partial-oracle"], "falsify", "falsify partial-oracle --eps 0.5", eps=0.5),
              flush=True)
        for label, cfg in _wrong_lengths().items():
            path = os.path.join(tmp, "wrong-length.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            print(_line(tmp, path, "verify", f"verify {label} wrong length"), flush=True)
        print(_line(tmp, "linear-stable", "falsify", "falsify linear-stable --eps 0.1 default budget",
                    eps=0.1), flush=True)
        for config, command, label, flags in (
            ("linear-stable", "margin", "--density 5", {"density": 5}),
            ("noisy-loop", "all", "--seed 7", {"seed": 7}),
            ("noisy-loop", "falsify", "--eps 0.05", {"eps": 0.05}),
            ("linear-stable", "falsify", "--eps 0.1 --mode image", {"eps": 0.1, "mode": "image"}),
            ("example2", "verify", "--box-scale 0.5", {"box_scale": 0.5}),
            ("example1", "falsify", "--eps 0.1 --mode none", {"eps": 0.1, "mode": "none"}),
        ):
            print(_line(tmp, config, command, f"{command} {config} {label}", **flags), flush=True)
        renamed = os.path.join(tmp, "example1-renamed.json")
        with open(renamed, "w", encoding="utf-8") as fh:
            json.dump(dict(scenarios.builtin_config("example1"), name="example1-renamed"), fh)
        print(_line(tmp, renamed, "falsify", "falsify example1-renamed --eps 0.5", eps=0.5), flush=True)
        hinted = os.path.join(tmp, "example2-hinted.json")
        with open(hinted, "w", encoding="utf-8") as fh:
            json.dump(dict(scenarios.builtin_config("example2"), name="example2-hinted", hints=[
                {"x0": [5.0, 0.0], "velocity": ["0", "-1 + x1**2*(x2 + 0.04) + 0.04"], "label": "cone-escape"}]), fh)
        print(_line(tmp, hinted, "falsify", "falsify example2-hinted --eps 0.04", eps=0.04), flush=True)
        infeasible = os.path.join(tmp, "example2-infeasible.json")
        with open(infeasible, "w", encoding="utf-8") as fh:
            json.dump(dict(scenarios.builtin_config("example2"), name="example2-infeasible", hints=[
                {"x0": [5.0, 0.0], "velocity": ["0", "100"], "label": "infeasible"}]), fh)
        print(_line(tmp, infeasible, "falsify", "falsify example2-infeasible --eps 0.04", eps=0.04), flush=True)
        print(_line(tmp, "linear-stable", "falsify", "falsify linear-stable --eps 0.6", eps=0.6), flush=True)
        unhinted = os.path.join(tmp, "example2-unhinted.json")
        with open(unhinted, "w", encoding="utf-8") as fh:
            json.dump(dict(scenarios.builtin_config("example2"), name="example2-unhinted",
                           falsify={"starts": 12, "horizon": 2.0}), fh)
        print(_line(tmp, unhinted, "falsify", "falsify example2-unhinted --eps 0.04", eps=0.04), flush=True)
        two_radii = os.path.join(tmp, "two-radii.json")
        with open(two_radii, "w", encoding="utf-8") as fh:
            json.dump(dict(scenarios.builtin_config("linear-stable"), name="two-radii", unsafe="x1 > 1.02",
                           depth="x1 - 1.02", dynamics={"pieces": [
                               {"when": "True", "image": {"kind": "constant", "points": [[-0.1]]}},
                               {"when": "True", "image": {"kind": "constant", "points": [[-1.0]], "radius": 0.5}},
                           ]}), fh)
        for command, label, flags in (
            ("falsify", "--eps 0.01", {"eps": 0.01}),
            ("verify", "--eps 0.05 --check robust-strict", {"eps": 0.05, "check": "robust-strict"}),
            ("margin", "", {}),
        ):
            print(_line(tmp, two_radii, command, f"{command} two-radii {label}".rstrip(), **flags), flush=True)
        for command, label, flags in (
            ("verify", "--eps 0.05 --density 13", {"eps": 0.05, "density": 13}),
            ("falsify", "--eps 0.04 --density 13", {"eps": 0.04, "density": 13}),
        ):
            print(_line(tmp, "example2", command, f"{command} example2 {label}", **flags), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
