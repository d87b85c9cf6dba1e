from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from inclusafe import BarrierCandidate, boundary_extract, build_modulus, checker, cli, scenarios
from inclusafe.cli import COMMANDS, ConfigError, load_config, main, run


def _write_cfg(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _src_env() -> dict:
    """The environment with this checkout's ``src/`` first on the import path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


# ----------------------------------------------------------------------- #
# config loading
def test_load_config_accepts_builtin_names():
    for name in scenarios.BUILTIN:
        cfg = load_config(name)
        assert cfg["name"] == name


def test_load_config_reads_files(tmp_path):
    path = _write_cfg(tmp_path, scenarios.builtin_config("linear-stable"))
    cfg = load_config(path)
    assert cfg["barrier"]["value"] == "x1 - 1"


def test_load_config_missing_file_mentions_builtins():
    with pytest.raises(ConfigError, match="built-ins"):
        load_config("nonexistent.json")


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "name": oops\n}')
    with pytest.raises(ConfigError, match=r"line 2, column"):
        load_config(str(p))


@pytest.mark.parametrize("content, message", [
    (b'\xff\xfe{}', "cannot read config"),
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
], ids=["undecodable", "too-deep"])
def test_unreadable_config_files_exit_two(tmp_path, capsys, content, message):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_config(str(p))
    assert main(["verify", str(p), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_config_numbers_exit_two(tmp_path, capsys, literal):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["margin"] = {"rel_tol": "rel_tol"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg).replace('"rel_tol": "rel_tol"', f'"rel_tol": {literal}'))
    with pytest.raises(ConfigError, match="non-finite number") as excinfo:
        load_config(str(path))
    assert repr(str(path)) in str(excinfo.value)
    assert main(["margin", str(path), "--out", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_config_integer_beyond_float_range_exits_two(tmp_path, capsys):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["margin"] = {"rel_tol": "rel_tol"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg).replace('"rel_tol": "rel_tol"', '"rel_tol": 1' + "0" * 400))
    with pytest.raises(ConfigError, match="beyond float range") as excinfo:
        load_config(str(path))
    assert repr(str(path)) in str(excinfo.value)
    assert main(["margin", str(path), "--out", str(tmp_path)]) == 2
    assert "beyond float range" in capsys.readouterr().err


def test_config_integers_in_float_range_keep_value_and_type(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    largest = int(sys.float_info.max)
    cfg["falsify"] = {"seed": 2**64 + 1}
    cfg["modulus"] = {"seed": -largest}
    cfg["margin"] = {"rel_tol": largest, "density": 3}
    loaded = load_config(_write_cfg(tmp_path, cfg))
    assert loaded == cfg
    for value in (loaded["falsify"]["seed"], loaded["modulus"]["seed"],
                  loaded["margin"]["rel_tol"], loaded["margin"]["density"], loaded["dimension"]):
        assert type(value) is int


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        load_config(_write_cfg(tmp_path, cfg))


def test_load_config_rejects_bad_types_with_pointer(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["resolution"] = "eighty-one"
    with pytest.raises(ConfigError, match="/resolution"):
        load_config(_write_cfg(tmp_path, cfg))


def test_load_config_lists_every_violation(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["dimension"] = 0
    cfg["barrier"]["smoothness"] = "velvet"
    with pytest.raises(ConfigError) as err:
        load_config(_write_cfg(tmp_path, cfg))
    msg = str(err.value)
    assert "/dimension" in msg and "/barrier/smoothness" in msg


def test_load_config_rejects_removed_tolerance_fields(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["tolerances"] = {"grad_rtol": 1e-4}
    with pytest.raises(ConfigError, match="/tolerances"):
        load_config(_write_cfg(tmp_path, cfg))


def _error_paths(path: str) -> list[str]:
    """The JSON path of each line that ``load_config`` reports, in order."""
    try:
        load_config(path)
    except ConfigError as e:
        head, *lines = str(e).split("\n")
        assert head == "invalid config:" and lines
        assert all(line.startswith("  /") and ": " in line for line in lines)
        return [line[2:].split(": ", 1)[0] for line in lines]
    return []


def test_load_config_reports_the_draft_2020_12_error_paths(tmp_path):
    # tests/data/schema_mutations.json, written by tools/schema_mutations.py,
    # holds the error paths jsonschema's Draft202012Validator gave on every
    # single-field mutation of the builtins
    with open(os.path.join(os.path.dirname(__file__), "data", "schema_mutations.json")) as fh:
        table = json.load(fh)
    assert len(table) == 1976
    path = str(tmp_path / "mutated.json")
    wrong = []
    for entry in table:
        cfg = scenarios.builtin_config(entry["config"])
        *parents, last = entry["path"]
        parent = functools.reduce(lambda node, key: node[key], parents, cfg)
        if entry.get("delete"):
            del parent[last]
        else:
            parent[last] = entry["value"]
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        got = _error_paths(path)
        if got != entry["errors"]:
            wrong.append((entry, got))
    assert not wrong, f"{len(wrong)} mismatches, first: {wrong[0]}"


def test_schema_uses_only_what_the_checker_reads():
    # a keyword the checker does not read would be ignored without a word
    def walk(schema, where):
        assert set(schema) <= cli._KEYWORDS, (where, set(schema) - cli._KEYWORDS)
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(cli._TYPES), where
        assert schema.get("additionalProperties", False) is False, where
        for key, sub in schema.get("properties", {}).items():
            walk(sub, f"{where}/{key}")
        if "items" in schema:
            walk(schema["items"], f"{where}/items")
        for i, sub in enumerate(schema.get("anyOf", ())):
            walk(sub, f"{where}/anyOf/{i}")

    walk(cli.SCHEMA, "")


def test_importing_the_cli_loads_no_schema_library():
    code = ("import sys, inclusafe.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'jsonschema', 'referencing', 'rpds'}))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ----------------------------------------------------------------------- #
# verify command
def test_verify_linear_stable_bundle(tmp_path):
    bundle, code = run("linear-stable", "verify", out=str(tmp_path))
    assert code == 0
    assert bundle["bundle_version"] == 1
    assert bundle["tool"]["name"] == "inclusafe"
    assert bundle["command"] == "verify"
    assert bundle["scenario"] == "linear-stable"
    ids = [c["check_id"] for c in bundle["checks"]]
    assert ids == ["candidate-signs", "nominal-nonincrease", "robust-strict", "uniform-plain"]
    assert all(c["verdict"] == "pass-numeric" for c in bundle["checks"])
    assert bundle["margin"] is None and bundle["falsification"] is None
    assert bundle["exit_code"] == 0
    assert "timestamp" in bundle
    assert os.path.exists(tmp_path / "bundle-verify.json")


def test_verify_example1_fails_at_interface(tmp_path):
    bundle, code = run("example1", "verify", out=str(tmp_path))
    assert code == 1
    by_id = {c["check_id"]: c for c in bundle["checks"]}
    assert by_id["nominal-nonincrease"]["verdict"] == "pass-numeric"
    assert by_id["robust-strict"]["verdict"] == "fail"
    assert by_id["robust-strict"]["witness"] == [0.0]
    assert bundle["expected_notes"]["robust-strict"].startswith("fail")


def test_verify_single_check_flag(tmp_path):
    bundle, code = run("example1", "verify", check="nominal-nonincrease", out=str(tmp_path))
    assert code == 0
    assert [c["check_id"] for c in bundle["checks"]] == ["nominal-nonincrease"]
    assert bundle["flags"]["check"] == "nominal-nonincrease"


def test_verify_unknown_check_id(tmp_path):
    with pytest.raises(ConfigError, match="unknown check id"):
        run("linear-stable", "verify", check="sorcery", out=str(tmp_path))


def test_check_with_another_command_exits_two(tmp_path):
    for command in ("margin", "all", "modulus", "falsify"):
        assert main([command, "linear-stable", "--check", "sorcery", "--out", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == []  # no bundle written


def test_verify_unknown_check_id_rejected_before_modulus(tmp_path, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("no modulus may be built for an unknown check id")

    monkeypatch.setattr(cli, "build_modulus", no_build)
    with pytest.raises(ConfigError, match="unknown check id 'uniform-weighted-c5'"):
        run("example2", "verify", check="uniform-weighted-c5", out=str(tmp_path))


def test_verify_inapplicable_check_exits_two(tmp_path, capsys):
    # cl(K) touches the unsafe set, so the C4 separation precondition fails
    code = main(["verify", "linear-stable", "--check", "uniform-weighted-c4",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "uniform-weighted-c4" in capsys.readouterr().err


def _abs_config(**barrier):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["barrier"] = {"value": "abs(x1) - 1", "smoothness": "lipschitz",
                      "singular": "x1 == 0", **barrier}
    cfg["initial"] = "abs(x1) <= 0.5"
    cfg["unsafe"] = "abs(x1) > 1.2"
    return cfg


def test_verify_gradient_check_without_oracle_is_config_error(tmp_path):
    path = _write_cfg(tmp_path, _abs_config())
    with pytest.raises(ConfigError, match="'robust-strict'.*no gradient oracle"):
        run(path, "verify", check="robust-strict", out=str(tmp_path))


def test_all_skips_weighted_c1_on_lipschitz_candidate_with_oracle(tmp_path):
    path = _write_cfg(tmp_path, _abs_config(gradient=["1 if x1 > 0 else -1"]))
    bundle, code = run(path, "all", out=str(tmp_path))
    ids = [c["check_id"] for c in bundle["checks"]]
    assert ids == ["candidate-signs", "nominal-nonincrease", "robust-strict",
                   "clarke-strict", "uniform-plain"]
    assert code == 0


def _lsc_config():
    cfg = scenarios.builtin_config("linear-stable")
    cfg["barrier"] = {"value": "x1 - 1", "gradient": ["1"], "smoothness": "lsc"}
    cfg["boundary_points"] = [[1.0]]
    return cfg


def test_margin_on_semicontinuous_candidate_exits_two(tmp_path, capsys):
    path = _write_cfg(tmp_path, _lsc_config())
    with pytest.raises(ConfigError, match="smoothness 'lsc'"):
        run(path, "margin", out=str(tmp_path))
    assert main(["margin", path, "--out", str(tmp_path)]) == 2
    assert "'lsc'" in capsys.readouterr().err


def test_all_skips_margin_on_semicontinuous_candidate(tmp_path):
    path = _write_cfg(tmp_path, _lsc_config())
    bundle, code = run(path, "all", out=str(tmp_path))
    assert bundle["margin"] is None
    assert bundle["checks"] and bundle["modulus"]
    assert code == bundle["exit_code"]


def test_clarke_check_selected_for_lipschitz_candidates(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["barrier"] = {"value": "abs(x1) - 1", "smoothness": "lipschitz",
                      "singular": "x1 == 0"}
    cfg["initial"] = "abs(x1) <= 0.5"
    cfg["unsafe"] = "abs(x1) > 1.2"
    path = _write_cfg(tmp_path, cfg)
    bundle, code = run(path, "verify", out=str(tmp_path))
    ids = [c["check_id"] for c in bundle["checks"]]
    # without a gradient oracle only the sign and generalized-gradient
    # checks apply
    assert ids == ["candidate-signs", "clarke-strict"]
    assert code == 0


# ----------------------------------------------------------------------- #
# falsify command
def test_falsify_example1_writes_witness(tmp_path):
    bundle, code = run("example1", "falsify", eps=0.1, out=str(tmp_path))
    assert code == 1
    f = bundle["falsification"]
    assert f["found"] is True
    assert f["notes"] == "interface-escape"
    assert f["policy"] == "constant(1)"
    assert bundle["artifacts"]["trajectory"] == "trajectory-witness.txt"
    text = (tmp_path / "trajectory-witness.txt").read_text().splitlines()
    assert text[0] == "# t x1 B"
    assert len(text) > 10
    first = [float(v) for v in text[1].split()]
    assert first == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("eps", ["0.1", "0.25"])
def test_falsify_example2_hinted_escape_exits_1(tmp_path, eps):
    assert main(["falsify", "example2", "--eps", eps, "--out", str(tmp_path)]) == 1
    bundle = json.loads((tmp_path / "bundle-falsify.json").read_text())
    assert bundle["falsification"]["found"] is True


def test_falsify_requires_eps_or_perturbation(tmp_path):
    with pytest.raises(ConfigError, match="falsify needs"):
        run("linear-stable", "falsify", out=str(tmp_path))


def test_falsify_rejects_nonpositive_eps(tmp_path):
    with pytest.raises(ConfigError, match="--eps"):
        run("linear-stable", "falsify", eps=-1.0, out=str(tmp_path))


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_falsify_rejects_non_finite_eps(tmp_path, capsys, eps):
    assert main(["falsify", "linear-stable", "--eps", eps, "--out", str(tmp_path)]) == 2
    assert "--eps must be positive and finite" in capsys.readouterr().err


def test_mode_flag_requires_perturbation(tmp_path):
    with pytest.raises(ConfigError, match="--mode requires"):
        run("linear-stable", "verify", mode="image", out=str(tmp_path))


def test_falsify_eps_with_mode_none_integrates_the_unperturbed_map(tmp_path):
    # the falsifier must search the map the bundle's flags name: with
    # --mode none that is the map a config's own mode-none perturbation gives
    cfg = scenarios.builtin_config("example1")
    cfg["falsify"] = {"starts": 20, "horizon": 1.0}
    flagged, code = run(_write_cfg(tmp_path, cfg), "falsify", eps=0.1, mode="none", out=str(tmp_path))
    cfg["perturbation"] = {"margin": 0.1, "mode": "none"}
    own, _ = run(_write_cfg(tmp_path, cfg), "falsify", out=str(tmp_path))
    assert code == 0 and flagged["flags"]["mode"] == "none"
    assert flagged["falsification"]["found"] is False
    assert {**flagged["falsification"], "eps": None} == own["falsification"]
    # in strong mode the same search finds the interface escape
    assert run(_write_cfg(tmp_path, cfg), "falsify", eps=0.1, mode="strong", out=str(tmp_path))[1] == 1


def test_falsify_step_follows_the_perturbation_wherever_it_was_set(tmp_path):
    # the Euler step, and with it the exit threshold, follows a constant
    # margin given by --eps and one from the config's own perturbation alike
    cfg = scenarios.builtin_config("linear-stable")
    cfg["falsify"] = {"starts": 4, "horizon": 0.5}
    flagged, _ = run(_write_cfg(tmp_path, cfg), "falsify", eps=0.01, out=str(tmp_path))
    cfg["perturbation"] = {"margin": 0.01, "mode": "strong"}
    own, _ = run(_write_cfg(tmp_path, cfg), "falsify", out=str(tmp_path))
    assert flagged["falsification"]["threshold"] == pytest.approx(0.00404)
    assert own["falsification"]["threshold"] == pytest.approx(0.00404)
    assert {**flagged["falsification"], "eps": None} == own["falsification"]


def test_falsify_eps_keeps_the_config_sensing_margin(tmp_path):
    # noisy-loop's perturbation has margin 0.1 and sensing margin 0.05; an
    # --eps of 0.1 re-wraps the map with the same two margins
    cfg = scenarios.builtin_config("noisy-loop")
    cfg["falsify"] = {"starts": 4, "horizon": 0.5}
    path = _write_cfg(tmp_path, cfg)
    flagged, _ = run(path, "falsify", eps=0.1, out=str(tmp_path))
    own, _ = run(path, "falsify", out=str(tmp_path))
    assert own["falsification"]["threshold"] == pytest.approx(0.0215)
    assert {**flagged["falsification"], "eps": None} == own["falsification"]


def test_falsify_uses_config_perturbation_and_budget(tmp_path):
    bundle, code = run("noisy-loop", "falsify", out=str(tmp_path))
    assert code == 0
    f = bundle["falsification"]
    assert f["found"] is False
    assert f["eps"] is None  # integrated the config's own perturbed dynamics
    assert f["tried"] == 48  # 24 configured starts, two default policies
    assert "trajectory" not in bundle["artifacts"]


def test_falsify_starts_from_the_hints_of_a_config_named_after_a_builtin(tmp_path):
    cfg = scenarios.builtin_config("example1")
    cfg["hints"] = [{"x0": [-0.01], "velocity": ["0.5"], "label": "own-hint"}]
    bundle, code = run(_write_cfg(tmp_path, cfg), "falsify", eps=0.1, out=str(tmp_path))
    assert code == 1
    f = bundle["falsification"]
    assert (f["start"], f["notes"], f["policy"]) == ([-0.01], "own-hint", "own-hint")
    # the builtin keeps its own interface hint
    f = run("example1", "falsify", eps=0.1, out=str(tmp_path))[0]["falsification"]
    assert (f["start"], f["notes"], f["policy"]) == ([0.0], "interface-escape", "constant(1)")


def test_density_flag_overrides_the_config_margin_density(tmp_path):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["margin"] = {"density": 3}
    bundle, _ = run(_write_cfg(tmp_path, cfg), "margin", density=5, out=str(tmp_path))
    assert bundle["margin"]["flags"]["density"] == 5
    bundle, _ = run(_write_cfg(tmp_path, cfg), "margin", out=str(tmp_path))
    assert bundle["margin"]["flags"]["density"] == 3


def test_integral_floats_in_integer_fields_give_the_bundle_of_ints(tmp_path):
    # the schema takes 3.0 for an integer field; counts, densities and seeds
    # must reach the library as ints, or the bundle prints 3.0 and the
    # search cannot draw 3.0 starts
    def bundle(number):
        cfg = scenarios.builtin_config("linear-stable")
        cfg["perturbation"] = {"margin": 0.1, "density": number(3)}
        cfg["falsify"] = {"starts": number(3), "horizon": 1.0, "seed": number(7)}
        cfg["margin"] = {"rel_tol": 0.01}
        cfg["modulus"] = {"density": number(3), "samples": number(50), "seed": number(2)}
        out, _ = run(_write_cfg(tmp_path, cfg), "all", out=str(tmp_path))
        del out["config_sha256"], out["timestamp"]
        return json.dumps(out, sort_keys=True)

    assert bundle(float) == bundle(int)


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown command"):
        run("linear-stable", "simulate", out=str(tmp_path))
    assert COMMANDS == ("verify", "falsify", "margin", "modulus", "all")


# ----------------------------------------------------------------------- #
# margin / modulus commands
def test_margin_command_linear(tmp_path):
    bundle, code = run("linear-stable", "margin", out=str(tmp_path))
    assert code == 0
    assert bundle["margin"]["eps_star"] == pytest.approx(0.5, abs=0.01)
    assert bundle["margin"]["verdict"] == "pass-numeric"


def test_margin_with_tolerance_below_float_spacing_returns(tmp_path):
    # the schema takes any positive rel_tol; bisection used to loop forever
    # once its bracket ends were adjacent floats
    cfg = scenarios.builtin_config("linear-stable")
    cfg["margin"] = {"rel_tol": 1e-17}
    path = _write_cfg(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "inclusafe.cli", "margin", path, "--out", str(tmp_path / "out")],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "out" / "bundle-margin.json", encoding="utf-8") as fh:
        assert json.load(fh)["margin"]["eps_star"] == pytest.approx(0.5, abs=0.01)


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy serves only Qhull, which no command reaches below the pruning
    # threshold; importing it would double every command's start-up time
    code = "import sys, inclusafe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_margin_command_example1_exits_one(tmp_path):
    bundle, code = run("example1", "margin", out=str(tmp_path))
    assert code == 1
    assert bundle["margin"]["eps_star"] == 0.0
    assert bundle["margin"]["witness"] == [0.0]


def test_modulus_command_writes_tables(tmp_path):
    bundle, code = run("linear-stable", "modulus", out=str(tmp_path))
    assert code == 0
    mod = bundle["modulus"]
    assert mod["degenerate"] is True
    assert mod["verification"]["passed"] is True
    assert mod["verification"]["min_slack"] >= -1e-9
    assert bundle["artifacts"]["modulus_tables"] == "modulus-tables.json"
    tables = json.loads((tmp_path / "modulus-tables.json").read_text())
    assert tables["kind"] == "degenerate"


def test_weighted_check_uses_the_configs_modulus(tmp_path):
    cfg = scenarios.builtin_config("example2")
    cfg["modulus"] = {"log_step": 2.0}
    bundle, _ = run(_write_cfg(tmp_path, cfg), "verify", check="uniform-weighted-c1", out=str(tmp_path))
    scenario = scenarios.bundle_from_config(cfg).scenario
    want = checker.check_uniform_weighted(scenario, boundary_extract(scenario),
                                          build_modulus(scenario.dynamics, log_step=2.0), "C1")
    assert bundle["checks"][0]["margin"] == want.margin


@pytest.mark.parametrize("command, builds", [("verify", 0), ("modulus", 1), ("all", 1)])
def test_one_modulus_per_run(tmp_path, monkeypatch, command, builds):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return build_modulus(*args, **kwargs)

    monkeypatch.setattr(cli, "build_modulus", counted)
    run("linear-stable", command, out=str(tmp_path))
    assert len(calls) == builds


@pytest.mark.parametrize("barrier, reason", [
    ("sqrt(x1 + 1.5) - 1", "undefined on the grid: math domain error"),
    ("log(x1 + 2) - 0.5", "undefined on the grid: math domain error"),
    ("x1 - 1 + 0/x1", "not finite at grid node [0.0]"),
])
def test_barrier_undefined_on_the_grid_exits_two(tmp_path, capsys, barrier, reason):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["barrier"] = {"value": barrier, "smoothness": "C1"}
    assert main(["verify", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"barrier B = {barrier} is {reason}" in err


def test_barrier_squared_past_float_range_exits_two(tmp_path, capsys):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["box"] = [[-1e200, 1e200]]
    cfg["barrier"] = {"value": "x1**2 - 1", "smoothness": "C1"}
    assert main(["verify", _write_cfg(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    assert "barrier B = x1**2 - 1 is not finite" in capsys.readouterr().err


def test_clarke_tolerances_reach_clarke_check_and_margin(tmp_path, monkeypatch):
    cfg = _abs_config()
    default = run(_write_cfg(tmp_path, cfg), "verify", check="clarke-strict", out=str(tmp_path))[0]
    cfg["tolerances"] = {"clarke_samples": 6, "clarke_radius_scale": 0.02}
    path = _write_cfg(tmp_path, cfg)
    seen = []
    real = checker.clarke_gradient

    def spy(bar, x, radius=None, samples=None):
        seen.append((radius / (1.0 + np.linalg.norm(x)), samples))
        return real(bar, x, radius, samples)

    monkeypatch.setattr(checker, "clarke_gradient", spy)
    bundles = {}
    for command, kw in (("verify", {"check": "clarke-strict"}), ("margin", {})):
        seen.clear()
        bundles[command] = run(path, command, out=str(tmp_path), **kw)[0]
        assert seen and all(r == pytest.approx(0.02) and s == 6 for r, s in seen)
    # fewer gradient samples, fewer (sample, zeta) pairs
    assert bundles["verify"]["checks"][0]["samples"] < default["checks"][0]["samples"]


@pytest.mark.parametrize("command", ["modulus", "all"])
@pytest.mark.parametrize("log_step", [0.3, 50])
def test_misaligned_modulus_log_step_exits_two_before_any_stage(tmp_path, capsys, monkeypatch, command, log_step):
    cfg = scenarios.builtin_config("linear-stable")
    cfg["modulus"] = {"log_step": log_step}
    path = _write_cfg(tmp_path, cfg)
    monkeypatch.setattr(cli, "boundary_extract", lambda *a: pytest.fail("a stage ran"))
    monkeypatch.setattr(cli, "build_modulus", lambda *a, **k: pytest.fail("a stage ran"))
    out = tmp_path / "out"
    assert main([command, path, "--out", str(out)]) == 2
    assert "/modulus/log_step" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------- #
# flags, hashing, reproducibility
def test_box_scale_flag(tmp_path):
    bundle, code = run("linear-stable", "verify", box_scale=0.75, out=str(tmp_path))
    assert code == 0
    assert bundle["flags"]["box_scale"] == 0.75
    with pytest.raises(ConfigError, match="--box-scale"):
        run("linear-stable", "verify", box_scale=0.0, out=str(tmp_path))


def test_config_hash_covers_load_not_flags(tmp_path):
    a, _ = run("linear-stable", "verify", out=str(tmp_path / "a"))
    b, _ = run("linear-stable", "verify", box_scale=0.75, out=str(tmp_path / "b"))
    assert a["config_sha256"] == b["config_sha256"]
    c, _ = run("example1", "verify", check="nominal-nonincrease", out=str(tmp_path / "c"))
    assert c["config_sha256"] != a["config_sha256"]


def test_bundles_reproducible_modulo_timestamp(tmp_path):
    a, _ = run("linear-stable", "verify", seed=7, out=str(tmp_path / "a"))
    b, _ = run("linear-stable", "verify", seed=7, out=str(tmp_path / "b"))
    ta = json.loads((tmp_path / "a" / "bundle-verify.json").read_text())
    tb = json.loads((tmp_path / "b" / "bundle-verify.json").read_text())
    ta.pop("timestamp"), tb.pop("timestamp")
    assert json.dumps(ta, sort_keys=True) == json.dumps(tb, sort_keys=True)


class _PerPointCall(BaseException):
    """Raised by the patched per-point oracles; no ``except Exception``
    around the batched calls can swallow it."""


@pytest.mark.parametrize("name", scenarios.BUILTIN)
def test_verify_and_margin_make_no_per_point_barrier_calls(tmp_path, monkeypatch, name):
    want = {command: run(name, command, out=str(tmp_path))[0] for command in ("verify", "margin")}

    def per_point(self, x):
        raise _PerPointCall(np.asarray(x).tolist())

    monkeypatch.setattr(BarrierCandidate, "gradient_at", per_point)
    monkeypatch.setattr(BarrierCandidate, "value_at", per_point)
    for command, bundle in want.items():
        got = run(name, command, out=str(tmp_path))[0]
        assert {**got, "timestamp": None} == {**bundle, "timestamp": None}


def _mismatched(name, edit):
    cfg = scenarios.builtin_config(name)
    edit(cfg)
    return cfg


_WRONG_LENGTHS = {
    "/barrier/gradient: 2 components, dimension 1": _mismatched(
        "linear-stable", lambda c: c["barrier"].update(gradient=["1", "0"])),
    "/dynamics/pieces/0/image/components: 1 components, dimension 2": _mismatched(
        "example2", lambda c: c["dynamics"]["pieces"][0]["image"].update(components=["0"])),
    "/dynamics/pieces/0/image/points/0: 2 components, dimension 1": _mismatched(
        "example1", lambda c: c["dynamics"]["pieces"][0]["image"].update(points=[[2.0, 1.0]])),
    "/dynamics/pieces/0/image/matrix/0: 2 components, dimension 1": _mismatched(
        "linear-stable", lambda c: c["dynamics"]["pieces"][0]["image"].update(matrix=[[-1.0, 0.0]])),
    "/hints/0/velocity: 2 components, dimension 1": _mismatched(
        "example1", lambda c: c["hints"][0].update(velocity=["1", "2"])),
}


@pytest.mark.parametrize("message", list(_WRONG_LENGTHS))
@pytest.mark.parametrize("command", ["verify", "margin", "falsify"])
def test_config_vector_of_wrong_length_exits_two_before_any_stage(tmp_path, capsys, monkeypatch,
                                                                 message, command):
    path = _write_cfg(tmp_path, _WRONG_LENGTHS[message])
    monkeypatch.setattr(cli, "boundary_extract", lambda *a: pytest.fail("a stage ran"))
    monkeypatch.setattr(cli, "falsify", lambda *a, **k: pytest.fail("a stage ran"))
    assert main([command, path, "--eps", "0.1", "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_bundle_is_strict_json(tmp_path):
    bundle, _ = run("example1", "verify", out=str(tmp_path))
    # round-trips through the strictest JSON settings (no NaN/Inf leaks)
    blob = json.dumps(bundle, allow_nan=False, sort_keys=True)
    assert json.loads(blob)["scenario"] == "example1"


# ----------------------------------------------------------------------- #
# entry point
def test_main_prints_check_lines(tmp_path, capsys):
    code = main(["verify", "linear-stable", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[candidate-signs] pass-numeric margin=" in out
    assert "[uniform-plain] pass-numeric margin=" in out
    assert f"bundle: {os.path.join(str(tmp_path), 'bundle-verify.json')}" in out


def test_main_prints_falsify_summary(tmp_path, capsys):
    code = main(["falsify", "example1", "--eps", "0.1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[falsify] found=True" in out
    assert "policy=constant(1)" in out


def test_main_config_error_exit_two(tmp_path, capsys):
    code = main(["verify", "missing.json", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_main_margin_and_modulus_lines(tmp_path, capsys):
    assert main(["margin", "linear-stable", "--out", str(tmp_path)]) == 0
    assert "[margin] eps_star=" in capsys.readouterr().out
    assert main(["modulus", "linear-stable", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[modulus] degenerate=True verified=True" in out


@pytest.mark.parametrize("command, stage", [
    ("verify", "check 'robust-strict'"),
    ("margin", "margin synthesis"),
    ("all", "check 'robust-strict'"),
])
def test_gradient_oracle_that_raises_exits_two_naming_stage_and_point(tmp_path, capsys, partial_oracle,
                                                                      command, stage):
    # the oracle takes sqrt of a negative number at some boundary representatives
    path = _write_cfg(tmp_path, partial_oracle.config)
    assert main([command, path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{stage} cannot run on this scenario: the gradient oracle raises at x=[0.0, -1.0]" in err
    assert "Traceback" not in err
