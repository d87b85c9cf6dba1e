"""Self-test of the benchmark's tracer and oracle.

    python3 perfbench/selftest.py

Checks that the wrapped integrator counts exactly round(horizon / step)
Euler steps, that uninstalling the tracer leaves no wrapper behind (a plain
run afterwards executes no wrapper frame), and that the oracle flags a
deliberately wrong expected outcome.  It also checks the scaling of times to
reference seconds, and that ``BENCHMARK.json`` names exactly the workloads
and metrics the code reports.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import os
import shutil
import sys
import unittest

import run as bench

bench._import_program()

import layertrace  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402
from inclusafe import cli, flow, scenarios  # noqa: E402


def _command(label: str) -> workloads.Command:
    return next(c for cmds in workloads.WORKLOADS.values() for c in cmds if c.label == label)


class SelfTest(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(bench.WORK, f"selftest-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        if os.path.isdir(bench.WORK) and not os.listdir(bench.WORK):
            os.rmdir(bench.WORK)

    def _run(self, cmd: workloads.Command, seed: int = 0):
        [path] = workloads.write_configs([cmd], seed, self.dir)
        return cli.run(path, cmd.command, seed=seed, out=os.path.join(self.dir, "out"), **cmd.flags)

    def test_integrate_counts_every_step(self):
        sc = scenarios.build("linear-stable").scenario
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traj = flow.integrate(sc.dynamics, [0.0], horizon=0.25, step=1e-3,
                                  policy=flow.random_extreme(), box=sc.box)
            self.assertFalse(traj.exited_box or traj.truncated)
            self.assertEqual(tracer.counts["flow.integrate.steps"], round(0.25 / 1e-3))
            # through the CLI: one sampled start, two policies, no early exit
            cmd = dataclasses.replace(
                _command("falsify linear-stable eps=0.1,mode=strong"),
                overrides={"falsify": {"starts": 1, "horizon": 0.1}},
                expect={"exit": 0, "found": False, "tried": 2},
            )
            bundle, code = self._run(cmd)
        finally:
            tracer.uninstall()
        self.assertEqual(workloads.check(cmd, bundle, code), [])
        self.assertEqual(tracer.spans["flow.integrate"][0], 3)
        self.assertEqual(tracer.counts["flow.integrate.steps"], 250 + 2 * round(0.1 / 1e-3))
        self.assertEqual(tracer.counts["flow.integrate.box_exits"], 0)

    def test_uninstall_removes_every_wrapper(self):
        def snapshot():
            out = {}
            for name, mod in sys.modules.items():
                if name.split(".")[0] == "inclusafe":
                    for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                        out[(name, getattr(owner, "__name__", name))] = dict(vars(owner))
            return out

        before = snapshot()
        tracer = layertrace.Tracer()
        tracer.install()
        self.assertTrue(tracer.leftovers())
        tracer.uninstall()
        self.assertEqual(tracer.leftovers(), [])
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, attrs in before.items():
            self.assertEqual(attrs.keys(), after[key].keys(), key)
            for attr, value in attrs.items():
                self.assertIs(after[key][attr], value, (key, attr))

        seen = set()

        def profile(frame, event, arg):
            if event == "call":
                seen.add(frame.f_code)

        sys.setprofile(profile)
        try:
            self._run(_command("falsify example1 eps=0.5,mode=strong"))
        finally:
            sys.setprofile(None)
        self.assertTrue(seen)
        self.assertFalse(seen & tracer.wrapper_codes)

    def test_oracle_flags_a_wrong_expectation(self):
        cmd = _command("falsify example1 eps=0.5,mode=strong")
        bundle, code = self._run(cmd)
        self.assertEqual(workloads.check(cmd, bundle, code), [])
        wrong = dataclasses.replace(cmd, expect={"exit": 0, "found": False, "start": [1.0]})
        self.assertEqual(len(workloads.check(wrong, bundle, code)), 3)
        again, _ = self._run(cmd)
        self.assertEqual(workloads.digest(bundle), workloads.digest(again))

    def test_times_scale_to_reference_seconds(self):
        # a command timed at 2 s between reference times of 10 ms and 30 ms
        # took 2 s * 5 ms / 20 ms in reference seconds
        self.assertAlmostEqual(bench._scaled(2.0, 0.010, 0.030), 2.0 * bench.REFERENCE_S / 0.020)
        self.assertEqual(bench._midmean([1.0, 2.0, 3.0, 100.0]), 2.5)
        self.assertAlmostEqual(bench._midmean([4.0, 1.0, 9.0]), 14.0 / 3)
        self.assertTrue(gc.isenabled())
        self.assertGreater(bench._reference_s(), 0.0)
        self.assertTrue(gc.isenabled(), "the reference kernel left the garbage collector off")

    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        self.assertEqual(sorted(workloads.WORKLOADS), sorted(bench.KEY_METRICS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], bench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         layertrace.LAYER_METRICS)


if __name__ == "__main__":
    unittest.main()
