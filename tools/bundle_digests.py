"""Print the sha256 of report bundles, timestamp removed, one per line.

    python3 tools/bundle_digests.py > digests.txt

Covers the ``all`` bundle of every builtin scenario and every command of the
benchmark workloads in ``perfbench/workloads.py`` (which includes ``falsify``
at the benchmark's perturbation sizes), run at seed 0.  The program is
imported from ``src/`` of the checkout that holds this file, so running the
script in two checkouts and diffing the outputs shows whether a change moved
any bundle byte.
"""
from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from inclusafe import cli, scenarios  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenarios.BUILTIN:
            bundle, code = cli.run(name, "all", out=os.path.join(tmp, "out"))
            print(f"{workloads.digest(bundle)}  exit={code}  all {name}", flush=True)
        for workload, commands in workloads.WORKLOADS.items():
            paths = workloads.write_configs(commands, 0, os.path.join(tmp, workload))
            for cmd, path in zip(commands, paths):
                bundle, code = cli.run(path, cmd.command, seed=0, out=os.path.join(tmp, "out"),
                                       **cmd.flags)
                print(f"{workloads.digest(bundle)}  exit={code}  {workload}: {cmd.label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
