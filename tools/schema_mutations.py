"""Freeze the JSON Schema Draft 2020-12 verdicts on single-field mutations of
the builtin configs into ``tests/data/schema_mutations.json``.

    python3 tools/schema_mutations.py

Every field of every builtin config (each dict value and each list item, at
any depth) is set in turn to each of twelve values of assorted JSON types,
or deleted.  For each mutated config the table records the sorted JSON
paths of the errors that ``jsonschema.Draft202012Validator`` reports
against ``cli.SCHEMA``.  ``tests/test_cli.py`` checks that ``load_config``
reports the same paths.

jsonschema serves here only as the reference implementation: the program
does not import it, and this script is the one place that needs it.  Run
it again after changing ``cli.SCHEMA`` and review the diff of the table.
"""
from __future__ import annotations

import copy
import json
import os
import sys

from jsonschema import Draft202012Validator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from inclusafe import cli, scenarios  # noqa: E402

TABLE = os.path.join(ROOT, "tests", "data", "schema_mutations.json")
VALUES = (None, True, 0, -1, 1.5, 2, "s", [], [1], [[0, 1]], {}, {"x": 1})


def _fields(node, path=()):
    """The path of every dict value and list item below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _mutated(cfg, path, value=None, delete=False):
    out = copy.deepcopy(cfg)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return out


def main() -> int:
    validator = Draft202012Validator(cli.SCHEMA)

    def errors(cfg):
        found = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
        return ["/" + "/".join(str(p) for p in e.absolute_path) for e in found]

    entries = []
    for name in scenarios.BUILTIN:
        cfg = scenarios.builtin_config(name)
        for path in _fields(cfg):
            for value in VALUES:
                entries.append({"config": name, "path": list(path), "value": value,
                                "errors": errors(_mutated(cfg, path, value))})
            entries.append({"config": name, "path": list(path), "delete": True,
                            "errors": errors(_mutated(cfg, path, delete=True))})
    os.makedirs(os.path.dirname(TABLE), exist_ok=True)
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n")
    print(f"{len(entries)} mutations -> {os.path.relpath(TABLE, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
