"""``repro`` start-up cost: importing the CLI, and running a command that
needs none of them, loads no scheduling, query, workload or tooling
subsystem.  Each check runs in a fresh interpreter, since this test
process has long since imported everything."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SUBSYSTEMS = (
    "repro.analysis",
    "repro.automata",
    "repro.bench",
    "repro.fuzz",
    "repro.lint",
    "repro.query",
    "repro.resilience",
    "repro.scheduler",
    "repro.stats",
    "repro.workloads",
)

PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in %r)
    )

import repro.cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(["show", "example"])
print(json.dumps({"code": code, "import": after_import, "show": loaded()}))
""" % (SUBSYSTEMS,)


def test_import_and_show_load_no_subsystem():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    probe = json.loads(completed.stdout)
    assert probe["code"] == 0
    assert probe["import"] == []
    assert probe["show"] == []
