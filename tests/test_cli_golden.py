"""Golden pins for the ``repro`` command line.

Three things are pinned, all from in-process ``main()`` calls run with
``cwd=tmp_path`` and relative paths so no absolute path reaches a pin:

* the sha256 of stdout and stderr and the exit code of a fixed set of
  invocations covering every output-producing command;
* the exact bytes of the run-registry record each recorded command
  appends under a pinned registry clock, plus the ``meta`` object of
  ``--metrics -`` for the commands that set one;
* every parser action of every command and subcommand (help text
  excluded), which fixes the parsed ``Namespace`` that ``argv_digest``
  hashes.

Regenerate a pin only for an intended output change, never to absorb a
refactor: the point is that a change to the CLI"s plumbing leaves all
three byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import pytest

from repro import mdl, reduce_machine
from repro.cli import build_parser, main
from repro.machines import example_machine

#: argv -> (sha256(stdout)[:16], sha256(stderr)[:16], exit code).
INVOCATIONS = {
    "automata example": (
        "f7a8be559a0b6952", "e3b0c44298fc1c14", 0),
    "chaos example --faults drop-usage shift-usage": (
        "682b9aec6f2e02c1", "e3b0c44298fc1c14", 0),
    "diff cydra5 cydra5-subset": (
        "5e59c74e72f1d24b", "e3b0c44298fc1c14", 1),
    "expand cydra5-subset --kernel daxpy": (
        "d65a683d7694c488", "e3b0c44298fc1c14", 0),
    "explain cydra5-subset --loops 3 --format json": (
        "4553999535823e3d", "e3b0c44298fc1c14", 0),
    "fuzz --seed 0 --runs 2": (
        "46cebe881b698116", "e3b0c44298fc1c14", 0),
    "lint --list-rules": (
        "b84472a160266953", "e3b0c44298fc1c14", 0),
    "lint example": (
        "c2fee6426a1dd7c9", "e3b0c44298fc1c14", 0),
    "reduce cydra5-subset --objective word-uses --word-cycles 2": (
        "36c85e7ba35c6a1b", "e3b0c44298fc1c14", 0),
    "reduce example": (
        "6fb48ea7a8c881ad", "e3b0c44298fc1c14", 0),
    "reduce nosuch": (
        "e3b0c44298fc1c14", "acd95a9898175c06", 2),
    "report mips-r3000 --reduce": (
        "a54bded6513e5b31", "e3b0c44298fc1c14", 0),
    "schedule cydra5-subset --kernel daxpy": (
        "3b45b3ca5bd2a6b0", "e3b0c44298fc1c14", 0),
    "schedule cydra5-subset --kernel daxpy --max-units 5": (
        "c1b37031ad24e4ca", "966c3772ab8f2fdf", 3),
    "schedule cydra5-subset --loops 6 --fallback": (
        "cb267f135c51ea4a", "e3b0c44298fc1c14", 0),
    "schedule cydra5-subset --loops 8 --corpus": (
        "495e60851ca74d7f", "e3b0c44298fc1c14", 0),
    "show alpha21064": (
        "dfd205df9a9d2b46", "e3b0c44298fc1c14", 0),
    "show buffered-pu": (
        "ea0db7052ce3840b", "e3b0c44298fc1c14", 0),
    "show clustered-vliw": (
        "344c6050b4ffd4e6", "e3b0c44298fc1c14", 0),
    "show cydra5": (
        "25c5fd1935d46e0e", "e3b0c44298fc1c14", 0),
    "show cydra5-subset": (
        "74029f9de3ffa55f", "e3b0c44298fc1c14", 0),
    "show example": (
        "b2431a1556ed0951", "e3b0c44298fc1c14", 0),
    "show mips-r3000": (
        "d72705117c905cfb", "e3b0c44298fc1c14", 0),
    "show playdoh": (
        "598e28d30a30ab98", "e3b0c44298fc1c14", 0),
    "stats cydra5": (
        "8b8315038ae3d6e6", "e3b0c44298fc1c14", 0),
    "table alpha21064": (
        "83ae127167d3872e", "e3b0c44298fc1c14", 0),
    "verify example example": (
        "d9e66b7882c6818c", "e3b0c44298fc1c14", 0),
}

#: argv (``--runlog rl`` appended) -> sha256 of the record file bytes.
RECORDS = {
    "bench run example --quick --corpus-loops 0 --representations discrete":
        "fb8c7a79625c8fbd",
    "certify example reduced.mdl":
        "d9275d5d9d2bbb16",
    "chaos example --faults drop-usage shift-usage":
        "5315df54bc2157ef",
    "explain cydra5-subset --loops 3":
        "be597466a7823064",
    "fuzz --seed 0 --runs 2":
        "bce21282cca520fd",
    "profile cydra5-subset --kernel daxpy":
        "fd4998ba0f058751",
    "reduce example":
        "4fcc4d153f134ef2",
    "reduce example --max-units 100000":
        "6542a9f66d0b6fdc",
    "schedule cydra5-subset --kernel daxpy":
        "4fb3567fdc1ef311",
    "schedule cydra5-subset --kernel daxpy --max-units 5":
        "6fdd2f7587f2b0cc",
    "schedule cydra5-subset --loops 3 --fallback":
        "4bea28650e7a0a15",
    "schedule cydra5-subset --loops 4 --corpus":
        "efea1d63a4f2f89f",
}

#: argv (``--metrics -`` appended) -> the metrics document's ``meta``.
METRICS_META = {
    "automata example": {
        "command": "automata", "factor": "unit", "machine": "paper-example",
    },
    "chaos example --faults drop-usage": {
        "command": "chaos", "machine": "paper-example", "seed": 0,
    },
    "explain cydra5-subset --loops 3": {
        "command": "explain",
        "kernel": "suite[3]",
        "machine": "cydra5-subset",
        "representation": "discrete",
    },
    "fuzz --seed 0 --runs 1": {
        "command": "fuzz", "profile": "mixed", "seed": 0,
    },
    "profile cydra5-subset --kernel daxpy": {
        "kernel": "daxpy",
        "machine": "cydra5-subset",
        "objective": "res-uses",
        "representation": "discrete",
        "scheduled_on": "original",
        "word_cycles": 1,
    },
    "reduce example": {
        "command": "reduce",
        "machine": "paper-example",
        "objective": "res-uses",
        "word_cycles": 1,
    },
    "schedule cydra5-subset --kernel daxpy": {
        "command": "schedule",
        "kernel": "daxpy",
        "machine": "cydra5-subset",
        "representation": "discrete",
    },
    "schedule cydra5-subset --loops 4 --corpus": {
        "command": "schedule",
        "kernel": "suite[4]",
        "machine": "cydra5-subset",
        "representation": "batch",
    },
}

#: Every parser's actions, as :func:`parser_actions` describes them.
PARSER_ACTIONS = os.path.join(
    os.path.dirname(__file__), "fixtures", "cli_parser_actions.json"
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_RUNLOG", raising=False)
    monkeypatch.setenv("REPRO_RUNLOG_CLOCK", "1000")
    mdl.dump_file(reduce_machine(example_machine()).reduced, "reduced.mdl")
    return tmp_path


def run_invocation(argv: str, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    return _digest(captured.out), _digest(captured.err), code


def run_record(argv: str, capsys):
    code = main(argv.split() + ["--runlog", "rl"])
    capsys.readouterr()
    names = sorted(os.listdir("rl"))
    assert len(names) == 1, (argv, code, names)
    with open(os.path.join("rl", names[0]), "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest()[:16], data


def run_metrics_meta(argv: str, capsys):
    main(argv.split() + ["--metrics", "-"])
    return json.loads(capsys.readouterr().out)["meta"]


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _describe(action) -> list:
    choices = action.choices
    if isinstance(choices, dict):
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    kind = getattr(action.type, "__name__", None)
    return [
        list(action.option_strings), action.dest, repr(action.default),
        choices, action.nargs, kind, bool(action.required),
    ]


def parser_actions(parser=None, prefix="repro") -> dict:
    """``{command path: {"positionals": [...], "options": [...]}}``.

    Positionals keep their order (it is part of the command line);
    options are sorted so a reordered declaration is not a change.
    """
    parser = parser or build_parser()
    positionals = [
        _describe(a) for a in parser._actions if not a.option_strings
    ]
    options = sorted(
        (_describe(a) for a in parser._actions if a.option_strings),
        key=json.dumps,
    )
    table = {prefix: {"positionals": positionals, "options": options}}
    for name, child in sorted(_subparsers(parser).items()):
        table.update(parser_actions(child, prefix + " " + name))
    return table


@pytest.mark.parametrize("argv", sorted(INVOCATIONS))
def test_invocation_output(argv, workdir, capsys):
    assert run_invocation(argv, capsys) == INVOCATIONS[argv]


@pytest.mark.parametrize("argv", sorted(RECORDS))
def test_runlog_record_bytes(argv, workdir, capsys):
    digest, data = run_record(argv, capsys)
    assert digest == RECORDS[argv], data.decode("utf-8")


@pytest.mark.parametrize("argv", sorted(METRICS_META))
def test_metrics_meta(argv, workdir, capsys):
    assert run_metrics_meta(argv, capsys) == METRICS_META[argv]


def test_parser_actions():
    with open(PARSER_ACTIONS, encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = json.loads(json.dumps(parser_actions()))
    assert sorted(actual) == sorted(expected)
    for command in sorted(expected):
        assert actual[command] == expected[command], command
