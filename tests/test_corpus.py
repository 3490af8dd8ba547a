"""Replay the recorded benchmark corpus in process.

Every line of the in-process workloads must give the recorded stdout
bytes, exit code and error name, by the rule of `perfbench/run.py`.  A
line recorded as a contract (`exit` a list) must end in a named
`WebflatError` with one of those exit codes and nothing on stdout.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import webflat.errors as errors
from webflat.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def _error_name(stderr):
    """Name in the CLI's `error: <Name>: message` line, or None."""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            return line[len("error: "):].split(":", 1)[0]
    return None


def _is_named_error(name):
    cls = getattr(errors, name or "", None)
    return isinstance(cls, type) and issubclass(cls, errors.WebflatError)


def _line_ok(entry):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(entry["argv"])
    stdout, name = out.getvalue(), _error_name(err.getvalue())
    if isinstance(entry["exit"], list):
        return stdout == "" and code in entry["exit"] and _is_named_error(name)
    return stdout == entry["stdout"] and code == entry["exit"] and name == entry["error"]


@pytest.mark.parametrize("workload", ["curvature-q", "curvature-qtheta", "cli-mixed"])
def test_corpus_replays_recorded_output(workload):
    with open(CORPUS / (workload + ".json"), encoding="utf-8") as handle:
        lines = json.load(handle)["lines"]
    assert lines
    failed = [entry["argv"] for entry in lines if not _line_ok(entry)]
    assert not failed, failed
