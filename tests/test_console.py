"""The program as a user runs it: one process per command.

The other CLI tests call `cli.main` in process, so they cannot see what
`run()` adds: the exit code of the process.  These tests run
`python -m entinv.cli`, which ends in `run()` as the installed `entinv`
script does, with `src/` on the path.  They run the README's Examples
block as a shell would under `pipefail`, and check the exit codes and
streams of a classification gap.  The last test runs pytest on a few
probe tests under this repository's pytest settings: every failure is
reported, and a warning is still an error.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from elements import GAP_DOC, padded_gap

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
ENTINV = [sys.executable, "-m", "entinv.cli"]


def _env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def _entinv(args, stdin="", timeout=None):
    return subprocess.run(ENTINV + args, input=stdin, capture_output=True, text=True,
                          env=_env(), timeout=timeout)


def _examples():
    """The lines of the first ```sh block after README's `Examples:` line."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("Examples:")
    begin = lines.index("```sh", start) + 1
    return lines[begin:lines.index("```", begin)]


def test_readme_examples_run():
    stages = 0
    for line in _examples():
        stdout = ""
        for stage in line.split("|"):
            command, *args = shlex.split(stage)
            assert command == "entinv", line
            done = _entinv(args, stdin=stdout)
            assert done.returncode == 0, (stage, done.stderr)
            stdout = done.stdout
            stages += 1
    assert stages


def test_gap_exits_2_with_one_stderr_line():
    done = _entinv(["classify", "-"], stdin=json.dumps(GAP_DOC))
    assert done.returncode == 2
    assert json.loads(done.stdout)["class"] is None
    [line] = done.stderr.splitlines()
    assert line.startswith("classification gap: ")


def test_padded_gap_exits_2_in_bounded_time():
    # the miss check ranks the concise state, so d = 2000 costs no more than d = 2
    done = _entinv(["classify", "-"], stdin=json.dumps(padded_gap(2000)), timeout=60)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("classification gap: ")


def test_explain3_reports_a_gap_as_unmatched():
    done = _entinv(["explain3", "-", "--format", "json"], stdin=json.dumps(GAP_DOC))
    assert done.returncode == 0
    data = json.loads(done.stdout)
    assert (data["class"], data["case"]) == (None, "unmatched")
    assert done.stderr == ""


def test_console_script_is_run():
    # the installed `entinv` adds only this entry point to `python -m entinv.cli`;
    # read with a regex, as Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    scripts = dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', section[1], re.M))
    assert scripts == {"entinv": "entinv.cli:run"}


PROBES = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails_under_hypothesis(x):
    assert x != x


def test_passes():
    pass


def test_warns():
    warnings.warn("a deprecated call", DeprecationWarning)
'''


def test_pytest_settings_report_every_failure(tmp_path):
    # a failing @given test must not end the session: the tests after it run,
    # and a DeprecationWarning a test raises still fails it
    (tmp_path / "test_probes.py").write_text(PROBES, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=_env(),
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed, 1 passed" in output
