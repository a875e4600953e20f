"""Byte-exact replay of recorded CLI outputs.

Each entry of ``golden/commands.json`` names one command line, its exit
code and the file under ``golden/`` that holds its exact standard output:
``<name>.csv`` when the argv asks for ``--format csv``, ``<name>.json``
otherwise.  The test replays every command in process and compares the
bytes, so any change to a report (a value, a key, its order or its
formatting) shows up here.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from walkdyn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


def _replay(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("entry", COMMANDS, ids=[e["name"] for e in COMMANDS])
def test_golden_output(entry):
    code, out = _replay(entry["argv"])
    assert code == entry["exit"]
    ext = "csv" if "csv" in entry["argv"] else "json"
    assert out == (GOLDEN / f"{entry['name']}.{ext}").read_text()


def test_every_golden_file_is_named_by_one_command():
    # a retired command must take its recorded output with it
    names = [e["name"] for e in COMMANDS]
    assert len(names) == len(set(names))
    named = {f"{e['name']}.{'csv' if 'csv' in e['argv'] else 'json'}" for e in COMMANDS}
    files = {f.name for f in GOLDEN.iterdir()} - {"commands.json"}
    assert files == named
