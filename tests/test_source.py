"""Limits on the package's own source files."""

import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import steertrace

MODULES = sorted(Path(steertrace.__file__).parent.glob("*.py"))
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_stays_under_the_parsers_token_buffer(path):
    # Past 4,096 tokens CPython's parser doubles its token buffer, and every fresh
    # process that compiles the module (bytecode caching off) pays for that.
    with path.open("rb") as fh:
        count = sum(tok.type not in UNCOUNTED for tok in tokenize.tokenize(fh.readline))
    assert count < 4096, f"{path.name} has {count} tokens"


def test_the_cli_loads_no_module_beyond_numpys_but_json_argparse_and_the_package():
    # Every command pays, in every fresh process, for each module that its import loads;
    # numpy's are not the package's to cut.  The records are plain classes, so neither
    # dataclasses nor copy, which it loads, is among them.
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import steertrace.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(steertrace.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(done.stdout.split())
    package = {"steertrace", *(f"steertrace.{path.stem}" for path in MODULES)} - {
        "steertrace.__init__"}
    assert loaded - package == {
        "__future__", "_json", "argparse", "gettext", "json", "json.decoder", "json.encoder",
        "json.scanner",
    }
    assert package <= loaded
