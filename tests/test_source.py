"""Limits on the package's own source files."""

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
