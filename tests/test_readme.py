"""The README's library example runs against the package's top level."""

import contextlib
import io
import re
from pathlib import Path

import steertrace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert "\nTrue\n" in out.getvalue()  # the trace read back summarizes as simulated


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from steertrace import *", namespace)
    assert set(steertrace.__all__) <= namespace.keys()
