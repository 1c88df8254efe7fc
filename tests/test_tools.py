"""The repository's measuring tools, where they can be run without timing anything."""

import subprocess
import sys
from pathlib import Path

BENCH_MATRIX = Path(__file__).resolve().parents[1] / "tools" / "bench_matrix.py"


def test_bench_matrix_refuses_an_unknown_row_by_name():
    done = subprocess.run(
        [sys.executable, str(BENCH_MATRIX), "parent", "change", "--pr", "0", "--change", "x",
         "--rows", "A_500x500,A_9x9"],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert "unknown row 'A_9x9'" in done.stderr and "A_1000x1000" in done.stderr
