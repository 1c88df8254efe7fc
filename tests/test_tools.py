"""The repository's measuring tools, where they can be run without timing anything."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from steertrace.cli import main

BENCH_MATRIX = Path(__file__).resolve().parents[1] / "tools" / "bench_matrix.py"


def test_bench_matrix_refuses_an_unknown_row_by_name():
    done = subprocess.run(
        [sys.executable, str(BENCH_MATRIX), "parent", "change", "--pr", "0", "--change", "x",
         "--rows", "A_500x500,A_9x9"],
        capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert "unknown row 'A_9x9'" in done.stderr and "A_1000x1000" in done.stderr



def load_bench_matrix():
    spec = importlib.util.spec_from_file_location("bench_matrix", BENCH_MATRIX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_matrix_hashes_a_sweeps_two_stdouts_apart(capsys):
    bench_matrix = load_bench_matrix()
    argv = ["sweep", "--grid", "40", "surface.n_cols=4", "surface.n_rows=4"]
    assert main(argv) == 0
    stdout = bench_matrix.sha256(capsys.readouterr().out)
    probe, _, calls = bench_matrix.run(BENCH_MATRIX.parents[1], argv, {}, dict(os.environ))
    assert calls == [(0, ("stdout", stdout))] * 2
    assert probe["warm_main_s"] > 0


def test_bench_matrix_hashes_each_calls_output_files(tmp_path):
    bench_matrix = load_bench_matrix()
    trace = tmp_path / "t.jsonl"
    argv = ["simulate", "--out", str(trace), "surface.n_cols=4", "surface.n_rows=4"]
    env = {**os.environ, "SOURCE_DATE_EPOCH": "0"}
    probe, _, calls = bench_matrix.run(BENCH_MATRIX.parents[1], argv, {"trace": trace}, env)
    assert calls == [(0, ("trace", bench_matrix.digest(trace)))] * 2
    assert probe["detect_s"] > 0


def test_bench_matrix_tells_a_warm_call_that_prints_other_bytes(tmp_path):
    # a stand-in package whose main prints how often it has run
    package = tmp_path / "src" / "steertrace"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "gateway.py").write_text("def detect_events(*args):\n    pass\n")
    (package / "cli.py").write_text(
        "import itertools\ncalls = itertools.count()\n"
        "def main(argv):\n    print(next(calls))\n    return 0\n"
    )
    bench_matrix = load_bench_matrix()
    _, _, (first, warm) = bench_matrix.run(tmp_path, ["sweep"], {}, dict(os.environ))
    assert first == (0, ("stdout", bench_matrix.sha256("0\n")))
    assert warm == (0, ("stdout", bench_matrix.sha256("1\n")))


def test_bench_matrix_records_the_quartiles_beside_each_median():
    bench_matrix = load_bench_matrix()
    runs = [{"main_s": v, "minflt": 60} for v in (5.0, 1.0, 4.0, 2.0, 3.0)]
    assert bench_matrix.medians_and_quartiles(runs) == {
        "main_s": 3.0, "main_s_quartiles": [1.5, 4.5], "minflt": 60, "minflt_quartiles": [60, 60],
    }
    assert bench_matrix.medians_and_quartiles(runs[:1])["main_s_quartiles"] == [5.0, 5.0]


def test_bench_matrix_takes_the_probes_peak_rss_before_it_loads_hashlib(tmp_path):
    # a stand-in package whose main prints whether hashlib is loaded while it runs
    package = tmp_path / "src" / "steertrace"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "gateway.py").write_text("def detect_events(*args):\n    pass\n")
    (package / "cli.py").write_text(
        "import sys\ndef main(argv):\n    print('hashlib' in sys.modules)\n    return 0\n"
    )
    bench_matrix = load_bench_matrix()
    _, _, (first, _) = bench_matrix.run(tmp_path, ["sweep"], {}, dict(os.environ))
    assert first == (0, ("stdout", bench_matrix.sha256("False\n")))


def test_bench_matrix_counts_the_warm_calls_page_faults_apart(tmp_path):
    # a stand-in package whose main touches 4,096 fresh pages, on its second call only
    package = tmp_path / "src" / "steertrace"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "gateway.py").write_text("def detect_events(*args):\n    pass\n")
    (package / "cli.py").write_text(
        "import itertools, mmap\ncalls = itertools.count()\n"
        "def main(argv):\n"
        "    if next(calls):\n"
        "        pages = mmap.mmap(-1, 4096 * mmap.PAGESIZE)\n"
        "        pages.madvise(mmap.MADV_NOHUGEPAGE)  # a fault a page\n"
        "        for k in range(0, len(pages), mmap.PAGESIZE):\n"
        "            pages[k] = 1\n"
        "    return 0\n"
    )
    bench_matrix = load_bench_matrix()
    probe, _, _ = bench_matrix.run(tmp_path, ["sweep"], {}, dict(os.environ))
    assert probe["minflt"] < 1024 <= 4096 <= probe["warm_minflt"]


def test_bench_matrix_times_the_import_apart_from_the_call(tmp_path):
    # a stand-in package whose cli sleeps 0.3 s while it is imported and not at all in main
    package = tmp_path / "src" / "steertrace"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "gateway.py").write_text("def detect_events(*args):\n    pass\n")
    (package / "cli.py").write_text(
        "import time\ntime.sleep(0.3)\ndef main(argv):\n    return 0\n"
    )
    bench_matrix = load_bench_matrix()
    probe, command_s, _ = bench_matrix.run(tmp_path, ["sweep"], {}, dict(os.environ))
    assert 0.3 <= probe["import_s"] < command_s
    assert probe["main_s"] < 0.3 and probe["warm_main_s"] < 0.3
