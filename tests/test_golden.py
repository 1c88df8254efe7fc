"""Golden digests: the exact bytes of traces, a report and a heat map.

The first digests were recorded from the program as it stood before bursts
became arrays, the three of ``test_more_trace_bytes`` before angle sampling
moved to numpy, the first three ``sweep`` stdout digests before the quantizer
dropped its float ``np.mod`` and a grid sweep began to code each direction
once, the PGM heat map and the 100x100 ``metrics`` outputs before the CSV heat
map was formatted once per distinct value, and the two line-path ``sweep``
digests before a zero gradient component began to code one line; any change
to these bytes must show up here and be explained.
"""

import contextlib
import hashlib
import io

import pytest

from steertrace import (
    CaseParams,
    GatewayConfig,
    SurfaceConfig,
    burst_stats,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    destination_matrix,
    export_heatmap,
    run_simulation,
    write_report,
    write_trace,
)
from steertrace.cli import main

EPOCH = "1970-01-01T00:00:00Z"


def sha256_of(write) -> str:
    buf = io.BytesIO()
    write(buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


def test_case_a_trace_report_and_heatmap_bytes(case_a_trace):
    assert sha256_of(lambda b: write_trace(case_a_trace, b, created=EPOCH)) == (
        "f3a8c6b873bd4a51b37b96d8c82fe7d45f82ae16621e6e6ed4a3acffded844f1"
    )
    assert sha256_of(lambda b: write_report(burst_stats(case_a_trace), b, created=EPOCH)) == (
        "975c86cc13de10b160d0567f1db0afa805bebf3f94bb26d42f517bf2bd0326b4"
    )
    assert sha256_of(lambda b: export_heatmap(destination_matrix(case_a_trace), "csv", b)) == (
        "8e62beff6478ae0c535b477962bec3e6dbb9d488f17509f9cf1b16b8017b1b69"
    )
    assert sha256_of(lambda b: export_heatmap(destination_matrix(case_a_trace), "pgm", b)) == (
        "fd7456cb6f9153775e844c664ec9cdd1622b4d0007f6c41f66e4bebb6bb76872"
    )


def test_metrics_outputs_of_case_a_on_a_100x100_surface(tmp_path, monkeypatch):
    """A few large bursts, each a sizeable share of 10,000 cells, through the CLI."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    trace, report, heat = tmp_path / "t.jsonl", tmp_path / "r.jsonl", tmp_path / "h.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--out", str(trace), "surface.n_cols=100",
                     "surface.n_rows=100", "gateway.sample_dt=0.01"]) == 0
        assert main(["metrics", "--trace", str(trace), "--report", str(report),
                     "--heatmap", str(heat)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (trace, report, heat)]
    assert digests == [
        "21b9adda0871d1a1c3aa6f986f0753785fb1867b812208669d5cdc62d10a6beb",
        "160875ab8a68ba707666dad7d5d23f8bb7da238278bd12068d0e4cf8d4fd0407",
        "cb9f93c6fef463bcd07f86a13c6864ae3719ac76564ccbd7b57d4f00bd2e77ce",
    ]


@pytest.mark.parametrize(
    "trajectory, digest",
    [
        (case_b_trajectory(), "296be290d67832308f055257e343952663c3bd78f3e234248abef7b7ff34b594"),
        (
            case_c_trajectory(CaseParams(rng_seed=3)),
            "fc8658162d2ce9328c73805d81fb5d179ca6aae101b94df5bbf8d3ed9cfaed36",
        ),
    ],
    ids=["B", "C-seed-3"],
)
def test_default_trace_bytes(trajectory, digest):
    trace = run_simulation(trajectory, SurfaceConfig(), GatewayConfig())
    assert sha256_of(lambda b: write_trace(trace, b, created=EPOCH)) == digest


@pytest.mark.parametrize(
    "trajectory, gateway, events, digest",
    [
        (
            case_a_trajectory(),
            GatewayConfig(angular_step=1.0),
            86,
            "bf05a95c1248f06bbab2d70a0be6b5716f9aeabe7d320f9e7491504b50eb4791",
        ),
        (
            case_b_trajectory(duration=20.0),
            GatewayConfig(angular_step=2.5),
            75,
            "a8d53661eda3a3e6838c4536866fab39b49db2fb98cbcbc929288683fa133cc6",
        ),
        (
            case_c_trajectory(CaseParams(rng_seed=3), duration=600.0),
            GatewayConfig(),
            259,
            "4835412bdbface5ad26df15191dade107d0d99ddc988aedb436dcfee283a4664",
        ),
    ],
    ids=["A-step-1", "B-20s-step-2.5", "C-600s-seed-3"],
)
def test_more_trace_bytes(trajectory, gateway, events, digest):
    trace = run_simulation(trajectory, SurfaceConfig(), gateway)
    assert len(trace.events) == events
    assert sha256_of(lambda b: write_trace(trace, b, created=EPOCH)) == digest


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            # consecutive steps share a direction: each is coded once
            ("--grid", "0.5", "surface.n_cols=120", "surface.n_rows=120"),
            170,
            "5f114af1bfe1c33f30ad132efa475eceeba015d724d26df71f2cd12710879624",
        ),
        (
            # the phis differ, so no direction repeats; negative raw phases, 5 states
            ("--grid", "5", "--from-phi", "30", "--to-phi", "200", "surface.n_states=5",
             "incidence.theta=30", "incidence.phi=45"),
            17,
            "ed6b3ebe424643312b287a7b64060fef72cce5e4e315f5680ba3f478081a0b7d",
        ),
        (
            ("--from-theta", "62.5", "--to-theta", "17", "--from-phi", "-40", "--to-phi", "95",
             "surface.n_states=3", "incidence.theta=20"),
            1,
            "ec195befd0cfa0f7fae28759516fab0a21538dd11fbc7272a9dd0bac92d23665",
        ),
        (
            # gx == 0: every column of a state matrix holds the same states
            ("--grid", "1", "--from-phi", "90", "--to-phi", "90", "surface.n_cols=30",
             "surface.n_rows=70"),
            85,
            "9af782cd24db2c18c4e155d80a35e40dbbc007b35e50b3f77715ee536b70928e",
        ),
        (
            # oblique incidence in the same plane: gy == 0, every row the same
            ("--grid", "1", "--from-phi", "180", "--to-phi", "180", "surface.n_cols=70",
             "surface.n_rows=30", "incidence.theta=20", "incidence.phi=180"),
            85,
            "e907f7257c1ba93dab227805a7b0085bc96f9ffe51b54eed2b14d9b49887f381",
        ),
    ],
    ids=["grid-0.5-120x120", "grid-5-unequal-phi", "single-pair", "column-line-gx-0",
         "oblique-row-line-gy-0"],
)
def test_sweep_stdout_bytes(argv, lines, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sweep", *argv]) == 0
    assert len(out.getvalue().splitlines()) == lines
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
