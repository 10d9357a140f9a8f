import io
import json
import subprocess
import sys

import numpy as np
import pytest

from emergelab import cli, eca, life
from emergelab.fixtures import fixture_path

from .oracles import eca_cells_reference, pbm_reference, text_reference

GLIDER = str(fixture_path("glider.rle"))
SUCC = str(fixture_path("succ_enum.tm"))
COPY = str(fixture_path("copy_last_block.tm"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# PBM rendering

def test_render_pbm_single_black_pixel():
    assert cli.render_pbm([[1]]) == b"P4\n1 1\n\x80"


def test_render_pbm_white_byte():
    assert cli.render_pbm([[0] * 8]) == b"P4\n8 1\n\x00"


def test_render_pbm_pads_rows_msb_first():
    assert cli.render_pbm([[1] * 9]) == b"P4\n9 1\n\xff\x80"


def test_render_pbm_comment_and_rows():
    data = cli.render_pbm([[1, 0], [0, 1]], comment="marker")
    assert data == b"P4\n# marker\n2 2\n\x80\x40"


def test_render_pbm_rejects_empty():
    with pytest.raises(cli.EmptyImage):
        cli.render_pbm(np.zeros((0, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# argument handling

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["eca", "--rule", "300", "--steps", "2"])
    assert err.value.code == 2


def test_unknown_flag_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["eca", "--frobnicate"])
    assert err.value.code == 2


def test_parse_args_maps_options():
    args = cli.parse_args(["eca", "--rule", "30", "--steps", "100"])
    assert (args.command, args.rule, args.steps) == ("eca", 30, 100)
    args = cli.parse_args(["ant", "--steps", "20000", "--detect-highway"])
    assert args.command == "ant" and args.detect_highway


# ---------------------------------------------------------------------------
# subcommands

def test_eca_pbm_is_sierpinski(tmp_path, capsys):
    out = tmp_path / "r90.pbm"
    code, _, _ = run_cli(capsys, "eca", "--rule", "90", "--steps", "64",
                         "--out", str(out))
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"P4\n")
    header, rest = data.split(b"\n", 1)
    comment, dims, pixels = rest.split(b"\n", 2)
    width, height = map(int, dims.split())
    assert (width, height) == (129, 65)
    rows = np.unpackbits(
        np.frombuffer(pixels, dtype=np.uint8).reshape(height, -1),
        axis=1)[:, :width]
    # row n black exactly where C(n, k) is odd
    from .oracles import binomial_parity_row
    for n in (0, 1, 13, 64):
        expected = {64 + c for c in binomial_parity_row(n)}
        assert set(np.flatnonzero(rows[n]).tolist()) == expected


def test_eca_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
    run_cli(capsys, "eca", "--rule", "110", "--steps", "32", "--out", str(a))
    run_cli(capsys, "eca", "--rule", "110", "--steps", "32", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


ECA_RENDER_CASES = [
    # (rule, steps, seed, cyclic width)
    (30, 40, None, None),
    (110, 33, "#..##.#", None),
    (90, 17, "...#.#..", None),
    (150, 9, "....", None),  # empty seed: every row white
    (22, 0, "#.#", None),
    (30, 50, None, 37),
    (45, 24, None, 24),
    (255, 5, None, 1),
    (105, 12, None, 3),
    (73, 30, None, 64),
]


@pytest.mark.parametrize("rule,steps,seed,width", ECA_RENDER_CASES)
def test_eca_text_and_pbm_match_naive_renderer(tmp_path, capsys, rule, steps, seed, width):
    argv = ["eca", "--rule", str(rule), "--steps", str(steps)]
    if seed is not None:
        argv += ["--seed", seed]
    if width is not None:
        argv += ["--cyclic-width", str(width)]
    grid = eca_cells_reference(eca.parse_rule(rule), seed, steps, width)
    code, out, _ = run_cli(capsys, *argv, "--text")
    assert code == 0 and out == text_reference(grid)
    pbm = tmp_path / "out.pbm"
    code, out, _ = run_cli(capsys, *argv, "--out", str(pbm))
    assert code == 0 and out == ""
    assert pbm.read_bytes() == pbm_reference(grid, f"rule {rule}")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == (f"rule={rule}\nsteps={steps}\n"
                                 f"final_population={sum(grid[-1])}\n")


def test_eca_text_spanning_several_write_blocks():
    # rows are written about 1 MB at a time: 400k-cell rows go two per block
    grid = np.random.default_rng(5).integers(0, 2, (3, 400_000), dtype=np.uint8)
    out = io.StringIO()
    cli._write_text(grid, out)
    assert out.getvalue() == text_reference(grid.tolist())


@pytest.mark.parametrize("width", ["0", "-3"])
def test_eca_cyclic_width_must_be_positive(capsys, width):
    with pytest.raises(SystemExit) as err:
        cli.main(["eca", "--rule", "30", "--steps", "4", "--cyclic-width", width])
    assert err.value.code == 2
    assert "--cyclic-width" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--cyclic-width", "8"]])
def test_eca_row_cap_applies_in_both_modes(capsys, extra):
    code, out, err = run_cli(capsys, "eca", "--rule", "30", "--steps", "20000", *extra)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "cap of 10000" in err
    code, _, err = run_cli(capsys, "eca", "--rule", "30", "--steps", "20",
                           "--max-rows", "20", *extra)
    assert code == 1 and "cap of 20" in err
    code, _, _ = run_cli(capsys, "eca", "--rule", "30", "--steps", "20",
                         "--max-rows", "21", *extra)
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["eca", "--rule", "30", "--steps", "-1"],
    ["eca", "--rule", "30", "--steps", "-1", "--cyclic-width", "8"],
    ["analyze", "--rule30-center", "0"],
    ["analyze", "--rule30-center", "-5"],
    ["eca", "--rule", "30", "--steps", "3", "--seed", "#x#"],
])
def test_eca_and_analyze_domain_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_life_run_bbox_report(capsys):
    code, out, _ = run_cli(capsys, "life", "run", "--rle", GLIDER,
                           "--steps", "4", "--print", "bbox")
    assert code == 0
    assert "bbox=1,1,3,3" in out
    assert "population=5" in out


def test_life_fate_report(capsys):
    code, out, _ = run_cli(capsys, "life", "fate", "--rle", GLIDER,
                           "--budget", "16")
    assert code == 0
    assert "verdict=translator" in out and "period=4" in out


def test_life_reads_plaintext_cells_files(capsys):
    code, out, _ = run_cli(capsys, "life", "run",
                           "--rle", str(fixture_path("glider.cells")),
                           "--steps", "0")
    assert code == 0 and "population=5" in out


def test_life_run_writes_rle(tmp_path, capsys):
    out_rle = tmp_path / "out.rle"
    run_cli(capsys, "life", "run", "--rle", GLIDER, "--steps", "4",
            "--out-rle", str(out_rle))
    moved = life.parse_rle(out_rle.read_text())
    original = life.parse_rle(fixture_path("glider.rle").read_text())
    assert moved == life.canonical(life.run(original, 4))[0]


def test_ant_highway_report(capsys):
    code, out, _ = run_cli(capsys, "ant", "--steps", "20000", "--detect-highway")
    assert code == 0
    assert "found=true" in out
    assert "period=104" in out


def test_ant_json_report(capsys):
    code, out, _ = run_cli(capsys, "--json", "ant", "--steps", "500")
    assert code == 0
    report = json.loads(out)
    assert report["steps"] == 500 and report["heading"] in "NESW"


def test_ant_pbm_has_marker_comment(tmp_path, capsys):
    out = tmp_path / "ant.pbm"
    run_cli(capsys, "ant", "--steps", "500", "--out", str(out))
    header = out.read_bytes().split(b"\n")[1]
    assert header.startswith(b"# ant ")


def test_tm_run_trace_lines(capsys):
    code, out, _ = run_cli(capsys, "tm", "run", "--machine", SUCC,
                           "--input", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["1", "1", "6"]
    assert lines[1].split()[:2] == ["2", "2"]
    assert lines[2].split()[:2] == ["3", "3"]
    assert "halted=true" in out


def test_tm_budget_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "tm", "run", "--machine", SUCC,
                           "--input", "3", "--budget", "5")
    assert code == 1
    assert "budget" in err


def test_tm_audit_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "tm", "audit", "--approx", SUCC,
                           "--finisher", COPY, "--max-index", "10",
                           "--identity-values", "--timing-from", SUCC)
    assert code == 0 and "verdict=pass" in out
    code, out, _ = run_cli(capsys, "tm", "audit", "--approx", SUCC,
                           "--finisher", SUCC, "--max-index", "10",
                           "--identity-values", "--timing-from", SUCC)
    assert code == 0 and "verdict=fail" in out


def test_tm_compose(capsys):
    code, out, _ = run_cli(capsys, "tm", "compose", "--approx", SUCC,
                           "--finisher", COPY, "--input", "5")
    assert code == 0 and "value=5" in out


def test_candidate_subcommands(capsys):
    code, out, _ = run_cli(capsys, "candidate", "sqrt-digits", "--m", "2",
                           "--count", "5")
    assert code == 0 and "digits=41421" in out
    code, out, _ = run_cli(capsys, "candidate", "digit-chain", "--sqrt", "2",
                           "--n", "2")
    assert code == 0 and "values=4,1421" in out
    code, out, _ = run_cli(capsys, "candidate", "words", "--index", "8")
    assert code == 0 and "word=000" in out
    code, out, _ = run_cli(capsys, "candidate", "language-count", "--dfa",
                           str(fixture_path("even_ones.dfa")), "--n", "4")
    assert code == 0 and "count=2" in out
    code, out, _ = run_cli(capsys, "candidate", "life-survival", "--n", "15")
    assert code == 0 and "survivors=5" in out


def test_analyze_rule30(capsys):
    code, out, _ = run_cli(capsys, "--json", "analyze", "--rule30-center",
                           "1024", "--block-k", "4", "--max-period", "64")
    assert code == 0
    report = json.loads(out)
    assert report["bits"] == 1024
    assert 0.4 < report["ones_fraction"] < 0.6
    assert report["no_short_period_64"] == "true"


def test_analyze_bits_file(tmp_path, capsys):
    path = tmp_path / "bits.txt"
    path.write_text("0101 0101\n0101\n")
    code, out, _ = run_cli(capsys, "analyze", "--bits-file", str(path))
    assert code == 0 and "ones_fraction=0.5" in out


def test_domain_error_is_one_line(capsys):
    code, _, err = run_cli(capsys, "life", "run", "--rle", "/nonexistent.rle",
                           "--steps", "1")
    assert code == 1
    assert len(err.strip().splitlines()) == 1


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMERGELAB_BUDGET", "5")
    code, _, err = run_cli(capsys, "tm", "run", "--machine", SUCC, "--input", "3")
    assert code == 1 and "budget of 5" in err
    monkeypatch.setenv("EMERGELAB_BUDGET", "junk")
    code, _, err = run_cli(capsys, "tm", "run", "--machine", SUCC, "--input", "3")
    assert code == 1 and "EMERGELAB_BUDGET" in err


def test_module_invocation_round_trip(tmp_path):
    """The installed entry point behaves like the in-process main."""
    result = subprocess.run(
        [sys.executable, "-m", "emergelab", "candidate", "words", "--index", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "word=1" in result.stdout
