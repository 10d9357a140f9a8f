import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emergelab import analysis, ant, candidates, cli, eca, life, turing
from emergelab.errors import EmergeLabError
from emergelab.fixtures import fixture_path

from .oracles import (eca_cells_reference, life_run_dense, pbm_reference,
                      raster_reference, sqrt_text_reference, text_reference,
                      write_rle_reference)

GLIDER = str(fixture_path("glider.rle"))
SUCC = str(fixture_path("succ_enum.tm"))
COPY = str(fixture_path("copy_last_block.tm"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# PBM rendering

def pbm_bytes(tmp_path, rows, width, comment=None):
    path = tmp_path / "out.pbm"
    cli.render_pbm(path, rows, width, comment)
    return path.read_bytes()


def test_render_pbm_single_black_pixel(tmp_path):
    assert pbm_bytes(tmp_path, [1], 1) == b"P4\n1 1\n\x80"


def test_render_pbm_white_byte(tmp_path):
    assert pbm_bytes(tmp_path, [0], 8) == b"P4\n8 1\n\x00"


def test_render_pbm_pads_rows_msb_first(tmp_path):
    assert pbm_bytes(tmp_path, [0x1FF], 9) == b"P4\n9 1\n\xff\x80"


def test_render_pbm_comment_and_rows(tmp_path):
    data = pbm_bytes(tmp_path, [0b01, 0b10], 2, comment="marker")
    assert data == b"P4\n# marker\n2 2\n\x80\x40"


def test_render_pbm_rejects_empty(tmp_path):
    for rows, width in (([], 4), ([0], 0)):
        with pytest.raises(cli.EmptyImage):
            cli.render_pbm(tmp_path / "out.pbm", rows, width)
        assert not (tmp_path / "out.pbm").exists()  # refused before opening


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


def test_eca_seed_and_ring_exclude_each_other(capsys):
    # a ring always starts from its centre cell, so a seed would be ignored
    with pytest.raises(SystemExit) as err:
        cli.main(["eca", "--rule", "30", "--steps", "2", "--cyclic-width", "8",
                  "--seed", "#......#", "--text"])
    out, err_text = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert "not allowed with argument" in err_text.splitlines()[-1]


def test_parse_args_maps_options():
    args = cli.parse_args(["eca", "--rule", "30", "--steps", "100"])
    assert (args.command, args.rule, args.steps) == ("eca", 30, 100)
    args = cli.parse_args(["ant", "--steps", "20000", "--detect-highway"])
    assert args.command == "ant" and args.detect_highway


BACK_TO_BACK = [
    ["eca", "--rule", "30", "--steps", "5"],
    ["tm", "run", "--machine", SUCC, "--input", "5"],
    ["eca", "--rule", "300", "--steps", "1"],
    ["ant", "--steps", "50", "--heading", "E"],
    ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "0",
     "--identity-values", "--timing-from", SUCC],
    ["ant", "--steps", "50"],
    ["eca", "--frobnicate"],
    ["--json", "tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
     "--identity-values", "--timing-from", SUCC],
    ["life", "fate", "--rle", GLIDER, "--budget", "50"],
]


def test_one_parser_serves_commands_back_to_back(capsys):
    # main reuses one parser: commands run in one process, usage errors
    # among them, must print and exit exactly as in fresh processes
    in_process = []
    for argv in BACK_TO_BACK:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    for argv, got in zip(BACK_TO_BACK, in_process):
        fresh = subprocess.run([sys.executable, "-m", "emergelab", *argv],
                               capture_output=True, text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 2, 0, 2, 0, 0]


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
    (30, 3, "", None),  # an explicit empty row is empty too, not one cell
    (22, 0, "#.#", None),
    (1, 0, "#.#", None),  # a background flipper at 0 steps: just the seed
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
    rows = [int("".join(map(str, row[::-1].tolist())), 2) for row in grid]
    out = io.StringIO()
    cli._write_text(rows, 400_000, out)
    assert out.getvalue() == text_reference(grid.tolist())


@pytest.mark.parametrize("width", ["0", "-3", str(eca.HISTORY_CELL_LIMIT + 1)])
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
    # one cell past the history cap: 11586 rows of 23171 cells, and 100 rows
    ["eca", "--rule", "30", "--steps", "11585", "--max-rows", "20000"],
    ["eca", "--rule", "30", "--steps", "99", "--cyclic-width",
     str(eca.HISTORY_CELL_LIMIT // 100 + 1)],
    # past eca.CENTER_COLUMN_STEPS: the window alone would be a 250 GB integer
    ["analyze", "--rule30-center", "1000000000000"],
])
def test_eca_and_analyze_domain_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_eca_error_order(capsys):
    # negative steps first, then the row caps, then the white background
    for steps, message in (("-1", "steps must be >= 0"), ("20000", "cap of 10000"),
                           ("3", "flips the white background")):
        code, out, err = run_cli(capsys, "eca", "--rule", "1", "--steps", steps)
        assert code == 1 and out == "" and message in err, (steps, err)


# Runs one CLI child and prints its peak RSS (kB on Linux).  The child's
# parent is this fresh process, so no other test's children are counted.
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "emergelab", *sys.argv[1:]],
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.parametrize("output", ["--out", "--text"])
def test_eca_long_history_memory_is_bounded(tmp_path, output):
    # 10 000 rows of 19 999 cells: 2e8 cells, a 25 MB image
    argv = ["eca", "--rule", "30", "--steps", "9999", output]
    if output == "--out":
        argv.append(str(tmp_path / "r30.pbm"))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv], env=env,
                            capture_output=True, text=True, check=True)
    assert int(result.stdout) < 160 * 1024


@pytest.mark.parametrize("argv", [
    ["life", "run", "--rle", GLIDER, "--steps", "-1"],
    ["life", "fate", "--rle", GLIDER, "--budget", "0"],
    ["life", "fate", "--rle", GLIDER, "--budget", "-3"],
    ["life", "run", "--rle", str(fixture_path("glider.rle").parent), "--steps", "1"],
    ["life", "run", "--rle", GLIDER + "/inner.rle", "--steps", "1"],
    ["analyze", "--rule30-center", "100", "--block-k", "-1"],
    ["analyze", "--rule30-center", "100", "--block-k", "0"],
    ["analyze", "--rule30-center", "100", "--block-k", "101"],
    ["analyze", "--rule30-center", "100", "--max-period", "60"],
    ["analyze", "--rule30-center", "100", "--max-period", "0"],
    ["analyze", "--rule30-center", "100", "--max-period", "-2"],
])
def test_life_and_analyze_domain_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """`{name}` placeholder -> path of a scratch input or output, among them
    a directory, a non-UTF-8 file, a table with a non-integer token, DFAs
    with no transition for state 0 on 1, with a transition to a state that
    does not exist, with no start line and with a second `trans`, `states`
    or `start` line for one slot, machines with two `tapes` lines, with
    `tapes two` and with one tape past the cap, two cells 2**40 apart, an
    RLE run of 3e9 live cells, a run count of 5000 digits, a run count with
    nothing to repeat, a lone cell that dies in one generation, digit files
    that are blank or hold the non-ASCII digits '²' and '٣', and paths that
    do not exist."""
    root = tmp_path_factory.mktemp("cli")
    (root / "dir").mkdir()
    (root / "latin1").write_bytes(b"caf\xe9 0 1\n")
    (root / "garbage").write_text("not a pattern, machine or table\n")
    (root / "bad_ints").write_text("1 2 x\n")
    (root / "partial_dfa").write_text("states 1\nstart 0\naccept 0\ntrans 0 0 0\n")
    (root / "stray_dfa").write_text("states 1\nstart 0\naccept 0\ntrans 0 0 0\ntrans 0 1 5\n")
    (root / "startless_dfa").write_text("states 1\naccept 0\ntrans 0 0 0\ntrans 0 1 0\n")
    dfa = "states 2\nstart 0\naccept 0\ntrans 0 0 0\ntrans 0 1 1\ntrans 1 0 1\ntrans 1 1 0\n"
    (root / "two_trans_dfa").write_text(dfa + "trans 0 0 1\n")
    (root / "two_states_dfa").write_text(dfa + "states 2\n")
    (root / "two_starts_dfa").write_text(dfa + "start 1\n")
    (root / "two_tapes_lines").write_text("tapes 2\ntapes 2\nstart s\nhalt h\n")
    (root / "tapes_word").write_text("tapes two\nstart s\nhalt h\n")
    (root / "many_tapes").write_text(f"tapes {turing.TAPES_LIMIT + 1}\nstart s\nhalt h\n")
    (root / "ints").write_text("1 2 3 4 5 6 7 8 9 10\n")
    (root / "bits").write_text("0110 1001 0111 0100 1011\n")
    (root / "far_apart").write_text(f"x = 0, y = 0\no{(1 << 40) - 1}bo!\n")
    (root / "huge_run").write_text("x = 1, y = 1\n3000000000o!\n")
    (root / "long_count").write_text("x = 1, y = 1\n" + "1" * 5000 + "bo!\n")
    (root / "dangling").write_text("x = 2, y = 1\n2o3!\n")
    (root / "dies").write_text("x = 1, y = 1\no!\n")
    (root / "blank_digits").write_text(" \n\t\n")
    (root / "superscript_digits").write_text("1\u00b23\n", encoding="utf-8")
    (root / "arabic_digits").write_text("2\u0663\u0663\n", encoding="utf-8")
    names = ("dir", "latin1", "garbage", "bad_ints", "partial_dfa", "stray_dfa",
             "startless_dfa", "two_trans_dfa", "two_states_dfa", "two_starts_dfa",
             "two_tapes_lines", "tapes_word", "many_tapes", "ints", "bits", "far_apart",
             "huge_run", "long_count", "dangling", "dies", "blank_digits",
             "superscript_digits", "arabic_digits", "missing", "out")
    return {f"{{{name}}}": str(root / name) for name in names}


def fill(argv, cli_files):
    for placeholder, real in cli_files.items():
        argv = [arg.replace(placeholder, real) for arg in argv]
    return argv


AUDIT = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
         "--identity-values", "--timing-from", SUCC]
DFA = str(fixture_path("even_ones.dfa"))


@pytest.mark.parametrize("argv", [
    ["ant", "--steps", "-5"],
    ["ant", "--detect-highway", "--window-radius", "0", "--steps", "100"],
    ["ant", "--detect-highway", "--steps", "100", "--report", "{dir}"],
    ["tm", "run", "--machine", SUCC, "--input", "0"],
    ["tm", "run", "--machine", SUCC, "--input", "3", "--budget", "0"],
    ["tm", "run", "--machine", "{dir}", "--input", "3"],
    ["tm", "run", "--machine", "{latin1}", "--input", "3"],
    ["tm", "run", "--machine", SUCC, "--input", "3", "--trace-out", "{dir}"],
    AUDIT + ["--c", "abc"],
    AUDIT + ["--c", "1/0"],
    AUDIT + ["--c", "0"],
    AUDIT + ["--n0", "0"],
    ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
     "--values", "{bad_ints}", "--timing-from", SUCC],
    ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
     "--identity-values", "--timing", "{bad_ints}"],
    ["candidate", "sqrt-digits", "--m", "2", "--count", "-1"],
    ["candidate", "sqrt-digits", "--m", "2", "--count", "100000000"],
    ["candidate", "digit-chain", "--sqrt", "2", "--n", "0"],
    ["candidate", "digit-chain", "--sqrt", "2", "--n", "4"],
    ["candidate", "digit-chain", "--digits-file", SUCC, "--n", "2"],
    ["candidate", "language-count", "--dfa", DFA, "--n", "0"],
    ["candidate", "language-count", "--dfa", "{partial_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{dir}", "--n", "3"],
    ["candidate", "life-survival", "--n", "-1"],
    ["analyze", "--bits-file", "{dir}"],
    ["analyze", "--bits-file", "{latin1}"],
    ["analyze", "--bits-file", "{bad_ints}"],
    ["life", "run", "--rle", "{far_apart}", "--steps", "0", "--out", "{out}"],
    ["life", "run", "--rle", "{huge_run}", "--steps", "1"],
    ["life", "run", "--rle", "{long_count}", "--steps", "0", "--print", "bbox"],
    ["life", "run", "--rle", "{dies}", "--steps", "1", "--out", "{out}"],
    ["ant", "--steps", "0", "--out", "{out}"],
    ["ant", "--detect-highway", "--steps", "100", "--window-radius",
     str(ant.WINDOW_RADIUS_LIMIT + 1)],
    ["tm", "run", "--machine", "{two_tapes_lines}", "--input", "3"],
    ["tm", "run", "--machine", "{tapes_word}", "--input", "3"],
    ["tm", "run", "--machine", "{many_tapes}", "--input", "3"],
    ["candidate", "language-count", "--dfa", "{stray_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{startless_dfa}", "--n", "3"],
    ["life", "run", "--rle", "{dangling}", "--steps", "1"],
    ["candidate", "digit-chain", "--digits-file", "{blank_digits}", "--n", "2"],
    ["candidate", "digit-chain", "--digits-file", "{superscript_digits}", "--n", "2"],
    ["candidate", "digit-chain", "--digits-file", "{arabic_digits}", "--n", "2"],
    ["candidate", "language-count", "--dfa", "{two_trans_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{two_states_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{two_starts_dfa}", "--n", "3"],
])
def test_domain_and_file_errors_are_one_line(capsys, cli_files, argv):
    argv = fill(argv, cli_files)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed option value
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if "--c" in argv and argv[-1] in ("abc", "1/0"):
        assert code == 2 and err.splitlines()[-1].endswith(
            f"argument --c: not a rational number: {argv[-1]!r}")
    else:
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("emergelab ")


@pytest.mark.parametrize("argv", [
    pytest.param(["eca", "--rule", "30", "--steps", "20"], id="eca"),
    pytest.param(["life", "run", "--rle", GLIDER, "--steps", "4"], id="life-run-pop"),
    pytest.param(["life", "run", "--rle", GLIDER, "--steps", "4", "--print", "bbox"],
                 id="life-run-bbox"),
    pytest.param(["life", "fate", "--rle", GLIDER, "--budget", "16"], id="life-fate"),
    pytest.param(["life", "fate", "--rle", str(fixture_path("rpentomino.rle")),
                  "--budget", "5"], id="life-fate-unknown"),
    pytest.param(["ant", "--steps", "500"], id="ant"),
    pytest.param(["ant", "--steps", "12000", "--detect-highway"], id="ant-highway"),
    pytest.param(["tm", "run", "--machine", SUCC, "--input", "3"], id="tm-run"),
    pytest.param(["tm", "compose", "--approx", SUCC, "--finisher", COPY, "--input", "5"],
                 id="tm-compose"),
    pytest.param(AUDIT, id="tm-audit"),
    pytest.param(["candidate", "sqrt-digits", "--m", "2", "--count", "5"],
                 id="candidate-sqrt-digits"),
    pytest.param(["candidate", "digit-chain", "--sqrt", "2", "--n", "2"],
                 id="candidate-digit-chain"),
    pytest.param(["candidate", "words", "--index", "8"], id="candidate-words"),
    pytest.param(["candidate", "language-count", "--dfa", DFA, "--n", "4"],
                 id="candidate-language-count"),
    pytest.param(["candidate", "life-survival", "--n", "15"], id="candidate-life-survival"),
    pytest.param(["analyze", "--rule30-center", "256", "--block-k", "4",
                  "--max-period", "16"], id="analyze"),
])
def test_json_report_matches_key_value_report(capsys, argv):
    code, lines, _ = run_cli(capsys, *argv)
    assert code == 0
    code, as_json, _ = run_cli(capsys, "--json", *argv)
    assert code == 0
    # `tm run` prints its trace before the report, the same in both forms
    *trace, last = as_json.splitlines()
    report = json.loads(last)
    assert isinstance(report, dict) and report
    assert lines.splitlines() == trace + [f"{key}={value}" for key, value in report.items()]


def test_life_pattern_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.rle"
    path.write_bytes(b"#C caf\xe9\nx = 1, y = 1\no!\n")
    code, out, err = run_cli(capsys, "life", "run", "--rle", str(path), "--steps", "1")
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1 and "UTF-8" in err


def test_life_pattern_unreadable(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))
    monkeypatch.setattr(cli.Path, "read_text", refuse)
    for argv in (["run", "--steps", "1"], ["fate"]):
        code, out, err = run_cli(capsys, "life", *argv, "--rle", GLIDER)
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and "Permission denied" in err


def test_analyze_zero_options_are_validated_not_ignored(capsys):
    code, _, err = run_cli(capsys, "analyze", "--rule30-center", "100",
                           "--block-k", "0")
    assert code == 1 and "k must be >= 1" in err
    code, _, err = run_cli(capsys, "analyze", "--rule30-center", "100",
                           "--max-period", "0")
    assert code == 1 and "max_period must be >= 1" in err


def test_life_run_bounding_box_only_when_needed(tmp_path, capsys, monkeypatch):
    # the box is the result frame's corner and span: no cell set is built
    calls = []
    real = life._cells
    monkeypatch.setattr(life, "_cells", lambda *args: calls.append(1) or real(*args))
    code, out, _ = run_cli(capsys, "life", "run", "--rle", GLIDER, "--steps", "4",
                           "--out-rle", str(tmp_path / "out.rle"))
    assert code == 0 and "bbox" not in out and calls == []
    code, out, _ = run_cli(capsys, "life", "run", "--rle", GLIDER, "--steps", "4",
                           "--print", "bbox", "--out", str(tmp_path / "out.pbm"))
    assert code == 0 and "bbox=1,1,3,3" in out and calls == []
    assert (tmp_path / "out.pbm").read_bytes().startswith(b"P4\n3 3\n")


# every Life function the CLI calls, as a tracer that wraps module
# attributes sees it
LIFE_API = ("parse_rle", "parse_cells", "run", "write_rle", "raster",
            "bounding_box", "detect_fate")


@pytest.mark.parametrize("argv, calls", [
    (["run", "--rle", GLIDER, "--steps", "4", "--print", "bbox",
      "--out-rle", "{out}.rle", "--out", "{out}.pbm"],
     ["parse_rle", "run", "write_rle", "raster", "bounding_box"]),
    (["run", "--rle", str(fixture_path("glider.cells")), "--steps", "4", "--print", "bbox",
      "--out-rle", "{out}.rle", "--out", "{out}.pbm"],
     ["parse_cells", "run", "write_rle", "raster", "bounding_box"]),
    (["fate", "--rle", GLIDER, "--budget", "16"], ["parse_rle", "detect_fate"]),
])
def test_life_commands_call_the_public_life_functions(tmp_path, capsys, monkeypatch,
                                                      argv, calls):
    seen = []
    for name in LIFE_API:
        real = getattr(life, name)
        monkeypatch.setattr(life, name, lambda *args, _name=name, _real=real:
                            seen.append(_name) or _real(*args))
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    code, _, _ = run_cli(capsys, "life", *argv)
    assert code == 0 and seen == calls


def test_analyze_rule30_center_range_names_the_option(capsys):
    for n in ("0", "-5", "65538"):
        code, out, err = run_cli(capsys, "analyze", "--rule30-center", n)
        assert (code, out) == (1, "")
        assert err == f"emergelab analyze: --rule30-center must be in 1..65537, got {n}\n"


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


LIFE_CORPUS = ["glider", "block", "blinker", "toad", "beacon", "beehive", "loaf",
               "boat", "tub", "lwss", "pulsar", "rpentomino", "gosper_gun"]


def random_soup(rng, n):
    """n distinct cells at density 0.35 in a square, like the bench soups."""
    side = math.isqrt(int(n / 0.35)) + 1
    return frozenset(divmod(k, side) for k in rng.sample(range(side * side), n))


@pytest.mark.parametrize("n,steps", [(1000, 8), (3000, 3), (10000, 1)])
def test_life_run_out_rle_matches_the_dense_reference(tmp_path, capsys, n, steps):
    # RLE text to a frame, the runner, and the frame back to RLE text
    cells = random_soup(random.Random(n), n)
    source, out = tmp_path / "soup.rle", tmp_path / "out.rle"
    source.write_text(write_rle_reference(cells))
    code, stdout, _ = run_cli(capsys, "life", "run", "--rle", str(source),
                              "--steps", str(steps), "--out-rle", str(out))
    want = life_run_dense(cells, steps)
    assert code == 0 and stdout == f"steps={steps}\npopulation={len(want)}\n"
    assert out.read_text() == write_rle_reference(want)


EMPTY_RLE = "x = 0, y = 0, rule = B3/S23\n!\n"


@pytest.mark.parametrize("pattern,steps", [
    ("x = 0, y = 0\n!\n", 5),
    # dots 3 apart, dense enough for the grid, all die at generation 1
    ("x = 46, y = 46\n" + "$2$".join(["o2b" * 15 + "o"] * 16) + "!\n", 3),
])
def test_life_run_of_a_pattern_with_no_live_cell(tmp_path, capsys, pattern, steps):
    source, out = tmp_path / "p.rle", tmp_path / "out.rle"
    source.write_text(pattern)
    code, stdout, _ = run_cli(capsys, "life", "run", "--rle", str(source), "--steps",
                              str(steps), "--print", "bbox", "--out-rle", str(out))
    assert code == 0 and stdout == f"steps={steps}\npopulation=0\nbbox=empty\n"
    assert out.read_text() == EMPTY_RLE
    code, stdout, err = run_cli(capsys, "life", "run", "--rle", str(source), "--steps",
                                str(steps), "--out", str(tmp_path / "out.pbm"))
    assert code == 1 and stdout == ""
    assert err == "emergelab life: cannot render an empty cell set\n"


def test_life_run_past_int64(tmp_path, capsys):
    big = 10 ** 19
    source, out = tmp_path / "far.rle", tmp_path / "out.rle"
    source.write_text(f"x = 1, y = 1\n{big}bo!\n")
    code, stdout, _ = run_cli(capsys, "life", "run", "--rle", str(source), "--steps", "0",
                              "--print", "bbox", "--out-rle", str(out))
    assert code == 0 and stdout == f"steps=0\npopulation=1\nbbox={big},0,{big},0\n"
    assert out.read_text() == "x = 1, y = 1, rule = B3/S23\no!\n"
    # a glider that far out moves by (1, 1) in four generations
    source.write_text(f"x = 3, y = 3\n{big + 1}bo${big + 2}bo${big}b3o!\n")
    code, stdout, _ = run_cli(capsys, "life", "run", "--rle", str(source), "--steps", "4",
                              "--print", "bbox", "--out-rle", str(out))
    assert code == 0 and stdout == f"steps=4\npopulation=5\nbbox={big + 1},1,{big + 3},3\n"
    assert out.read_text() == "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!\n"


@pytest.mark.parametrize("steps", [0, 30])
@pytest.mark.parametrize("name", LIFE_CORPUS)
def test_life_pbm_matches_naive_renderer(tmp_path, capsys, name, steps):
    rle, out = fixture_path(f"{name}.rle"), tmp_path / "out.pbm"
    code, _, _ = run_cli(capsys, "life", "run", "--rle", str(rle),
                         "--steps", str(steps), "--out", str(out))
    cells = life_run_dense(life.parse_rle(rle.read_text()), steps)
    assert code == 0 and out.read_bytes() == pbm_reference(raster_reference(cells))


@pytest.mark.parametrize("heading", list(ant.HEADINGS))
def test_ant_pbm_matches_naive_renderer(tmp_path, capsys, heading):
    out = tmp_path / "ant.pbm"
    argv = ["ant", "--heading", heading, "--out", str(out)]
    code, _, err = run_cli(capsys, *argv, "--steps", "0")
    assert code == 1 and "empty cell set" in err and not out.exists()
    for steps in (1, 500, 12_000):
        code, _, _ = run_cli(capsys, *argv, "--steps", str(steps))
        state = ant.run(ant.standard_start(heading), steps)
        marker = f"ant {state.pos[0]} {state.pos[1]} {state.heading} steps={steps}"
        assert code == 0
        assert out.read_bytes() == pbm_reference(raster_reference(state.black), marker)


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


def test_tm_audit_reads_value_and_timing_files(capsys, tmp_path):
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "6"]
    succ = turing.parse_machine(Path(SUCC).read_text())
    values, timing = tmp_path / "values.txt", tmp_path / "timing.txt"
    values.write_text(" ".join(map(str, range(1, 7))) + "\n")
    timing.write_text("\n".join(str(turing.run(succ, i, 10 ** 6).total_steps)
                                for i in range(1, 7)))
    code, measured, _ = run_cli(capsys, *argv, "--identity-values", "--timing-from", SUCC)
    assert code == 0 and "verdict=pass" in measured
    code, out, _ = run_cli(capsys, *argv, "--values", str(values), "--timing", str(timing))
    assert code == 0 and out == measured


def test_tm_audit_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "tm", "audit", "--approx", SUCC,
                           "--finisher", COPY, "--max-index", "10",
                           "--identity-values", "--timing-from", SUCC)
    assert code == 0 and "verdict=pass" in out
    code, out, _ = run_cli(capsys, "tm", "audit", "--approx", SUCC,
                           "--finisher", SUCC, "--max-index", "10",
                           "--identity-values", "--timing-from", SUCC)
    assert code == 0 and "verdict=fail" in out


@pytest.mark.parametrize("sources,message", [
    (["--identity-values", "--values", SUCC, "--timing-from", SUCC],
     "argument --values: not allowed with argument --identity-values"),
    (["--identity-values", "--timing-from", SUCC, "--timing", SUCC],
     "argument --timing: not allowed with argument --timing-from"),
    (["--timing-from", SUCC], "one of the arguments --identity-values --values is required"),
    (["--identity-values"], "one of the arguments --timing-from --timing is required"),
])
def test_tm_audit_takes_one_source_of_each(capsys, sources, message):
    with pytest.raises(SystemExit) as err:
        cli.main(["tm", "audit", "--approx", SUCC, "--finisher", COPY,
                  "--max-index", "3", *sources])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("max_index", ["0", "-3"])
def test_tm_audit_max_index_must_be_positive(capsys, max_index):
    # an empty index range would pass vacuously, so it is a usage error
    with pytest.raises(SystemExit) as err:
        cli.main(["tm", "audit", "--approx", SUCC, "--finisher", COPY,
                  "--max-index", max_index, "--identity-values", "--timing-from", SUCC])
    out, err_text = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert err_text.splitlines()[-1].endswith(f"--max-index must be >= 1, got {max_index}")


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


def test_sqrt_digits_past_the_int_str_limit(capsys):
    code, out, err = run_cli(capsys, "candidate", "sqrt-digits", "--m", "2",
                             "--count", "5000")
    assert code == 0 and err == ""
    assert out == f"m=2\ncount=5000\ndigits={sqrt_text_reference(2, 5000)}\n"


def test_digit_chain_value_past_the_digit_limit_is_one_line(capsys, tmp_path):
    digits = tmp_path / "digits.txt"
    digits.write_text("4" + "4301" + "1" * 4301)
    code, out, err = run_cli(capsys, "candidate", "digit-chain", "--digits-file",
                             str(digits), "--n", "3")
    assert code == 1 and out == ""
    assert err == ("emergelab candidate: chain value f(3) has 4301 digits, "
                   "more than 4300\n")


def test_digit_chain_block_past_a_short_source_is_one_line(capsys, tmp_path):
    # f(3) = 10**4300 - 1 passes the value limit; block 4 then needs a
    # 4301-digit count of digits, which is too long to print whole
    digits = tmp_path / "digits.txt"
    digits.write_text("4" + "4300" + "9" * 4300)
    code, out, err = run_cli(capsys, "candidate", "digit-chain", "--digits-file",
                             str(digits), "--n", "4")
    assert code == 1 and out == ""
    assert err == ("emergelab candidate: need about 10**4300 digits but the "
                   "source has 4305\n")


def test_digit_requests_past_the_cap_are_refused(capsys):
    code, out, err = run_cli(capsys, "candidate", "sqrt-digits", "--m", "2",
                             "--count", str(candidates.SQRT_DIGITS + 1))
    assert code == 1 and out == ""
    assert err == ("emergelab candidate: count must be <= "
                   f"{candidates.SQRT_DIGITS}, got {candidates.SQRT_DIGITS + 1}\n")
    # f(3) of sqrt(2) has 1421 digits, so block 4 asks for about 10**1420
    code, out, err = run_cli(capsys, "candidate", "digit-chain", "--sqrt", "2",
                             "--n", "4")
    assert code == 1 and out == ""
    assert err == ("emergelab candidate: count must be <= "
                   f"{candidates.SQRT_DIGITS}, got about 10**1420\n")


def test_life_caps_name_the_pattern_size(capsys, cli_files):
    code, _, err = run_cli(capsys, "life", "run", "--rle", cli_files["{huge_run}"],
                           "--steps", "1")
    assert code == 1 and err == ("emergelab life: more than 10000000 live cells "
                                 "at line 2, column 11\n")
    code, _, err = run_cli(capsys, "life", "run", "--rle", cli_files["{far_apart}"],
                           "--steps", "0", "--out", cli_files["{out}"])
    assert code == 1 and err == (f"emergelab life: {(1 << 40) + 1}x1 image over "
                                 f"{1 << 26} pixels\n")


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
    for value in ("junk", "0"):
        monkeypatch.setenv("EMERGELAB_BUDGET", value)
        code, _, err = run_cli(capsys, "tm", "run", "--machine", SUCC, "--input", "3")
        assert code == 1 and f"EMERGELAB_BUDGET must be a positive integer, got {value!r}" in err


def test_module_invocation_round_trip(tmp_path):
    """The installed entry point behaves like the in-process main."""
    result = subprocess.run(
        [sys.executable, "-m", "emergelab", "candidate", "words", "--index", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "word=1" in result.stdout


# ---------------------------------------------------------------------------
# every subcommand under generated arguments

MACHINES = [SUCC, COPY, str(fixture_path("mismatched_finisher.tm"))]
small = st.integers(-3, 12)


def optional(strategy):
    return st.one_of(st.none(), strategy)


def path(*good):
    """A usable file or one that cannot be read or parsed; `{name}` tokens
    stand for the files of the `cli_files` fixture."""
    return st.sampled_from([*good, "{missing}", "{dir}", "{latin1}", "{garbage}"])


def _argv(*pairs, flags=()):
    """Option list from (name, value) pairs, dropping None values."""
    argv = []
    for name, value in pairs:
        if value is not None:
            argv += [name, str(value)]
    return argv + [flag for flag, on in flags if on]


@st.composite
def cli_invocations(draw):
    output = optional(st.sampled_from(["{out}", "{dir}", "{missing}/out"]))
    machine = path(*MACHINES)
    command = draw(st.sampled_from(
        ["eca", "life", "ant", "tm run", "tm compose", "tm audit", "candidate",
         "analyze"]))
    if command == "eca":
        argv = ["eca"] + _argv(
            ("--rule", draw(st.integers(-2, 260))), ("--steps", draw(st.integers(-2, 24))),
            ("--seed", draw(optional(st.sampled_from(["#", "#..#", ".", "#x", "01"])))),
            ("--cyclic-width", draw(optional(
                st.one_of(st.integers(-1, 20), st.just(eca.HISTORY_CELL_LIMIT + 1))))),
            ("--max-rows", draw(optional(st.integers(-1, 30)))),
            ("--out", draw(output)), flags=[("--text", draw(st.booleans()))])
    elif command == "life":
        pattern = draw(path(GLIDER, str(fixture_path("glider.cells"))))
        if draw(st.booleans()):
            argv = ["life", "run"] + _argv(
                ("--rle", pattern), ("--steps", draw(st.integers(-2, 20))),
                ("--print", draw(optional(st.sampled_from(["bbox", "pop"])))),
                ("--out-rle", draw(output)), ("--out", draw(output)))
        else:
            argv = ["life", "fate"] + _argv(("--rle", pattern),
                                            ("--budget", draw(optional(small))))
    elif command == "ant":
        argv = ["ant"] + _argv(
            ("--steps", draw(optional(st.integers(-3, 300)))),
            ("--heading", draw(optional(st.sampled_from("NESW")))),
            ("--window-radius", draw(optional(
                st.one_of(st.integers(-1, 4), st.just(ant.WINDOW_RADIUS_LIMIT + 1))))),
            ("--confirmations", draw(optional(st.integers(-1, 3)))),
            ("--report", draw(output)), ("--out", draw(output)),
            flags=[("--detect-highway", draw(st.booleans()))])
    elif command == "tm run":
        argv = ["tm", "run"] + _argv(
            ("--machine", draw(machine)), ("--input", draw(small)),
            ("--budget", draw(optional(st.integers(-1, 200)))),
            ("--trace-out", draw(output)))
    elif command == "tm compose":
        argv = ["tm", "compose"] + _argv(
            ("--approx", draw(machine)), ("--finisher", draw(machine)),
            ("--input", draw(small)), ("--budget", draw(optional(st.integers(-1, 200)))))
    elif command == "tm audit":
        argv = ["tm", "audit"] + _argv(
            ("--approx", draw(machine)), ("--finisher", draw(machine)),
            ("--max-index", draw(st.integers(-1, 5))),
            ("--c", draw(optional(st.sampled_from(["8", "1/2", "0", "-1", "abc", "1/0"])))),
            ("--n0", draw(optional(st.integers(-1, 4)))),
            ("--values", draw(optional(path("{ints}")))),
            ("--timing-from", draw(optional(machine))),
            ("--timing", draw(optional(path("{ints}")))),
            ("--budget", draw(optional(st.integers(-1, 500)))),
            flags=[("--identity-values", draw(st.booleans()))])
    elif command == "candidate":
        which = draw(st.sampled_from(
            ["sqrt-digits", "digit-chain", "words", "language-count", "life-survival"]))
        if which == "sqrt-digits":
            argv = _argv(("--m", draw(st.integers(-1, 30))), ("--count", draw(small)))
        elif which == "digit-chain":
            # from n = 3 on, a block can ask for more digits than the cap
            argv = _argv(("--n", draw(st.integers(-1, 4))))
            argv += draw(st.sampled_from([
                ["--sqrt", str(draw(st.integers(-1, 30)))],
                ["--digits-file", draw(path(str(fixture_path("pi_digits.txt")), "{ints}"))]]))
        elif which == "words":
            argv = _argv(("--index", draw(small)),
                         flags=[("--skip-epsilon", draw(st.booleans()))])
        elif which == "language-count":
            argv = _argv(("--dfa", draw(path(DFA))), ("--n", draw(st.integers(-1, 40))),
                         flags=[("--skip-epsilon", draw(st.booleans()))])
        else:
            argv = _argv(("--n", draw(st.integers(-2, 20))))
        argv = ["candidate", which] + argv
    else:
        source = draw(st.sampled_from([
            ["--bits-file", draw(path("{bits}", "{ints}"))],
            ["--rule30-center", str(draw(st.integers(-1, 200)))]]))
        argv = ["analyze"] + source + _argv(
            ("--block-k", draw(optional(st.integers(-1, 9)))),
            ("--max-period", draw(optional(st.integers(-1, 9)))))
    return (["--json"] if draw(st.booleans()) else []) + argv


@settings(max_examples=300, deadline=None)
@given(argv=cli_invocations())
def test_every_subcommand_keeps_the_exit_contract(cli_files, argv):
    argv = fill(argv, cli_files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("emergelab ")
    else:
        assert code == 2 and err.splitlines()[-1].startswith("emergelab")
        assert "error: " in err.splitlines()[-1]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: eca.BitRow(0, -1), id="BitRow-negative-bits"),
    pytest.param(lambda: eca.BitRow(3, 0), id="BitRow-empty-with-offset"),
    pytest.param(lambda: eca.BitRow(0, 0b10), id="BitRow-not-canonical"),
    pytest.param(lambda: eca.step_cycle(eca.parse_rule(30), 1, 0), id="step_cycle-width-0"),
    pytest.param(lambda: analysis.ones_fraction(b"\x02"), id="bits-byte-2"),
    pytest.param(lambda: analysis.ones_fraction("0120"), id="bits-char-2"),
    pytest.param(lambda: analysis.ones_fraction([0, 2]), id="bits-int-2"),
    pytest.param(lambda: analysis.ones_fraction(["x"]), id="bits-not-a-number"),
    pytest.param(lambda: analysis.ones_fraction([None]), id="bits-none"),
    pytest.param(lambda: analysis.ones_fraction([300]), id="bits-past-a-byte"),
    pytest.param(lambda: analysis.ones_fraction([0.5, 1.7, 1]), id="bits-fractional"),
    pytest.param(lambda: analysis.ones_fraction([1.5]), id="bits-one-and-a-half"),
    pytest.param(lambda: analysis.block_entropy([0, 0.9, 1], 1), id="bits-near-one"),
    pytest.param(lambda: analysis.no_short_period([-0.5, 0, 1], 1), id="bits-negative"),
    pytest.param(lambda: candidates.DigitStream(), id="DigitStream-no-source"),
    pytest.param(lambda: candidates.word_index("012"), id="word_index-not-binary"),
])
def test_library_errors_on_bad_input_are_emergelab_errors(call):
    # so the CLI reports them on one line with exit 1
    with pytest.raises(EmergeLabError):
        call()
