import contextlib
import io
import json
import math
import os
import random
import reprlib
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emergelab import analysis, ant, candidates, cli, eca, life, turing
from emergelab.errors import EmergeLabError
from emergelab.fixtures import fixture_path

from .oracles import (ant_run_reference, eca_cells_reference, life_run_dense,
                      pbm_reference, raster_reference, sqrt_text_reference,
                      text_reference, write_rle_reference)

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
    `tapes two` and with one tape past the cap, a machine whose `tapes` header
    has 5000 digits and one with a write symbol of 5000 characters, DFAs with
    a number of 5000 digits in a `states`, `start`, `accept` or `trans` line,
    two cells 2**40 apart, an RLE run of 3e9 live cells, a run count of 5000
    digits, a run count with nothing to repeat, a lone cell that dies in one
    generation, digit files that are blank or hold the non-ASCII digits '²'
    and '٣', and paths that do not exist."""
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
    long = "1" * 5000
    (root / "long_tapes").write_text(f"tapes {long}\nstart s\nhalt h\n")
    (root / "long_symbol").write_text(f"tapes 2\nstart s\nhalt h\ns 0 0 -> h {long} 0 S S -\n")
    for name, line in (("states", f"states {long}"), ("start", f"start {long}"),
                       ("accept", f"accept 0 {long}"), ("trans", f"trans 0 1 {long}")):
        (root / f"long_{name}_dfa").write_text(f"states 1\nstart 0\n{line}\n")
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
             "two_tapes_lines", "tapes_word", "many_tapes", "long_tapes", "long_symbol",
             "long_states_dfa", "long_start_dfa", "long_accept_dfa", "long_trans_dfa",
             "ints", "bits", "far_apart", "huge_run", "long_count", "dangling", "dies",
             "blank_digits", "superscript_digits", "arabic_digits", "missing", "out")
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
    ["tm", "run", "--machine", "{long_tapes}", "--input", "3"],
    ["tm", "run", "--machine", "{long_symbol}", "--input", "3"],
    ["candidate", "language-count", "--dfa", "{long_states_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{long_start_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{long_accept_dfa}", "--n", "3"],
    ["candidate", "language-count", "--dfa", "{long_trans_dfa}", "--n", "3"],
    AUDIT + ["--c", "1" * 5000],
])
def test_domain_and_file_errors_are_one_line(capsys, cli_files, argv):
    argv = fill(argv, cli_files)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed option value
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if "--c" in argv and argv[-1] in ("abc", "1/0", "1" * 5000):
        # argparse's usage lines come first; a long value is quoted short
        assert code == 2 and err.splitlines()[-1].endswith(
            f"argument --c: not a rational number: {reprlib.repr(argv[-1])}")
        err = err.splitlines()[-1]
    else:
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("emergelab ")
    assert len(err.encode()) < 200  # no input token is echoed whole


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
    # dots 3 apart, dense enough for a board, all die at generation 1
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


# around the standard start's certified step 12,288 and period 104, and
# past 500,000 steps, where the image is over life.PIXEL_LIMIT
ANT_STEPS = [0, 1, 500, 9999, 12_287, 12_288, 12_392, 16_384, 500_000,
             *random.Random(19).sample(range(12_000, 40_000), 3)]


@pytest.mark.parametrize("heading", list(ant.HEADINGS))
def test_ant_pbm_matches_naive_renderer(tmp_path, capsys, heading):
    out = tmp_path / "ant.pbm"
    for steps in ANT_STEPS:
        argv = ["ant", "--heading", heading, "--steps", str(steps)]
        state = ant_run_reference(ant.standard_start(heading), steps)
        report = (f"steps={steps}\nx={state.pos[0]}\ny={state.pos[1]}\n"
                  f"heading={state.heading}\nblack_cells={len(state.black)}\n")
        assert run_cli(capsys, *argv) == (0, report, ""), steps
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        xs, ys = [x for x, _ in state.black], [y for _, y in state.black]
        width = max(xs) - min(xs) + 1 if xs else 0
        height = max(ys) - min(ys) + 1 if ys else 0
        if not state.black:
            assert (code, stdout) == (1, "") and "empty cell set" in err
        elif width * height > life.PIXEL_LIMIT:
            assert (code, stdout) == (1, "")
            assert err.endswith(f"{width}x{height} image over {life.PIXEL_LIMIT} pixels\n")
        else:
            marker = f"ant {state.pos[0]} {state.pos[1]} {state.heading} steps={steps}"
            assert (code, stdout) == (0, report)
            assert out.read_bytes() == pbm_reference(raster_reference(state.black), marker)
            out.unlink()
        assert not out.exists()


def test_ant_far_past_the_highway_onset(tmp_path, capsys):
    """10**15 steps answer from the certified period, one period apart as
    the highway moves; the image of that state is refused with one line."""
    code, out, _ = run_cli(capsys, "ant", "--steps", str(10 ** 15))
    far = dict(line.split("=") for line in out.splitlines())
    code_next, out_next, _ = run_cli(capsys, "ant", "--steps", str(10 ** 15 + 104))
    near = dict(line.split("=") for line in out_next.splitlines())
    assert code == code_next == 0 and far["heading"] == near["heading"]
    assert int(near["black_cells"]) - int(far["black_cells"]) == 12
    assert all(abs(int(near[k]) - int(far[k])) == 2 for k in "xy")
    image = tmp_path / "a.pbm"
    code, out, err = run_cli(capsys, "ant", "--steps", str(10 ** 15), "--out", str(image))
    assert (code, out) == (1, "") and "image over" in err and err.count("\n") == 1
    assert not image.exists()


def test_ant_out_certifies_the_highway_once(tmp_path, capsys, monkeypatch):
    """The report and the image come from one census."""
    calls = []
    certify = ant._certify
    monkeypatch.setattr(ant, "_certify", lambda *a: calls.append(a) or certify(*a))
    assert run_cli(capsys, "ant", "--steps", "20000", "--out", str(tmp_path / "a.pbm"))[0] == 0
    assert len(calls) == 1


def test_ant_highway_report(capsys):
    code, out, _ = run_cli(capsys, "ant", "--steps", "20000", "--detect-highway")
    assert code == 0
    assert "found=true" in out
    assert "period=104" in out


@pytest.mark.parametrize("mode", [[], ["--detect-highway"]])
def test_ant_report_file_matches_stdout(tmp_path, capsys, mode):
    """`--report` writes the report with or without `--detect-highway`."""
    path = tmp_path / "r.txt"
    code, out, _ = run_cli(capsys, "ant", "--steps", "500", *mode, "--report", str(path))
    assert code == 0 and path.read_text() == out


def test_ant_highway_past_the_window_bit_cap_is_refused(capsys, monkeypatch):
    # the detector keeps up to one (2r + 1)**2-bit window a step; r = 16 has
    # 33**2 bits, so this cap allows 10 steps, and 11 are refused before
    # the detector builds its frame
    monkeypatch.setattr(ant, "WINDOW_BITS_LIMIT", 10 * 33 ** 2)
    code, out, _ = run_cli(capsys, "ant", "--detect-highway", "--steps", "10")
    assert code == 0 and "steps_searched=10" in out
    frames = []
    monkeypatch.setattr(ant, "_frame", lambda *a: frames.append(a))
    code, out, err = run_cli(capsys, "ant", "--detect-highway", "--steps", "11")
    assert code == 1 and out == "" and frames == []
    assert err == ("emergelab ant: max_steps must be <= 10 at window_radius 16 (at most "
                   f"{10 * 33 ** 2} window bits, max_steps * (2r + 1)**2), got 11\n")


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


def test_tm_audit_timing_past_the_cap_is_refused(capsys, monkeypatch, tmp_path):
    # --timing-from runs its machine once per index, so its work grows as
    # n**2; over the cap, no machine runs, while tables bound their own
    monkeypatch.setattr(turing, "AUDIT_INDEX_LIMIT", 3)
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--identity-values"]
    code, out, _ = run_cli(capsys, *argv, "--max-index", "3", "--timing-from", SUCC)
    assert code == 0 and "verdict=pass" in out
    runs, run = [], turing.run
    monkeypatch.setattr(turing, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    for max_index in ("4", str(10 ** 30)):
        code, out, err = run_cli(capsys, *argv, "--max-index", max_index,
                                 "--timing-from", SUCC)
        assert code == 1 and out == "" and runs == []
        assert err == (f"emergelab tm: --max-index must be <= 3 with --timing-from, "
                       f"got {max_index}\n")
    timing = tmp_path / "timing.txt"
    timing.write_text("1000 " * 6)
    code, out, _ = run_cli(capsys, *argv, "--max-index", "6", "--timing", str(timing))
    assert code == 0 and "index_6=" in out


def test_tm_audit_table_shorter_than_max_index_is_refused_at_once(tmp_path):
    # the first index past a table's end is refused before any later one
    # is made.  Each audit runs in a child limited to 1 GB of address
    # space, so that one that built all the indices fails at once instead
    # of exhausting memory.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    table = tmp_path / "table.txt"
    table.write_text("5\n6\n7\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for max_index in (10 ** 12, 10 ** 30):
        for values in (["--identity-values"], ["--values", str(table)]):
            argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY,
                    "--max-index", str(max_index), *values, "--timing", str(table)]
            result = subprocess.run([sys.executable, "-m", "emergelab", *argv], env=env,
                                    capture_output=True, text=True, preexec_fn=limit)
            assert (result.returncode, result.stdout, result.stderr) == (
                1, "", "emergelab tm: index 4 outside the supplied reference tables\n"), argv


def test_tm_audit_refuses_bad_arguments_before_the_timer_runs(capsys, monkeypatch,
                                                              tmp_path):
    # --c and --n0 are refused before the --timing-from machine runs, and it
    # runs only as far as a short --values table goes, whose next index the
    # audit refuses
    limit = sys.get_int_max_str_digits()
    values = tmp_path / "values.txt"
    values.write_text("1\n2\n3\n")
    runs, run = [], turing.run
    monkeypatch.setattr(turing, "run", lambda *a, **k: runs.append(a) or run(*a, **k))
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "500",
            "--timing-from", SUCC]
    for extra, most, message in (
            (["--identity-values", "--c", f"1e{10 * limit}"], 0,
             f"--c has more than {limit} digits"),
            (["--identity-values", "--n0", "0"], 0, "n0 must be positive, got 0"),
            (["--values", str(values)], 3, "index 4 outside the supplied reference tables")):
        runs.clear()
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out, err) == (1, "", f"emergelab tm: {message}\n"), extra
        assert len(runs) <= most, extra


def test_tm_audit_bound_past_float_range_is_written_exactly(capsys, tmp_path):
    # verdicts are exact fractions, and so is a bound written past the
    # float range: to three decimals, rounded half to even
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
            "--identity-values"]
    succ = turing.parse_machine(Path(SUCC).read_text())
    steps = [turing.run(succ, i, 10 ** 6).total_steps for i in (1, 2, 3)]
    code, out, err = run_cli(capsys, *argv, "--timing-from", SUCC, "--c", "1e400")
    assert code == 0 and err == "" and "verdict=pass" in out
    for i, t in enumerate(steps, start=1):
        assert f"index_{i}=r={i} steps=" in out
        assert f" bound={10 ** 400 * t // i}.000 pass\n" in out
    # a bound within the float range reads as its float did
    timing = tmp_path / "timing.txt"
    timing.write_text(f"{10 ** 400 + 1} 5 6\n")
    code, out, err = run_cli(capsys, "--json", *argv, "--timing", str(timing), "--c", "1/3")
    report = json.loads(out)
    assert code == 0 and err == "" and report["verdict"] == "fail"
    assert report["index_1"] == f"r=1 steps=2 bound={'3' * 400}.667 pass"
    assert report["index_2"] == "r=2 steps=3 bound=0.833 fail"
    assert report["index_3"] == "r=3 steps=3 bound=0.667 fail"


def test_tm_audit_past_the_integer_digit_limit_is_one_line(capsys):
    # a --c, or a bound, with more digits than Python writes an integer
    # with is a domain error, not a traceback; --c is refused before any
    # machine runs
    limit = sys.get_int_max_str_digits()
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
            "--identity-values", "--timing-from", SUCC]
    for c, name in ((f"1e{limit}", "--c"), (f"1e{10 * limit}", "--c"),
                    (f"1e-{limit}", "--c"), (f"1e{limit - 1}", "a bound")):
        code, out, err = run_cli(capsys, *argv, "--c", c)
        assert (code, out, err) == (1, "", f"emergelab tm: {name} has more than "
                                           f"{limit} digits\n"), c
    code, out, err = run_cli(capsys, "--json", *argv, "--c", f"1e{limit}")
    assert (code, out) == (1, "") and err.count("\n") == 1


def test_tm_audit_table_integer_past_the_digit_limit_is_named(capsys, tmp_path):
    # an integer of more digits than Python reads one with is named as
    # such, not echoed whole as a token that is no integer
    limit = sys.get_int_max_str_digits()
    table = tmp_path / "table.txt"
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3"]
    for sources in (["--values", str(table), "--timing-from", SUCC],
                    ["--identity-values", "--timing", str(table)]):
        for token in ("1" * (limit + 1), "-" + "9" * (limit + 1), "+" + "5" * (10 * limit)):
            table.write_text(f"1 2\n{token}\n")
            code, out, err = run_cli(capsys, *argv, *sources)
            assert (code, out, err) == (1, "", f"emergelab tm: {table} holds an integer of "
                                               f"more than {limit} digits\n")
        table.write_text("1 2x 3\n")  # not an integer at all
        code, out, err = run_cli(capsys, *argv, *sources)
        assert (code, out, err) == (1, "", f"emergelab tm: {table} must hold integers, "
                                           f"got '2x'\n")


def test_tm_audit_table_tokens_are_not_echoed_whole(capsys, tmp_path):
    # int reads underscores between digits and any Unicode digit, so these
    # are integers past the digit limit too; a token that is no integer is
    # quoted cut to 30 characters, however long
    limit = sys.get_int_max_str_digits()
    table = tmp_path / "timing.txt"
    argv = ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "3",
            "--identity-values", "--timing", str(table)]
    for token in ("1_" + "1" * (limit + 700), "\u0661" * (limit + 700)):
        table.write_text(f"1 2\n{token}\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"emergelab tm: {table} holds an integer of "
                                           f"more than {limit} digits\n")
    for token, quoted in (("1" * (limit + 700) + "x", "'111111111111...111111111111x'"),
                          ("x" * 5000, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'")):
        table.write_text(f"1 2\n{token}\n")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"emergelab tm: {table} must hold integers, "
                                           f"got {quoted}\n")


def test_tm_compose(capsys):
    code, out, _ = run_cli(capsys, "tm", "compose", "--approx", SUCC,
                           "--finisher", COPY, "--input", "5")
    assert code == 0 and "value=5" in out


# writes each bit of its input twice, then '#': the bits of n, doubled
DOUBLE_BITS = """name double
tapes 2
start scan
halt done
scan 0 0 -> zero 0 0 S S 0
zero 0 0 -> scan 0 0 R S 0
scan 1 0 -> one 1 0 S S 1
one 1 0 -> scan 1 0 R S 1
scan # 0 -> done # 0 S S #
"""


def doubled_bits(n: int) -> int:
    return int("".join(2 * bit for bit in format(n, "b")), 2)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_tm_values_past_the_integer_digit_limit_are_one_line(capsys, tmp_path, json_flag):
    # on 10**3999 the machine writes a value of about 8000 digits, more
    # than Python writes an integer with: a domain error, checked before
    # any line of the trace is written
    machine = tmp_path / "double.tm"
    machine.write_text(DOUBLE_BITS)
    limit = sys.get_int_max_str_digits()
    n = str(10 ** 3999)
    trace = tmp_path / "trace.txt"
    run = [*json_flag, "tm", "run", "--machine", str(machine), "--input", n]
    for argv in (run, run + ["--trace-out", str(trace)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"emergelab tm: a trace value has more than "
                                           f"{limit} digits\n")
    assert not trace.exists()
    for approx, finisher in ((machine, COPY), (COPY, machine)):
        code, out, err = run_cli(capsys, *json_flag, "tm", "compose", "--approx", str(approx),
                                 "--finisher", str(finisher), "--input", n)
        assert (code, out, err) == (1, "", f"emergelab tm: the value has more than "
                                           f"{limit} digits\n")
    # within the limit, the values are written whole, and as JSON numbers
    n = 10 ** 1000
    value = doubled_bits(n)
    code, out, err = run_cli(capsys, "tm", "run", "--machine", str(machine),
                             "--input", str(n), "--trace-out", str(trace))
    assert code == 0 and err == "" and trace.read_text().startswith(f"1 {value} ")
    code, out, err = run_cli(capsys, *json_flag, "tm", "compose", "--approx", str(machine),
                             "--finisher", COPY, "--input", str(n))
    report = json.loads(out) if json_flag else dict(line.split("=") for line in out.split())
    assert code == 0 and err == ""
    assert int(report["value"]) == int(report["intermediate"]) == value
    if json_flag:
        assert out.startswith(f'{{"value": {value}, ')


def test_tm_audit_intermediate_past_the_integer_digit_limit_is_one_line(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    audit = turing.audit_approximation

    def huge_intermediate(*args, **kwargs):
        report = audit(*args, **kwargs)
        records = (report.records[0]._replace(intermediate=10 ** limit),) + report.records[1:]
        return turing.AuditReport(records, report.verdict, report.vacuous, report.witness,
                                  report.reference_timing)

    monkeypatch.setattr(turing, "audit_approximation", huge_intermediate)
    code, out, err = run_cli(capsys, *AUDIT)
    assert (code, out, err) == (1, "", f"emergelab tm: r at index 1 has more than "
                                       f"{limit} digits\n")


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


@pytest.mark.parametrize("n", [10 ** 18, 10 ** 100])
def test_language_count_at_huge_n(capsys, n):
    # word i has an even number of ones when i has an odd number, and each
    # pair {2k, 2k + 1} holds one such i, as does i = 1
    count = n // 2 + (n % 2 == 1 and (n - 1).bit_count() % 2 == 1)
    argv = ["candidate", "language-count", "--dfa", DFA, "--n", str(n)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, f"n={n}\ncount={count}\n", "")
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 0 and err == "" and json.loads(out) == {"n": n, "count": count}
    for bad in ("0", "-3"):
        code, out, err = run_cli(capsys, *argv[:-1], bad)
        assert (code, out, err) == (1, "", f"emergelab candidate: n must be >= 1, got {bad}\n")


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


def test_survival_count_past_the_cap_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(candidates, "SURVIVAL_N", 5)
    code, out, err = run_cli(capsys, "candidate", "life-survival", "--n", "5")
    assert code == 0 and out == "n=5\nsurvivors=0\n"
    for n, shown in (("6", "6"), (str(10 ** 30), "about 10**30")):
        code, out, err = run_cli(capsys, "candidate", "life-survival", "--n", n)
        assert code == 1 and out == ""
        assert err == f"emergelab candidate: n must be <= 5, got {shown}\n"


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


def test_budget_env_past_the_digit_limit_is_one_short_line(capsys, monkeypatch):
    # a budget too long for int is named with the limit, not called "not a
    # positive integer", and a long value that is no integer is quoted short
    limit = sys.get_int_max_str_digits()
    argv = ["tm", "run", "--machine", SUCC, "--input", "3"]
    for value in ("1" * (limit + 700), f" {'1' * (limit + 700)}\n"):
        monkeypatch.setenv("EMERGELAB_BUDGET", value)
        assert run_cli(capsys, *argv) == (
            1, "", f"emergelab tm: EMERGELAB_BUDGET holds an integer of more than {limit} "
                   "digits\n")
    monkeypatch.setenv("EMERGELAB_BUDGET", "x" * 5000)
    assert run_cli(capsys, *argv) == (
        1, "", "emergelab tm: EMERGELAB_BUDGET must be a positive integer, "
               "got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n")


def test_life_run_past_the_step_budget_refuses_a_live_pattern(capsys, monkeypatch):
    monkeypatch.setenv("EMERGELAB_BUDGET", "100")
    code, out, err = run_cli(capsys, "life", "run", "--rle", GLIDER,
                             "--steps", str(10 ** 12))
    assert (code, out) == (1, "")
    assert err == ("emergelab life: --steps 1000000000000 is over the step budget of 100, "
                   "and the pattern still lives at generation 100; set EMERGELAB_BUDGET "
                   "to raise the budget\n")
    # at the budget itself the run is not refused
    code, out, _ = run_cli(capsys, "life", "run", "--rle", GLIDER, "--steps", "100",
                           "--print", "bbox")
    assert code == 0 and out == "steps=100\npopulation=5\nbbox=25,25,27,27\n"


def test_life_run_past_the_step_budget_reports_a_pattern_dead_within_it(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMERGELAB_BUDGET", "100")
    source, out_rle = tmp_path / "domino.rle", tmp_path / "out.rle"
    source.write_text("x = 2, y = 1\n2o!\n")
    steps = str(10 ** 12)
    code, out, _ = run_cli(capsys, "life", "run", "--rle", str(source), "--steps", steps,
                           "--print", "bbox", "--out-rle", str(out_rle))
    assert code == 0 and out == f"steps={steps}\npopulation=0\nbbox=empty\n"
    assert out_rle.read_text() == EMPTY_RLE


def test_module_invocation_round_trip(tmp_path):
    """The installed entry point behaves like the in-process main."""
    result = subprocess.run(
        [sys.executable, "-m", "emergelab", "candidate", "words", "--index", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "word=1" in result.stdout


# Runs each argv list (JSON in sys.argv[1]) through cli.main with stdout
# captured, and prints each command's exit code (--help's too) and stdout
# and then which of numpy and the emergelab modules are loaded.
LAZY_IMPORTS = """
import contextlib, io, json, sys
from emergelab import cli
outputs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    outputs.append([code, out.getvalue()])
print(json.dumps([outputs, sorted(name for name in sys.modules
                                  if name == "numpy" or name.startswith("emergelab."))]))
"""


def test_numpy_and_life_load_only_where_used(tmp_path, capsys, monkeypatch):
    # tests/ imports numpy and every subsystem itself, so only a fresh
    # interpreter shows which modules a command loads; one runs each group
    dfa = str(fixture_path("even_ones.dfa"))
    groups = [  # (commands, what they load besides emergelab.cli and .errors)
        ([["eca", "--rule", "30", "--steps", "5"],
          ["eca", "--rule", "90", "--steps", "7", "--out", "{dir}/r90.pbm"],
          ["eca", "--rule", "30", "--steps", "5", "--cyclic-width", "9"]], ["eca"]),
        ([["eca", "--rule", "110", "--steps", "10", "--text"]], ["eca", "numpy"]),
        ([["analyze", "--rule30-center", "100", "--block-k", "2"]], ["analysis", "eca"]),
        ([["tm", "run", "--machine", SUCC, "--input", "5"],
          ["tm", "compose", "--approx", SUCC, "--finisher", COPY, "--input", "5"],
          ["tm", "audit", "--approx", SUCC, "--finisher", COPY, "--max-index", "4",
           "--identity-values", "--timing-from", SUCC, "--c", "1/2"]], ["turing"]),
        ([["ant", "--help"],
          ["ant", "--steps", "500"],
          ["ant", "--steps", "1000", "--detect-highway"]], ["ant"]),
        ([["ant", "--steps", "500", "--out", "{dir}/ant.pbm"]], ["ant", "life", "numpy"]),
        ([["candidate", "sqrt-digits", "--m", "2", "--count", "20"],
          ["candidate", "digit-chain", "--sqrt", "2", "--n", "2"],
          ["candidate", "words", "--index", "5"],
          ["candidate", "language-count", "--dfa", dfa, "--n", "50"]], ["candidates"]),
        ([["candidate", "life-survival", "--n", "20"]], ["candidates", "life", "numpy"]),
        ([["life", "fate", "--rle", GLIDER, "--budget", "50"],
          ["life", "run", "--rle", GLIDER, "--steps", "4"]], ["life", "numpy"]),
    ]
    fresh_dir, here_dir = tmp_path / "fresh", tmp_path / "here"
    fresh_dir.mkdir()
    here_dir.mkdir()
    # help text wraps at the terminal's width, which differs between the two
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for batch, modules in groups:
        argvs = [[arg.format(dir=fresh_dir) for arg in argv] for argv in batch]
        result = subprocess.run([sys.executable, "-c", LAZY_IMPORTS, json.dumps(argvs)],
                                env=env, capture_output=True, text=True, check=True)
        outputs, loaded = json.loads(result.stdout)
        assert loaded == sorted(["emergelab.cli", "emergelab.errors",
                                 *(m if m == "numpy" else f"emergelab.{m}" for m in modules)])
        # the same exit codes, stdout and images as in this process, where
        # every module was imported before any command ran
        for argv, fresh in zip(batch, outputs):
            try:
                code = cli.main([arg.format(dir=here_dir) for arg in argv])
            except SystemExit as exc:  # --help
                code = exc.code
            assert fresh == [code, capsys.readouterr().out], argv
            if argv == ["ant", "--help"]:
                # the choices the parser reads from errors.HEADINGS, in usage
                # and in the option's line
                assert fresh[1].count("--heading {N,E,S,W}") == 2
    for name in ("r90.pbm", "ant.pbm"):
        assert (fresh_dir / name).read_bytes() == (here_dir / name).read_bytes()


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
