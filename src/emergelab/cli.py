"""Command-line entry point.

One subcommand per subsystem: eca, life, ant, tm, candidate, analyze.
`main` parses the arguments and calls the subcommand's handler, which
writes any requested files and returns its report as a dict (or None when
it prints only text or images).  `main` then writes that report to stdout
once, as flat `key=value` lines or, with --json, as one JSON object with the
same keys.  Images are binary PBM (P4), all written by `render_pbm` from
packed rows: ECA histories as evolved, Life and ant cells via `life.raster`.
`life` commands read a pattern file into a `life.Pattern`, numpy offsets
from its bounding-box corner, and run, write, render, box or classify it
through `life`'s public functions, none of which builds a cell set.
Outputs are deterministic: identical invocations give byte-identical files.

Exit codes: 0 success, 1 domain error or a file that cannot be read or
written (one-line message on stderr), 2 usage error.  The EMERGELAB_BUDGET
environment variable overrides the default step budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analysis, ant, candidates, eca, life, turing
from .errors import EmergeLabError, InvalidArgument


class EmptyImage(EmergeLabError):
    """PBM images need at least one row and one column."""


# byte b with its bits reversed: little-endian row bytes to PBM's MSB-first
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def render_pbm(path: str, rows, width: int, comment: str | None = None):
    """Write row integers (bit i = column i < width) to `path` as binary PBM
    (P4), a row at a time: MSB-first, padded with white to a byte boundary,
    after an optional '#' comment line.  An image with no rows or columns is
    refused before the file is opened."""
    if not rows or width < 1:
        raise EmptyImage(f"image must be non-empty, got {width}x{len(rows)}")
    nbytes = (width + 7) // 8
    note = "" if comment is None else f"# {comment}\n"
    with open(path, "wb") as out:
        out.write(f"P4\n{note}{width} {len(rows)}\n".encode("ascii"))
        out.writelines(bits.to_bytes(nbytes, "little").translate(_REVERSED_BITS)
                       for bits in rows)


def default_budget(fallback: int) -> int:
    env = os.environ.get("EMERGELAB_BUDGET")
    if env is None:
        return fallback
    try:
        value = int(env)
        if value < 1:
            raise ValueError
    except ValueError:
        raise EmergeLabError(f"EMERGELAB_BUDGET must be a positive integer, got {env!r}")
    return value


def _key_values(report: dict) -> str:
    return "".join(f"{key}={value}\n" for key, value in report.items())


class UnreadableFile(EmergeLabError):
    """An input file whose bytes are not UTF-8 text."""


def _read_text(path: str) -> str:
    """Every input file is read here; OSErrors reach `main`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path} is not UTF-8 text: {exc}") from exc


def _read_ints(path: str) -> list[int]:
    values = []
    for token in _read_text(path).split():
        try:
            values.append(int(token))
        except ValueError:
            raise InvalidArgument(f"{path} must hold integers, got {token!r}") from None
    return values


def _write_text(rows, width: int, out):
    """Write row integers as '.'/'#' lines, unpacking ~1 MB of text at a time."""
    nbytes = (width + 7) // 8
    block = max(1, (1 << 20) // (width + 1))
    for start in range(0, len(rows), block):
        chunk = rows[start:start + block]
        raw = b"".join(bits.to_bytes(nbytes, "little") for bits in chunk)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(chunk), nbytes)
        text = np.full((len(chunk), width + 1), ord("\n"), dtype=np.uint8)
        # '#' sits 11 below '.' in ASCII, so cell g prints as '.' - 11 g;
        # in place, as arithmetic: an indexed lookup is ~20x slower
        cells = text[:, :width]
        cells[...] = np.unpackbits(packed, axis=1, count=width, bitorder="little")
        np.multiply(cells, ord(".") - ord("#"), out=cells)
        np.subtract(ord("."), cells, out=cells)
        out.write(str(text.data, "ascii"))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_eca(args) -> dict | None:
    rule = eca.parse_rule(args.rule)
    if args.cyclic_width is not None:
        width = args.cyclic_width
        rows = eca.evolve_cycle(rule, 1 << (width // 2), width, args.steps,
                                max_rows=args.max_rows)
    else:
        seed = eca.BitRow.single() if args.seed is None else eca.BitRow.from_string(args.seed)
        history = eca.evolve(rule, seed, args.steps, max_rows=args.max_rows)
        rows, width = history.bits, history.width
    if not (args.out or args.text):
        return {"rule": args.rule, "steps": args.steps,
                "final_population": rows[-1].bit_count()}
    if args.out:
        render_pbm(args.out, rows, width, comment=f"rule {args.rule}")
    if args.text:
        _write_text(rows, width, sys.stdout)
    return None


def _load_pattern(path: str) -> life.Pattern:
    read = life.parse_cells if path.endswith(".cells") else life.parse_rle
    return read(_read_text(path))


def _cmd_life(args) -> dict:
    pattern = _load_pattern(args.rle)
    if args.life_command == "run":
        result = life.run(pattern, args.steps)
        if args.out_rle:
            Path(args.out_rle).write_text(life.write_rle(result))
        if args.out:
            render_pbm(args.out, *life.raster(result))
        report = {"steps": args.steps, "population": len(result)}
        if args.print == "bbox":
            box = life.bounding_box(result)
            report["bbox"] = "empty" if box is None else ",".join(map(str, box))
        return report
    # fate
    budget = args.budget if args.budget is not None else default_budget(4096)
    fate = life.detect_fate(pattern, budget)
    report = {"verdict": fate.verdict, "t": fate.t}
    if fate.verdict in ("oscillator", "translator", "still_life"):
        report["period"] = fate.period
    if fate.verdict == "translator":
        report["dx"], report["dy"] = fate.dx, fate.dy
    if fate.verdict == "unknown":
        report["budget"] = fate.budget
    return report


def _cmd_ant(args) -> dict:
    steps = args.steps if args.steps is not None else default_budget(20_000)
    start = ant.standard_start(args.heading)
    if args.detect_highway:
        highway = ant.detect_highway(start, steps, args.window_radius,
                                     args.confirmations)
        report = {"found": str(highway.found).lower()}
        if highway.found:
            report.update(onset=highway.onset, period=highway.period,
                          dx=highway.dx, dy=highway.dy)
        report.update(window_radius=highway.window_radius,
                      steps_searched=highway.steps_searched)
        if args.report:
            Path(args.report).write_text(_key_values(report))
        return report
    state = ant.run(start, steps)
    if args.out:
        marker = f"ant {state.pos[0]} {state.pos[1]} {state.heading} steps={state.steps}"
        render_pbm(args.out, *life.raster(state.black), comment=marker)
    return {"steps": state.steps, "x": state.pos[0], "y": state.pos[1],
            "heading": state.heading, "black_cells": len(state.black)}


def _machine(path: str) -> turing.MachineSpec:
    return turing.parse_machine(_read_text(path), name=Path(path).stem)


def _cmd_tm(args) -> dict:
    budget = args.budget if args.budget is not None else default_budget(10 ** 7)
    if args.tm_command == "run":
        machine = _machine(args.machine)
        trace = turing.run(machine, args.input, budget)
        text = turing.format_trace(trace)
        if args.trace_out:
            Path(args.trace_out).write_text(text)
        else:
            sys.stdout.write(text)
        return {"machine": machine.name, "input": args.input,
                "total_steps": trace.total_steps,
                "halted": str(trace.halted).lower(),
                "entries": len(trace.entries)}
    if args.tm_command == "compose":
        approx = _machine(args.approx)
        finisher = _machine(args.finisher)
        value, total, frag = turing.compose(approx, finisher, args.input, budget)
        return {"value": value, "total_steps": total,
                "intermediate": frag.intermediate,
                "approx_steps": frag.approx_steps,
                "finisher_steps": frag.finisher_steps}
    # audit
    approx = _machine(args.approx)
    finisher = _machine(args.finisher)
    indices = range(1, args.max_index + 1)
    values = indices if args.identity_values else _read_ints(args.values)
    if args.timing_from is not None:
        timer = _machine(args.timing_from)
        timing = [turing.run(timer, i, budget).total_steps for i in indices]
    else:
        timing = _read_ints(args.timing)
    witness = turing.BigOWitness(args.c, args.n0)
    audit = turing.audit_approximation(approx, finisher, values, timing,
                                       witness, indices, step_budget=budget)
    report = {"verdict": "pass" if audit.verdict else "fail",
              "vacuous": str(audit.vacuous).lower(),
              "c": str(witness.c), "n0": witness.n0,
              "timing_note": audit.timing_note}
    for rec in audit.records:
        report[f"index_{rec.index}"] = (
            f"r={rec.intermediate} steps={rec.finisher_steps} "
            f"bound={float(rec.bound):.3f} {'pass' if rec.passed else 'fail'}")
    return report


def _cmd_candidate(args) -> dict:
    if args.candidate_command == "sqrt-digits":
        digits = candidates.sqrt_digits(args.m, args.count)
        return {"m": args.m, "count": args.count,
                "digits": "".join(map(str, digits))}
    if args.candidate_command == "digit-chain":
        if args.sqrt is not None:
            stream = candidates.DigitStream.from_sqrt(args.sqrt)
        else:
            stream = candidates.DigitStream.from_text(_read_text(args.digits_file))
        values = candidates.digit_chain(stream, args.n)
        return {"n": args.n, "values": ",".join(map(str, values))}
    if args.candidate_command == "words":
        word = candidates.enumerate_words(args.index, args.skip_epsilon)
        return {"index": args.index, "word": word or "(empty)"}
    if args.candidate_command == "language-count":
        dfa = candidates.parse_dfa(_read_text(args.dfa))
        return {"n": args.n,
                "count": candidates.language_count(dfa, args.n, args.skip_epsilon)}
    # life-survival
    return {"n": args.n, "survivors": candidates.life_survival_count(args.n)}


def _cmd_analyze(args) -> dict:
    if args.rule30_center is not None:
        if not 1 <= args.rule30_center <= eca.CENTER_COLUMN_STEPS + 1:
            raise eca.InvalidSteps(f"--rule30-center must be in "
                                   f"1..{eca.CENTER_COLUMN_STEPS + 1}, got {args.rule30_center}")
        bits = bytes(eca.center_column(eca.parse_rule(30), args.rule30_center - 1))
    else:
        text = "".join(_read_text(args.bits_file).split())
        if not set(text) <= {"0", "1"}:
            raise InvalidArgument(f"{args.bits_file} must contain only 0/1 characters")
        bits = bytes(map(int, text))
    report = {"bits": len(bits),
              "ones_fraction": float(analysis.ones_fraction(bits))}
    if args.block_k is not None:
        report[f"block_entropy_k{args.block_k}"] = round(
            analysis.block_entropy(bits, args.block_k), 6)
    if args.max_period is not None:
        report[f"no_short_period_{args.max_period}"] = str(
            analysis.no_short_period(bits, args.max_period)).lower()
    return report


def _rational(text: str) -> Fraction:
    """argparse type: a malformed value or a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emergelab",
        description="simulate and analyse simple systems with surprising behaviour")
    parser.add_argument("--json", action="store_true",
                        help="emit reports as JSON instead of key=value lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eca", help="elementary cellular automata")
    p.set_defaults(handler=_cmd_eca)
    p.add_argument("--rule", type=int, required=True, metavar="0..255")
    p.add_argument("--steps", type=int, required=True)
    start = p.add_mutually_exclusive_group()
    start.add_argument("--seed", help="seed row such as '#' or '#..#' (default: single cell)")
    start.add_argument("--cyclic-width", type=int, metavar="W",
                       help="run on a W-cell ring from its centre cell "
                            "instead of the unbounded row")
    p.add_argument("--max-rows", type=int, default=10_000)
    p.add_argument("--out", help="write the history as a PBM image")
    p.add_argument("--text", action="store_true", help="print '.'/'#' rows")

    p = sub.add_parser("life", help="Conway's Game of Life")
    p.set_defaults(handler=_cmd_life)
    lsub = p.add_subparsers(dest="life_command", required=True)
    prun = lsub.add_parser("run", help="advance a pattern")
    prun.add_argument("--rle", required=True, help="pattern file (.rle or .cells)")
    prun.add_argument("--steps", type=int, required=True)
    prun.add_argument("--print", choices=["bbox", "pop"], default="pop")
    prun.add_argument("--out-rle", help="write the result pattern as RLE")
    prun.add_argument("--out", help="write the result as a PBM image")
    pfate = lsub.add_parser("fate", help="bounded fate classification")
    pfate.add_argument("--rle", required=True)
    pfate.add_argument("--budget", type=int)

    p = sub.add_parser("ant", help="Langton's ant")
    p.set_defaults(handler=_cmd_ant)
    p.add_argument("--steps", type=int)
    p.add_argument("--heading", choices=list(ant.HEADINGS), default="N")
    p.add_argument("--detect-highway", action="store_true")
    p.add_argument("--window-radius", type=int, default=16)
    p.add_argument("--confirmations", type=int, default=5)
    p.add_argument("--report", help="also write the report to a file")
    p.add_argument("--out", help="write the black cells as a PBM image")

    p = sub.add_parser("tm", help="multi-tape Turing machines")
    p.set_defaults(handler=_cmd_tm)
    tsub = p.add_subparsers(dest="tm_command", required=True)
    ptr = tsub.add_parser("run", help="run a machine and print its trace")
    ptr.add_argument("--machine", required=True)
    ptr.add_argument("--input", type=int, required=True)
    ptr.add_argument("--budget", type=int)
    ptr.add_argument("--trace-out")
    ptc = tsub.add_parser("compose", help="approximation then finisher")
    ptc.add_argument("--approx", required=True)
    ptc.add_argument("--finisher", required=True)
    ptc.add_argument("--input", type=int, required=True)
    ptc.add_argument("--budget", type=int)
    pta = tsub.add_parser("audit", help="empirical approximation audit")
    pta.add_argument("--approx", required=True)
    pta.add_argument("--finisher", required=True)
    pta.add_argument("--max-index", type=int, required=True)
    pta.add_argument("--c", type=_rational, default="8", help="bound constant (rational)")
    pta.add_argument("--n0", type=int, default=1)
    src = pta.add_mutually_exclusive_group(required=True)
    src.add_argument("--identity-values", action="store_true",
                     help="reference values f(i) = i")
    src.add_argument("--values", help="whitespace-separated reference values file")
    src = pta.add_mutually_exclusive_group(required=True)
    src.add_argument("--timing-from", help="measure T(i) by running this machine")
    src.add_argument("--timing", help="whitespace-separated timing table file")
    pta.add_argument("--budget", type=int)

    p = sub.add_parser("candidate", help="candidate hard-to-shortcut functions")
    p.set_defaults(handler=_cmd_candidate)
    csub = p.add_subparsers(dest="candidate_command", required=True)
    pc = csub.add_parser("sqrt-digits")
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--count", type=int, required=True)
    pc = csub.add_parser("digit-chain")
    pc.add_argument("--n", type=int, required=True)
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--sqrt", type=int)
    src.add_argument("--digits-file")
    pc = csub.add_parser("words")
    pc.add_argument("--index", type=int, required=True)
    pc.add_argument("--skip-epsilon", action="store_true")
    pc = csub.add_parser("language-count")
    pc.add_argument("--dfa", required=True)
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--skip-epsilon", action="store_true")
    pc = csub.add_parser("life-survival")
    pc.add_argument("--n", type=int, required=True)

    p = sub.add_parser("analyze", help="bit-stream statistics")
    p.set_defaults(handler=_cmd_analyze)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--bits-file")
    src.add_argument("--rule30-center", type=int, metavar="N",
                     help="analyse the first N centre-column bits of rule 30")
    p.add_argument("--block-k", type=int)
    p.add_argument("--max-period", type=int)

    return parser


# one parser per process: parsing leaves it unchanged, and building it costs
# about 3 ms, most of a small in-process command
_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "eca" and not 0 <= args.rule <= 255:
        parser.error(f"--rule must be in 0..255, got {args.rule}")
    if args.command == "eca" and args.cyclic_width is not None \
            and not 1 <= args.cyclic_width <= eca.HISTORY_CELL_LIMIT:
        parser.error(f"--cyclic-width must be in 1..{eca.HISTORY_CELL_LIMIT}, "
                     f"got {args.cyclic_width}")
    if args.command == "tm" and args.tm_command == "audit" and args.max_index < 1:
        parser.error(f"--max-index must be >= 1, got {args.max_index}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = args.handler(args)
        if report is not None:
            sys.stdout.write(json.dumps(report) + "\n" if args.json
                             else _key_values(report))
    except (EmergeLabError, OSError) as exc:
        print(f"emergelab {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
