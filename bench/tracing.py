"""Span recording around the public functions of emergelab's modules.

The recorder replaces module attributes with thin wrappers, so every call
that resolves the function through its module (``eca.step_row`` from the
CLI, or the bare global ``step_row`` inside ``eca.evolve``) opens a span.
Calls bound before the wrappers were installed stay invisible; see
README.md for the list.  Spans are kept in memory and written out once,
after the run.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> wrapped public functions.  `candidates.enumerate_words` is left
# out on purpose: language-count calls it 2e5 times per job.
LAYERS = {
    "eca": ("step_row", "step_cycle", "evolve", "evolve_cycle",
            "center_column", "parse_rule"),
    "analysis": ("ones_fraction", "block_entropy", "no_short_period"),
    "life": ("parse_rle", "write_rle", "run", "step", "detect_fate",
             "canonical", "bounding_box"),
    "turing": ("parse_machine", "run", "compose", "audit_approximation"),
    "ant": ("run", "detect_highway"),
    "candidates": ("sqrt_digits", "digit_chain", "language_count",
                   "life_survival_count", "parse_dfa"),
    "cli": ("main", "render_pbm"),
}

# Soup scales whose life.run time is reported per generation.
LIFE_TAGS = ("1e2", "1e4", "1e5", "gun")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fate_generations(args, kwargs, report):
    if report.verdict == "unknown":
        return report.budget
    if report.verdict == "extinct":
        return report.t
    return report.t + report.period


# Work done by one call, counted from its arguments or its result.
WORK = {
    "eca.step_row": lambda a, k, r: _arg(a, k, 1, "row").width + 2,
    "eca.step_cycle": lambda a, k, r: _arg(a, k, 2, "width"),
    "life.run": lambda a, k, r: _arg(a, k, 1, "steps"),
    "life.detect_fate": _fate_generations,
    "turing.run": lambda a, k, r: r.total_steps,
    "ant.run": lambda a, k, r: _arg(a, k, 1, "n"),
    "ant.detect_highway": lambda a, k, r: r.steps_searched,
    "candidates.language_count": lambda a, k, r: _arg(a, k, 1, "n") - 1,
    "candidates.life_survival_count": lambda a, k, r: _arg(a, k, 0, "n") ** 2,
}

# Derived rates (1/s): name -> functions.  Rate = their work / their busy time.
RATES = {
    "eca.cell_updates_per_s": ("eca.step_row", "eca.step_cycle"),
    "life.fate_gens_per_s": ("life.detect_fate",),
    "candidates.survival_gens_per_s": ("candidates.life_survival_count",),
    "candidates.words_per_s": ("candidates.language_count",),
    "turing.steps_per_s": ("turing.run",),
    "ant.run_steps_per_s": ("ant.run",),
    "ant.highway_steps_per_s": ("ant.detect_highway",),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, functions in LAYERS.items():
        for fn in functions:
            specs += [(f"{module}.{fn}.calls", "count", "lower"),
                      (f"{module}.{fn}.busy_s", "s", "lower"),
                      (f"{module}.{fn}.self_s", "s", "lower")]
        specs.append((f"{module}.errors", "count", "lower"))
    specs += [(name, "1/s", "higher") for name in RATES]
    specs += [(f"life.ms_per_gen.{tag}", "ms", "lower") for tag in LIFE_TAGS]
    specs.append(("trace_overhead", "ratio", "lower"))
    return specs


class Recorder:
    """Collects spans [name, start, end, parent, job] while installed.

    The load is single-threaded, so one stack of open spans gives every
    span its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.work: dict[int, int] = {}
        self.failed: set[int] = set()
        self.job = None
        self._stack: list[int] = []

    def reset(self):
        self.spans, self.work, self.failed = [], {}, set()

    def _wrap(self, name, fn):
        count = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed.add(index)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                self.work[index] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap LAYERS in `modules` (name -> module object) for the block."""
        originals = []
        try:
            for module_name, functions in LAYERS.items():
                module = modules[module_name]
                for fn in functions:
                    original = getattr(module, fn)
                    originals.append((module, fn, original))
                    setattr(module, fn, self._wrap(f"{module_name}.{fn}", original))
            yield self
        finally:
            for module, fn, original in reversed(originals):
                setattr(module, fn, original)

    def export(self, path, origin: float):
        """Write the spans as JSON lines, times in seconds from `origin`."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "job": job}) + "\n")

    def metrics(self, job_tags: dict) -> dict:
        """Per-layer metrics of the spans recorded since the last reset.

        Self time is a span's duration minus its children's durations;
        spans nest strictly, so children never overlap.
        """
        durations = [end - start for _, start, end, _, _ in self.spans]
        child_time = defaultdict(float)
        for (_, _, _, parent, _), d in zip(self.spans, durations):
            if parent is not None:
                child_time[parent] += d
        calls, busy, self_time, work = (defaultdict(int), defaultdict(float),
                                        defaultdict(float), defaultdict(int))
        errors = defaultdict(int)
        tag_time, tag_gens = defaultdict(float), defaultdict(int)
        for i, ((name, _, _, _, job), d) in enumerate(zip(self.spans, durations)):
            calls[name] += 1
            busy[name] += d
            self_time[name] += d - child_time[i]
            work[name] += self.work.get(i, 0)
            if i in self.failed:
                errors[name.split(".")[0]] += 1
            if name == "life.run" and job_tags.get(job):
                tag_time[job_tags[job]] += d
                tag_gens[job_tags[job]] += self.work[i]
        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.busy_s"] = busy[name]
                out[f"{name}.self_s"] = self_time[name]
            out[f"{module}.errors"] = errors[module]
        for rate, sources in RATES.items():
            seconds = sum(busy[s] for s in sources)
            out[rate] = sum(work[s] for s in sources) / seconds if seconds else 0.0
        for tag in LIFE_TAGS:
            gens = tag_gens[tag]
            out[f"life.ms_per_gen.{tag}"] = 1000 * tag_time[tag] / gens if gens else 0.0
        return out


def best_metrics(per_pass: list[dict]) -> dict:
    """Each metric at its best over the traced passes (least time, highest
    rate), for the reason given in run.best_latencies.  Counts are equal
    in every pass except errors, which keep their worst."""
    specs = {name: (unit, better) for name, unit, better in metric_specs()}
    return {name: (max if specs[name][0] == "count" or specs[name][1] == "higher" else min)(
                p[name] for p in per_pass) for name in per_pass[0]}
