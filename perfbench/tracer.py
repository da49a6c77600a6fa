"""Span tracer that wraps hologate's public calls from outside the package.

Modules call each other through module attributes (loops_mod.area,
connection.frame_factory) and frames through FrameFactory methods, so
replacing those attributes catches inner calls too.  Every binding of a
wrapped function in any loaded hologate module is replaced, which also covers
names re-exported by the package (hologate.area).

A span is [name, start, end, parent index, request id].  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part of it
covered by its child spans.  A wrapped attribute that does not exist is
skipped and reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute) for module-level functions.
FUNCTION_TARGETS = (
    ("cli.main", "hologate.cli", "main"),
    ("fock.generators", "hologate.fock", "displacement_generator"),
    ("fock.generators", "hologate.fock", "squeeze_generator"),
    ("fock.generators", "hologate.fock", "two_mode_mix_generator"),
    ("fock.generators", "hologate.fock", "two_mode_squeeze_generator"),
    ("fock.generators", "hologate.fock", "code_states"),
    ("connection.frame_factory", "hologate.connection", "frame_factory"),
    ("connection.holonomy_path_ordered", "hologate.connection", "holonomy_path_ordered"),
    ("connection.check_loop_truncation", "hologate.connection", "check_loop_truncation"),
    ("kicked.run_kicked", "hologate.kicked", "run_kicked"),
    ("loops.area", "hologate.loops", "area"),
    ("loops.discretize_boundary", "hologate.loops", "discretize_boundary"),
    ("loops.polygon_sigma_exact", "hologate.loops", "polygon_sigma_exact"),
    ("gates.gate_for_loop", "hologate.gates", "gate_for_loop"),
    ("error_model.perturbed_area", "hologate.error_model", "perturbed_area"),
    ("error_model.sensitivity", "hologate.error_model", "sensitivity"),
    ("error_model.statistical_loop_noise", "hologate.error_model", "statistical_loop_noise"),
    ("compiler.parse_circuit", "hologate.compiler", "parse_circuit"),
    ("compiler.compile_circuit", "hologate.compiler", "compile_circuit"),
)

# (span name, module, class, method).
METHOD_TARGETS = (
    ("connection.frame_factory.build", "hologate.connection", "FrameFactory", "__init__"),
    ("connection.frame", "hologate.connection", "FrameFactory", "frame"),
    ("connection.control_apply", "hologate.connection", "FrameFactory", "control_apply"),
    ("connection.control_apply", "hologate.connection", "FrameFactory", "control_apply_dagger"),
)

SETUP = "setup"
PACKAGE = "hologate"


class Tracer:
    """Holds spans and installs or removes the wrappers around hologate calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = SETUP
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            return
        for name, module_name, attr in FUNCTION_TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                self.absent.setdefault(name, f"{module_name}.{attr} missing: {exc}")
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module_name, cls_name, attr in METHOD_TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = cls.__dict__[attr]
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent.setdefault(
                    name, f"{module_name}.{cls_name}.{attr} missing: {exc!r}"
                )
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, split into set-up and requests.

    Also counts frame-factory lookups that built nothing, for the hit ratio.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                 "setup_calls": 0, "setup_total_s": 0.0, "setup_self_s": 0.0}
    )
    built_under: set[int] = set()
    for span in spans:
        if span[0] == "connection.frame_factory.build" and span[3] >= 0:
            built_under.add(span[3])
    hits = 0
    for i, (name, start, end, _, request) in enumerate(spans):
        entry = out[name]
        prefix = "setup_" if request == SETUP else ""
        entry[prefix + "calls"] += 1
        entry[prefix + "total_s"] += end - start
        entry[prefix + "self_s"] += selfs[i]
        if name == "connection.frame_factory" and i not in built_under:
            hits += 1
    out["connection.frame_factory"]["hits"] = hits
    return dict(out)


def merge(summaries: list[dict[str, dict]]) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = merged.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return merged
