"""hologate benchmark: one workload per run, outputs checked, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: oracle-rect, oracle-polyline, cli-cold (see workloads.py).
Requests run closed loop with one client, in whole cycles of a fixed request
mix, until S seconds have passed.  BLAS is pinned to one thread through this
process's environment, which child processes inherit.

--trace 0 reports the end-to-end metrics; setup_s is the median of five
fresh processes timed from start to ready (imports and first-use builds),
less the time each spent generating the benchmark's own inputs.  The five
run between cycles, spread over the run, so that setup_s samples the same
stretch of host load as the requests do.  --trace 1 alternates plain and
traced cycles and reports the per-layer metrics from the traced ones plus
the tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  A
fuller report (environment, sample counts, failures, absent wrappers) goes to
perfbench/results/ and a summary to stderr.  Exits 2 when the checkout holds
no hologate sources.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import envinfo  # noqa: E402

if __name__ == "__main__":
    envinfo.pin_blas_threads()  # before numpy is imported; child processes inherit it

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 150
MIN_TAIL_SAMPLES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# name: (unit, span, statistic, scope).  "request" scope divides the traced
# requests' spans by their count; "process" scope adds set-up spans and
# divides by the number of traced processes (1 in-process, one per request
# for cli-cold).
def _span_metrics() -> dict:
    build = "connection.frame_factory.build"
    table = {
        "cli.main.self_ms": ("ms/req", "cli.main", "self_s", "request"),
        "fock.generators.self_ms": ("ms/process", "fock.generators", "self_s", "process"),
        "connection.frame_factory.build_ms": ("ms/process", build, "total_s", "process"),
        "connection.frame_factory.builds": ("count/process", build, "calls", "process"),
    }
    for span, stats in (
        ("connection.frame", ("calls", "self_s")),
        ("connection.holonomy_path_ordered", ("self_s", "total_s")),
        ("connection.check_loop_truncation", ("self_s",)),
        ("connection.control_apply", ("calls", "self_s")),
        ("kicked.run_kicked", ("self_s", "total_s")),
        ("loops.area", ("calls", "self_s")),
        ("loops.discretize_boundary", ("self_s",)),
        ("loops.polygon_sigma_exact", ("self_s",)),
        ("gates.gate_for_loop", ("self_s",)),
        ("error_model.perturbed_area", ("self_s",)),
        ("error_model.sensitivity", ("self_s",)),
        ("error_model.statistical_loop_noise", ("self_s",)),
        ("compiler.parse_circuit", ("self_s",)),
        ("compiler.compile_circuit", ("self_s",)),
    ):
        for stat in stats:
            if stat == "calls":
                table[f"{span}.calls"] = ("count/req", span, stat, "request")
            else:
                table[f"{span}.{stat[:-2]}_ms"] = ("ms/req", span, stat, "request")
    return table


SPAN_METRICS = _span_metrics()
PER_LAYER = (
    ("cli.import_ms", "ms"),
    *((name, spec[0]) for name, spec in SPAN_METRICS.items()),
    ("connection.frame_factory.hit_ratio", "ratio"),
    ("connection.truncation_warnings", "count"),
    ("kicked.adiabaticity_warnings", "count"),
    ("cli.nonzero_exits", "count"),
    ("trace.overhead_frac", "frac"),
)


@dataclass
class Sample:
    phase: str  # "plain" or "traced"
    request: workloads.Request
    output: object
    error: str | None
    warnings: list[str]
    latency_s: float
    problems: list[str] = field(default_factory=list)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and the input time, and exit")
    return parser.parse_args(argv)


def probe_setup(args) -> tuple[float, float]:
    """Seconds from launching a fresh benchmark process to its 'ready' line,
    less its input generation, and the input generation seconds themselves."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    word, _, inputs_s = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return elapsed - float(inputs_s), float(inputs_s)


def cli_import_ms() -> float:
    """Median of fresh `import hologate.cli` minus bare interpreter start, in ms."""

    def timed(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(ROOT),
                       check=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
        return time.perf_counter() - start

    diffs = [timed("import hologate.cli") - timed("pass") for _ in range(IMPORT_PROBES)]
    return 1000.0 * statistics.median(diffs)


def set_tracing(wl, tr: tracer.Tracer, on: bool) -> None:
    """In-process workloads wrap hologate here; cli-cold switches to the traced launcher."""
    if not wl.in_process:
        wl.tracing = on
    elif on:
        tr.install()
    else:
        tr.uninstall()


def run_cycles(wl, seconds: float, tr: tracer.Tracer | None, probe=None):
    """Whole request cycles until `seconds` pass; with a tracer, odd cycles are traced.

    Each cycle's outputs are checked once the cycle is over, with tracing off,
    and then dropped, so the live heap does not grow with the run.  With a
    probe, SETUP_PROBES calls of it are spread evenly over the run, between
    cycles, and the time they take does not count towards `seconds`.
    """
    samples: list[Sample] = []
    probes = []
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        due = seconds * len(probes) / SETUP_PROBES
        if probe is not None and len(probes) < SETUP_PROBES and (
            time.perf_counter() - start - paused >= due
        ):
            t0 = time.perf_counter()
            probes.append(probe())
            paused += time.perf_counter() - t0
        phase = "traced" if tr is not None and index % 2 == 1 else "plain"
        if phase == "traced":
            set_tracing(wl, tr, True)
        cycle = []
        for request in wl.cycle(index):
            if tr is not None:
                tr.request = len(samples) + len(cycle)
            t0 = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    output, error = request.run(), None
                except Exception as exc:  # a failed request is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            cycle.append(Sample(phase, request, output, error,
                                [w.category.__name__ for w in caught], latency))
        if phase == "traced":
            set_tracing(wl, tr, False)
        for sample in cycle:
            check(sample)
        samples += cycle
        index += 1
        if time.perf_counter() - start - paused >= seconds and (tr is None or index % 2 == 0):
            break
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return samples, index, probes


def check(s: Sample) -> None:
    """Record the sample's problems and drop its output."""
    if s.error is None and s.request.events is not None:
        s.warnings += s.request.events(s.output)
    problems = [s.error] if s.error else []
    problems += checks.warnings_raised(s.warnings)
    if s.error is None:
        try:
            problems += s.request.check(s.output)
        except Exception as exc:  # a malformed output is a failed request
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    s.problems = problems
    s.output = None


def throughput(samples: list[Sample], phase: str) -> float:
    """Completed requests per second of service time: one client, no think time."""
    done = [s for s in samples if s.phase == phase]
    return sum(1 for s in done if s.error is None) / sum(s.latency_s for s in done)


def end_to_end(wl, samples, setup_samples, inputs_samples) -> tuple[dict, dict]:
    ms = [1000.0 * s.latency_s for s in samples]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_rps": throughput(samples, "plain"),
        "latency_p50_ms": statistics.median(ms),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    # p90 only where at least ten samples lie beyond it
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 10 * MIN_TAIL_SAMPLES else None
    extra = {
        "samples": len(ms),
        "latency_p90_ms": p90,
        "setup_samples_s": setup_samples,
        "inputs_samples_s": inputs_samples,
        "service_s": sum(s.latency_s for s in samples),
    }
    return values, extra


def layer_values(summary: dict, n_requests: int, n_processes: int) -> dict:
    values = {}
    for name, (_, span, stat, scope) in SPAN_METRICS.items():
        entry = summary.get(span, {})
        total = entry.get(stat, 0)
        if scope == "process":
            total += entry.get("setup_" + stat, 0)
        value = total / (n_requests if scope == "request" else n_processes)
        values[name] = 1000.0 * value if stat.endswith("_s") else float(value)
    lookups = summary.get("connection.frame_factory", {})
    n_lookups = lookups.get("calls", 0) + lookups.get("setup_calls", 0)
    values["connection.frame_factory.hit_ratio"] = (
        lookups.get("hits", 0) / n_lookups if n_lookups else 0.0
    )
    return values


def absent_metrics(absent_spans: dict) -> dict:
    out = {}
    for name, (_, span, _, _) in SPAN_METRICS.items():
        if span in absent_spans:
            out[name] = absent_spans[span]
    if "connection.frame_factory" in absent_spans:
        out["connection.frame_factory.hit_ratio"] = absent_spans["connection.frame_factory"]
    return out


def per_layer(args, wl, tr, samples, import_ms) -> tuple[dict, dict]:
    traced = [s for s in samples if s.phase == "traced"]
    if wl.in_process:
        summary = tracer.summarize(tr.spans)
        absent = dict(tr.absent)
        n_processes = 1
        spans_out = tr.spans
        n_spans = len(tr.spans)
    else:
        summaries, absent, spans_out = [], {}, []
        for path in wl.launches:
            if not os.path.exists(path):  # the launch died before writing; its exit counts
                continue
            with open(path, encoding="utf-8") as fh:
                launch = json.load(fh)
            summaries.append(tracer.summarize(launch["spans"]))
            absent.update(launch["absent"])
            spans_out.append(launch["spans"])
        summary = tracer.merge(summaries)
        n_spans = sum(len(spans) for spans in spans_out)
        n_processes = max(len(wl.launches), 1)
    events = [name for s in samples for name in s.warnings]
    values = {"cli.import_ms": import_ms}
    values.update(layer_values(summary, max(len(traced), 1), n_processes))
    plain_rps = throughput(samples, "plain")
    traced_rps = throughput(samples, "traced")
    values.update({
        "connection.truncation_warnings": float(events.count("TruncationWarning")),
        "kicked.adiabaticity_warnings": float(events.count("AdiabaticityWarning")),
        "cli.nonzero_exits": float(events.count(workloads.NONZERO_EXIT)),
        "trace.overhead_frac": (traced_rps - plain_rps) / plain_rps,
    })
    extra = {
        "traced_requests": len(traced),
        "plain_requests": len(samples) - len(traced),
        "plain_rps": plain_rps,
        "traced_rps": traced_rps,
        "spans": n_spans,
        "absent": absent_metrics(absent),
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": spans_out}, fh)
    return values, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hologate", "__init__.py")):
        print(f"error: no hologate sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = workloads.make(args.workload, ROOT, RESULTS)
    if args.setup_probe:
        try:
            wl.setup(args.seed)
            print(f"ready {wl.inputs_s!r}", flush=True)
        finally:
            wl.close()
        return 0

    env = envinfo.record(ROOT)
    tr = tracer.Tracer() if args.trace else None
    try:
        if tr is None:
            wl.setup(args.seed)
        else:
            set_tracing(wl, tr, True)  # set-up spans carry the request id "setup"
            wl.setup(args.seed)
            set_tracing(wl, tr, False)
            import_ms = cli_import_ms()
        # Keep the set-up heap (modules, input pools) out of the collector's
        # timed passes; objects made while timing are collected as usual.
        gc.collect()
        gc.freeze()
        probe = (lambda: probe_setup(args)) if tr is None else None
        samples, cycles, probes = run_cycles(wl, args.seconds, tr, probe)
        if tr is None:
            setup_samples, inputs_samples = zip(*probes)
            values, extra = end_to_end(wl, samples, list(setup_samples), list(inputs_samples))
            units = END_TO_END
        else:
            values, extra = per_layer(args, wl, tr, samples, import_ms)
            units = PER_LAYER
    finally:
        wl.close()

    failed = [s for s in samples if s.problems]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": not failed, "attempted": len(samples), "failed": len(failed),
              "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "env": env, "result": result,
        "failed_frac": len(failed) / len(samples), "extra": extra,
        "failures": [{"kind": s.request.kind, "problems": s.problems} for s in failed[:20]],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(samples)} requests in {cycles} cycles, "
          f"{len(failed)} failed; report {os.path.relpath(path, ROOT)}", file=sys.stderr)
    for s in failed[:5]:
        print(f"  failed {s.request.kind}: {'; '.join(s.problems)[:300]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
