"""The three benchmark workloads.

Each workload generates its inputs from the seed in setup(), before any
timing, and then hands out requests one cycle at a time.  The time that
generation takes is kept in inputs_s: it is the benchmark's own work, so it
is left out of setup_s.  Pools hold a few times what one 30 s run on the seed
code uses; a faster program wraps round and reuses them.  A cycle has a fixed
mix of request kinds, so a run made of whole cycles has the same mix on every
seed; only the generated loops, files and circuits change.  A request's run()
is the timed program call; check() judges its output afterwards against the
references in checks.py.

oracle-rect / oracle-polyline: one dynamical cross-check per request,
  holonomy_path_ordered at 2000 steps plus run_kicked at 1024 kicks, at the
  CLI-default cutoffs (60 on plane I, 14 on plane III).  Plane II is left
  out: its oracle cost equals plane I's and its area-formula reference is
  known not to match the transport.
cli-cold: one fresh `python -m hologate.cli` process per README command.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

import checks
import inputs

ORACLE_STEPS = 2000
ORACLE_KICKS = 1024
CUTOFF = {"I": 60, "III": 14}
NOISE_SAMPLES = 256
CLI_TIMEOUT_S = 120
NONZERO_EXIT = "NonzeroExit"
# In-process set-up imports the whole package, cli included, so the oracle
# workloads' setup_s carries the import work of `import hologate.cli` too.
MODULES = ("cli", "compiler", "connection", "error_model", "fock", "gates", "kicked", "loops")


@dataclass
class Request:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # Warning-like events read from an output, for requests run out of process.
    events: Callable[[Any], list[str]] | None = None


def child_env(root: str) -> dict:
    """This process's environment (BLAS pinning included) with the checkout's src first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Program:
    """hologate's modules, looked up by attribute at call time so wrappers apply."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"hologate.{name}"))
        self.hologate = importlib.import_module("hologate")

    def loop_spec(self, loop: dict):
        hg = self.hologate
        if "rect" in loop:
            shape = hg.Rect(**loop["rect"])
        else:
            shape = hg.Polyline(tuple(tuple(p) for p in loop["polyline"]))
        return hg.LoopSpec(hg.PlaneId(loop["plane"]), shape, loop["orientation"])


# ---------------------------------------------------------------------------
# Oracle cross-checks


class OracleWorkload:
    """Per cycle: two plane I cross-checks and one plane III cross-check."""

    in_process = True
    PLANES = ("I", "I", "III")
    # Loops per plane; a 30 s run uses at most about 36 on plane I.
    POOL = 128

    def __init__(self, name: str, shape: str):
        self.name = name
        self.shape = shape
        self.make = inputs.rect_loop if shape == "rect" else inputs.polygon_loop

    def setup(self, seed: int) -> None:
        self.prog = Program()
        start = time.perf_counter()
        self.pool = {}
        for plane in ("I", "III"):
            rng = inputs.stream(seed, f"{self.name}:{plane}")
            self.pool[plane] = [self.make(rng, plane, inputs.ORACLE_DOMAIN)
                                for _ in range(self.POOL)]
        self.inputs_s = time.perf_counter() - start
        self.used = {"I": 0, "III": 0}
        # First-use builds (frame factories, lazy imports) belong to set-up.
        for plane in ("I", "III"):
            tiny = self.prog.loop_spec(
                {"plane": plane, "orientation": 1,
                 "rect": {"u_min": 0.0, "u_max": 0.02, "v_min": 0.0, "v_max": 0.02}}
            )
            self.prog.connection.holonomy_path_ordered(tiny, CUTOFF[plane], 100)
            kicked = self.prog.kicked
            kicked.run_kicked(kicked.KickSchedule(tiny, 16, cutoff=CUTOFF[plane]))

    def _next(self, plane: str) -> dict:
        pool = self.pool[plane]
        loop = pool[self.used[plane] % len(pool)]
        self.used[plane] += 1
        return loop

    def cycle(self, index: int) -> list[Request]:
        return [self._request(self._next(plane)) for plane in self.PLANES]

    def _request(self, loop: dict) -> Request:
        prog = self.prog
        spec = prog.loop_spec(loop)
        cutoff = CUTOFF[loop["plane"]]

        def run():
            oracle = prog.connection.holonomy_path_ordered(spec, cutoff, ORACLE_STEPS)
            kicked = prog.kicked.run_kicked(
                prog.kicked.KickSchedule(spec, ORACLE_KICKS, cutoff=cutoff)
            )
            return oracle.matrix, kicked.code_map, kicked.leakage

        def check(out):
            transport, kicked_map, leakage = out
            calibrate = prog.connection.calibrated_code_matrix
            return (
                checks.check_oracle(loop, "connection", calibrate(spec.plane, transport))
                + checks.check_oracle(loop, "kicked", calibrate(spec.plane, kicked_map), leakage)
                + checks.check_area_gate(
                    loop, prog.loops.area(spec).sigma, prog.gates.gate_for_loop(spec).matrix
                )
            )

        return Request(f"oracle-{self.shape}:{loop['plane']}", run, check)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Cold CLI processes


class CliColdWorkload:
    """Per cycle: nine README commands, each a fresh `python -m hologate.cli` process.

    Every command runs with --strict, so a truncation warning shows as exit 4.
    The traced run swaps the module entry point for launcher.py.
    """

    name = "cli-cold"
    in_process = False
    # (command, plane, shape); oracle loops come from the oracle domain.
    CYCLE = (
        ("area", "I", "rect"),
        ("gate", "III", "rect"),
        ("error-shift", "II", "rect"),
        ("area", "III", "polygon"),
        ("error-statistical", "I", "polygon"),
        ("compile", None, None),
        ("oracle-connection", "I", "rect"),
        ("error-shift", "III", "rect"),
        ("oracle-kicked", "III", "rect"),
    )
    # A 30 s run makes 4-5 cycles on the seed code.
    POOL_CYCLES = 12

    def __init__(self, root: str, results_dir: str):
        self.root = root
        self.results_dir = results_dir
        self.tracing = False
        self.launches = []  # span files written by traced launches

    def setup(self, seed: int) -> None:
        os.makedirs(self.results_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-cold-", dir=self.results_dir)
        self.env = child_env(self.root)
        start = time.perf_counter()
        self.pool = []
        rng = inputs.stream(seed, "cli-cold")
        for c in range(self.POOL_CYCLES):
            self.pool.append([self._make(rng, c, i, *spec) for i, spec in enumerate(self.CYCLE)])
        self.inputs_s = time.perf_counter() - start
        warm = self.pool[0][0]
        # First import compiles and caches bytecode; that belongs to set-up.
        result = subprocess.run(
            self._argv(warm["argv"], traced=False), cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if result.returncode != 0:
            raise RuntimeError(f"warm-up CLI call failed: {result.stderr.strip()}")

    def _make(self, rng, c: int, i: int, command: str, plane, shape) -> dict:
        name = f"c{c:03d}-{i}"
        if command == "compile":
            text, gates = inputs.circuit(rng)
            path = inputs.write_circuit(self.dir, name + ".txt", text)
            shift = float(rng.uniform(1e-4, 1e-2))
            return {"command": command, "gates": gates, "shift": shift,
                    "argv": ["compile", path, "--shift-magnitude", repr(shift)]}
        domain = inputs.ORACLE_DOMAIN if command.startswith("oracle") else inputs.AREA_DOMAIN
        loop = (inputs.rect_loop if shape == "rect" else inputs.polygon_loop)(rng, plane, domain)
        if command == "error-statistical":
            loop = inputs.counterclockwise(loop)
        path = inputs.write_loop(self.dir, name + ".json", loop)
        item = {"command": command, "loop": loop}
        if command in ("area", "gate"):
            item["argv"] = [command, path]
        elif command == "error-shift":
            item["shift"] = inputs.border_shift(rng, loop)
            item["argv"] = ["error", path, "--shift=" + ",".join(repr(s) for s in item["shift"])]
        elif command == "error-statistical":
            item["amplitude"] = inputs.noise_amplitude(rng, loop)
            item["argv"] = ["--seed", str(int(rng.integers(2**31))), "error", path,
                            "--statistical", repr(item["amplitude"]), str(NOISE_SAMPLES)]
        elif command == "oracle-connection":
            item["argv"] = ["oracle", path, "--method", "connection"]
        else:
            item["argv"] = ["--steps", str(ORACLE_KICKS), "oracle", path, "--method", "kicked"]
        return item

    def _argv(self, cli_args: list[str], traced: bool) -> list[str]:
        if traced:
            spans = os.path.join(self.dir, f"spans-{len(self.launches):05d}.json")
            self.launches.append(spans)
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            return [sys.executable, launcher, spans, "--strict", *cli_args]
        return [sys.executable, "-m", "hologate.cli", "--strict", *cli_args]

    def cycle(self, index: int) -> list[Request]:
        return [self._request(item) for item in self.pool[index % len(self.pool)]]

    def _request(self, item: dict) -> Request:
        def run():
            argv = self._argv(item["argv"], traced=self.tracing)
            try:
                done = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return -1, "", f"timed out after {CLI_TIMEOUT_S} s"
            return done.returncode, done.stdout, done.stderr

        def check(out):
            code, stdout, stderr = out
            record, problems = checks.strict_record(code, stdout)
            if record is None:
                return problems + ([stderr.strip().splitlines()[-1]] if stderr.strip() else [])
            return problems + check_cli_record(item, record)

        return Request(f"cli-{item['command']}", run, check, cli_events)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def cli_events(out) -> list[str]:
    """Non-zero exits, truncation reports (exit 4 under --strict) and leaky kicked runs."""
    code, stdout, stderr = out
    events = [NONZERO_EXIT] if code != 0 else []
    events += ["TruncationWarning"] * stderr.count("truncation:")
    record, _ = checks.strict_record(code, stdout)
    leakage = record.get("leakage") if record else None
    if isinstance(leakage, (int, float)) and leakage >= checks.LEAKAGE_LIMIT:
        events.append("AdiabaticityWarning")
    return events


def check_cli_record(item: dict, record: dict) -> list[str]:
    command = item["command"]
    try:
        if command == "compile":
            return checks.check_compiled(item["gates"], item["shift"], record)
        loop = item["loop"]
        if command == "area":
            return checks.check_area_gate(loop, record["sigma"], None)
        if command == "gate":
            return checks.check_area_gate(
                loop, record["area"]["sigma"], checks.pairs_to_matrix(record["matrix"])
            )
        if command == "error-shift":
            return checks.check_shift(
                loop, item["shift"], record["sigma_nominal"], record["sigma_perturbed"],
                record["epsilon"],
            ) + checks.check_sensitivity(loop, record["sensitivity"])
        if command == "error-statistical":
            return checks.check_noise(
                loop, NOISE_SAMPLES, record["sigma_nominal"], record["mean"], record["std"],
                record["mean_drift"], record["samples"],
            )
        route = command.split("-", 1)[1]
        leakage = record["leakage"] if route == "kicked" else None
        formula = checks.pairs_to_matrix(record["formula_gate"])
        oracle = checks.pairs_to_matrix(record["oracle_gate"])
        return (
            checks.check_area_gate(loop, record["area"]["sigma"], formula)
            + checks.check_oracle(loop, route, oracle, leakage)
            + checks.matrix_close("oracle_gate vs formula_gate", oracle, formula,
                                  checks.ROUTE_BOUND[route])
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {command} record: {exc!r}"]


def make(name: str, root: str, results_dir: str):
    if name == "oracle-rect":
        return OracleWorkload(name, "rect")
    if name == "oracle-polyline":
        return OracleWorkload(name, "polygon")
    if name == "cli-cold":
        return CliColdWorkload(root, results_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle-rect", "oracle-polyline", "cli-cold")
