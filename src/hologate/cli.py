"""Command-line driver: every computation behind machine-readable JSON.

Commands: area, gate, oracle, error, compile.  Complex matrices are printed
as nested [re, im] pairs, the effective configuration is echoed in every
record, and floats are rounded to the configured number of significant
digits, so identical inputs produce bit-identical output.

Exit codes: 0 success, 2 parse/validation error, 4 truncation-policy
violation under --strict.  Truncation and adiabaticity warnings are reported
on stderr, one line per kind; an adiabaticity warning leaves the exit code
alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import compiler, connection, error_model, gates, kicked
from . import loops as loops_mod
from .exceptions import AdiabaticityWarning, TruncationWarning
from .loops import LoopSpec, PlaneId, Rect

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRUNCATION = 4

DEFAULT_SINGLE_MODE_CUTOFF = 60
DEFAULT_TWO_MODE_CUTOFF = 14


def _round_floats(obj, digits: int):
    """Round every float in a record to `digits` significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}") + 0.0  # normalize -0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def _emit(record: dict, precision: int) -> None:
    print(json.dumps(_round_floats(record, precision), sort_keys=True, allow_nan=False))


def _config_record(args, cutoff: int | None = None) -> dict:
    return {
        "cutoff": cutoff,
        "seed": args.seed,
        "output_precision": args.precision,
        "strict": bool(args.strict),
    }


def _load_loop(path: str) -> LoopSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return loops_mod.loop_from_dict(data)


def _effective_cutoff(args, loop: LoopSpec) -> int:
    if args.cutoff is not None:
        return args.cutoff
    return DEFAULT_TWO_MODE_CUTOFF if loop.plane is PlaneId.III else DEFAULT_SINGLE_MODE_CUTOFF


def _paper_stated_sigma(loop: LoopSpec) -> float | None:
    """The stated pi/4 target when the loop is one of the paper's reference rectangles."""
    stated = compiler.PAPER_STATED_RECTS.get(loop.plane.value)
    if stated is None or not isinstance(loop.shape, Rect):
        return None
    if all(
        math.isclose(getattr(loop.shape, f), bound, rel_tol=0, abs_tol=1e-12)
        for f, bound in stated["rect"].items()
    ):
        return loop.orientation * stated["stated_sigma"]
    return None


def _area_record(loop: LoopSpec) -> dict:
    result = loops_mod.area(loop)
    record = {
        "loop": loops_mod.loop_to_dict(loop),
        "sigma": result.sigma,
        "method": result.method,
        "abs_error_estimate": result.abs_error_estimate,
    }
    stated = _paper_stated_sigma(loop)
    if stated is not None:
        record["paper_stated_value"] = stated
    return record


def cmd_area(args) -> int:
    loop = _load_loop(args.loop_file)
    record = _area_record(loop)
    record["config"] = _config_record(args)
    _emit(record, args.precision)
    return EXIT_OK


def cmd_gate(args) -> int:
    loop = _load_loop(args.loop_file)
    gate = gates.gate_for_loop(loop)
    record = {
        "config": _config_record(args),
        "area": _area_record(loop),
        "generator": gate.diagnostics["generator"],
        "provenance": gate.provenance,
        "matrix": matrix_to_json(gate.matrix),
    }
    _emit(record, args.precision)
    return EXIT_OK


def cmd_oracle(args) -> int:
    loop = _load_loop(args.loop_file)
    cutoff = _effective_cutoff(args, loop)
    # steps/2, where the convergence estimate reruns the loop, needs a step per edge where
    # edges take steps: every kicked edge, and a connection edge only if it takes Magnus steps
    half_steps = max(args.steps // 2, 16 if args.method == "kicked" else 4)
    edges = len(loops_mod.boundary_vertices(loop))
    if half_steps < edges and (args.method == "kicked" or connection.takes_magnus_steps(loop)):
        raise ValueError(
            f"--steps {args.steps} is too few for a loop of {edges} edges: the convergence "
            f"estimate reruns it at steps/2 = {half_steps}, fewer than its edges; raise --steps"
        )
    # the route runs before the area, so that a loop too far for both is refused in the
    # route's own terms (its overflow or its control increment)
    if args.method == "connection":
        oracle = connection.holonomy_path_ordered(loop, cutoff, args.steps)
        raw = oracle.matrix
        route = {
            "unitarity_defect": oracle.unitarity_defect,
            "convergence_estimate": oracle.diagnostics["convergence_estimate"],
            "integrator": oracle.diagnostics["integrator"],
        }
    else:
        schedule = kicked.KickSchedule(loop, kick_count=args.steps, cutoff=cutoff)
        half_schedule = kicked.KickSchedule(loop, half_steps, cutoff=cutoff)
        half_runs = loops_mod.boundary_runs(loop, half_schedule.kick_count)
        half_step = kicked.largest_control_step(half_runs)
        if half_step > kicked.MAX_CONTROL_STEP:
            raise ValueError(
                f"--steps {args.steps} is too few kicks: the convergence estimate reruns the "
                f"loop at steps/2 = {half_schedule.kick_count} kicks, whose largest control "
                f"increment {half_step:.4g} exceeds {kicked.MAX_CONTROL_STEP}; raise --steps"
            )
        result = kicked.run_kicked(schedule)
        half = kicked.run_kicked(half_schedule)
        raw = result.code_map
        route = {
            "leakage": result.leakage,
            "convergence_estimate": float(np.linalg.norm(result.code_map - half.code_map)),
        }
    formula = gates.gate_for_loop(loop)
    calibrated = connection.calibrated_code_matrix(loop.plane, raw)
    record = {
        "config": _config_record(args, cutoff),
        "method": args.method,
        "steps": args.steps,
        "formula_gate": matrix_to_json(formula.matrix),
        "area": _area_record(loop),
        "oracle_gate": matrix_to_json(calibrated),
        "oracle_gate_raw_frame": matrix_to_json(raw),
        **route,
        "frobenius_distance": float(np.linalg.norm(calibrated - formula.matrix)),
    }
    _emit(record, args.precision)
    return EXIT_OK


def cmd_error(args) -> int:
    loop = _load_loop(args.loop_file)
    record: dict = {"config": _config_record(args), "loop": loops_mod.loop_to_dict(loop)}
    if args.shift is not None:
        shift = error_model.BorderShift(*args.shift)
        report = error_model.perturbed_area(loop, shift)
        sens = error_model.sensitivity(loop)
        record.update(
            {
                "shift": dict(zip(error_model.BORDERS, shift.as_tuple())),
                "sigma_nominal": report.sigma_nominal,
                "sigma_perturbed": report.sigma_perturbed,
                "epsilon": report.epsilon,
                "sensitivity": sens,
                "flags": report.flags,
            }
        )
        if loop.plane is PlaneId.III and _paper_stated_sigma(loop) is not None:
            record["paper_stated_value"] = {
                "delta_coefficients": list(error_model.PAPER_STATED_DELTA_COEFFICIENTS)
            }
    else:
        amplitude, samples = args.statistical
        if not samples.is_integer():
            raise ValueError(f"--statistical SAMPLES must be an integer, got {samples!r}")
        summary = error_model.statistical_loop_noise(loop, amplitude, args.seed, int(samples))
        record.update(
            {
                "sigma_nominal": summary.sigma_nominal,
                "mean": summary.mean,
                "std": summary.std,
                "mean_drift": summary.drift,
                "amplitude": summary.amplitude,
                "samples": summary.samples,
                "samples_outside_domain": summary.outside_domain,
            }
        )
    _emit(record, args.precision)
    return EXIT_OK


def cmd_compile(args) -> int:
    with open(args.circuit_file, "r", encoding="utf-8") as fh:
        text = fh.read()
    circuit = compiler.parse_circuit(text)
    record = compiler.compile_circuit(circuit, shift_magnitude=args.shift_magnitude)
    record["config"] = _config_record(args)
    _emit(record, args.precision)
    return EXIT_OK


def _parsed(convert, kind: str, text: str):
    """convert(text), or the argparse error naming the kind of value the option expects.

    Without it argparse would name the converting function in its message.
    """
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None


def _finite_float(text: str) -> float:
    value = _parsed(float, "a finite number", text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _parsed(int, "a positive integer", text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    value = _parsed(int, "a non-negative integer", text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _border_shift(text: str) -> tuple[float, ...]:
    parts = tuple(_finite_float(tok) for tok in text.split(","))
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "needs four comma-separated values: du_lo,du_hi,dv_lo,dv_hi"
        )
    return parts


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line in one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hologate",
        description="Holonomic gates from closed loops in optical control space",
    )
    parser.add_argument("--cutoff", type=int, default=None, help="Fock cutoff per mode")
    parser.add_argument(
        "--steps", type=int, default=2000,
        help="boundary sub-intervals (connection) / kick count (kicked)",
    )
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--strict", action="store_true", help="truncation warnings become exit 4")
    parser.add_argument(
        "--precision", type=_positive_int, default=12, help="output significant digits"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_area = sub.add_parser("area", help="weighted area of a loop file")
    p_area.add_argument("loop_file")
    p_area.set_defaults(func=cmd_area)

    p_gate = sub.add_parser("gate", help="area-formula gate of a loop file")
    p_gate.add_argument("loop_file")
    p_gate.set_defaults(func=cmd_gate)

    p_oracle = sub.add_parser("oracle", help="dynamical oracle vs formula gate")
    p_oracle.add_argument("loop_file")
    p_oracle.add_argument("--method", choices=("connection", "kicked"), default="connection")
    p_oracle.set_defaults(func=cmd_oracle)

    p_error = sub.add_parser("error", help="border-shift or statistical error analysis")
    p_error.add_argument("loop_file")
    analysis = p_error.add_mutually_exclusive_group(required=True)
    analysis.add_argument(
        "--shift", type=_border_shift, default=None, help="du_lo,du_hi,dv_lo,dv_hi"
    )
    analysis.add_argument(
        "--statistical", nargs=2, type=_finite_float, metavar=("AMPLITUDE", "SAMPLES"),
        default=None,
    )
    p_error.set_defaults(func=cmd_error)

    p_compile = sub.add_parser("compile", help="compile a circuit file to a loop schedule")
    p_compile.add_argument("circuit_file")
    p_compile.add_argument(
        "--shift-magnitude", dest="shift_magnitude", type=_non_negative_float, default=0.0,
        help="per-border shift magnitude for the first-order error budget",
    )
    p_compile.set_defaults(func=cmd_compile)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            warnings.simplefilter("always", AdiabaticityWarning)
            code = args.func(args)
        for label, category in (
            ("truncation", TruncationWarning), ("adiabaticity", AdiabaticityWarning)
        ):
            messages = dict.fromkeys(str(w.message) for w in caught if w.category is category)
            if messages:
                print(f"{label}: {'; '.join(messages)}", file=sys.stderr)
        if args.strict and any(w.category is TruncationWarning for w in caught):
            return EXIT_TRUNCATION
        return code
    except (ValueError, OSError, json.JSONDecodeError, compiler.CircuitParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
