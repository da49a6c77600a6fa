"""Output checks against references the benchmark computes on its own.

References are the weighted-area closed forms for rectangles, the exact
per-edge antiderivatives for polygons, and the gate exp(-i G sigma) built
from the README generator convention.  Nothing here imports hologate, so the
checks stay independent of the code they judge.  Every check returns a list
of problems; an empty list means the output is correct.

The checks never compare raw bytes, method strings, error or convergence
estimates, or diagnostics keys: those may change legitimately.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Largest Frobenius distance, in the gate basis, between a dynamical oracle
# and the area-formula gate.  Measured on ORACLE_DOMAIN loops with
# holonomy_path_ordered at 2000 steps (worst seen 3.1e-8) and run_kicked at
# 1024 kicks (worst seen 2.0e-3); the bounds keep a margin above both.
ROUTE_BOUND = {"connection": 1e-6, "kicked": 1e-2}
UNITARITY_BOUND = 1e-8
LEAKAGE_LIMIT = 0.5  # kicked.LEAKAGE_FAILURE_THRESHOLD on the seed
# Area-route tolerances: quadrature is asked for 1e-10 and the CLI rounds to
# 12 decimals.
SIGMA_TOL = 1e-9
GATE_TOL = 1e-8
SENSITIVITY_RTOL = 1e-6

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA12 = np.zeros((4, 4), dtype=complex)
_SIGMA12[1:3, 1:3] = _PAULI_Y
GENERATOR = {"I": _PAULI_X, "II": _PAULI_Y, "III": _SIGMA12}

WARNING_NAMES = ("TruncationWarning", "AdiabaticityWarning")


# ---------------------------------------------------------------------------
# References


def _rect_area(plane: str, u0: float, u1: float, v0: float, v1: float) -> float:
    if plane in ("I", "II"):
        return (u1 - u0) * (math.exp(-2.0 * v0) - math.exp(-2.0 * v1))
    return (v1 - v0) * (math.cosh(2.0 * u1) - math.cosh(2.0 * u0))


def _edge_flux(plane: str, p: tuple[float, float], q: tuple[float, float]) -> float:
    """Integral of exp(-2v) du (planes I/II) or cosh(2u) dv (plane III) along p -> q."""
    (u0, v0), (u1, v1) = p, q
    if plane in ("I", "II"):
        dv = v1 - v0
        ratio = 1.0 if dv == 0.0 else -math.expm1(-2.0 * dv) / (2.0 * dv)
        return (u1 - u0) * math.exp(-2.0 * v0) * ratio
    du = u1 - u0
    if du == 0.0:
        ratio = math.cosh(2.0 * u0)
    else:
        ratio = (math.sinh(2.0 * u1) - math.sinh(2.0 * u0)) / (2.0 * du)
    return (v1 - v0) * ratio


def reference_sigma(loop: dict) -> float:
    """Signed weighted area of a loop dict: orientation times the ccw integral."""
    plane = loop["plane"]
    sign = int(loop.get("orientation", 1))
    if "rect" in loop:
        r = loop["rect"]
        return sign * _rect_area(plane, r["u_min"], r["u_max"], r["v_min"], r["v_max"])
    verts = [tuple(map(float, p)) for p in loop["polyline"]]
    n = len(verts)
    shoelace = sum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
        for i in range(n)
    )
    if shoelace < 0:
        verts = verts[::-1]
    return sign * sum(_edge_flux(plane, verts[i], verts[(i + 1) % n]) for i in range(n))


def reference_gate(plane: str, sigma: float) -> np.ndarray:
    """exp(-i G sigma); G squares to a projector P, so this is I + (cos-1) P - i sin G."""
    g = GENERATOR[plane]
    return np.eye(g.shape[0]) + (math.cos(sigma) - 1.0) * (g @ g) - 1j * math.sin(sigma) * g


def reference_sensitivity(loop: dict) -> dict[str, float]:
    """d sigma / d(outward shift) of each rectangle border, analytically."""
    plane = loop["plane"]
    sign = int(loop.get("orientation", 1))
    r = loop["rect"]
    u0, u1, v0, v1 = r["u_min"], r["u_max"], r["v_min"], r["v_max"]
    if plane in ("I", "II"):
        across = math.exp(-2.0 * v0) - math.exp(-2.0 * v1)
        out = {
            "u_low": across,
            "u_high": across,
            "v_low": 2.0 * (u1 - u0) * math.exp(-2.0 * v0),
            "v_high": 2.0 * (u1 - u0) * math.exp(-2.0 * v1),
        }
    else:
        across = math.cosh(2.0 * u1) - math.cosh(2.0 * u0)
        out = {
            "u_low": 2.0 * (v1 - v0) * math.sinh(2.0 * u0),
            "u_high": 2.0 * (v1 - v0) * math.sinh(2.0 * u1),
            "v_low": across,
            "v_high": across,
        }
    return {k: sign * v for k, v in out.items()}


def shifted(loop: dict, shift) -> dict:
    r = loop["rect"]
    du_lo, du_hi, dv_lo, dv_hi = shift
    moved = {
        "u_min": r["u_min"] - du_lo,
        "u_max": r["u_max"] + du_hi,
        "v_min": r["v_min"] - dv_lo,
        "v_max": r["v_max"] + dv_hi,
    }
    return {**loop, "rect": moved}


# ---------------------------------------------------------------------------
# Primitive checks


def close(name: str, got, want: float, tol: float) -> list[str]:
    try:
        value = float(got)
    except (TypeError, ValueError):
        return [f"{name}: not a number ({got!r})"]
    if not math.isfinite(value) or abs(value - want) > tol:
        return [f"{name}: {value!r} differs from reference {want!r} by more than {tol:g}"]
    return []


def matrix_close(name: str, got, want: np.ndarray, tol: float) -> list[str]:
    mat = np.asarray(got, dtype=complex)
    if mat.shape != want.shape:
        return [f"{name}: shape {mat.shape}, expected {want.shape}"]
    if not np.all(np.isfinite(mat)):
        return [f"{name}: non-finite entries"]
    dist = float(np.linalg.norm(mat - want))
    if dist > tol:
        return [f"{name}: Frobenius distance {dist:.3e} exceeds {tol:.1e}"]
    return []


def unitary(name: str, got) -> list[str]:
    mat = np.asarray(got, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not np.all(np.isfinite(mat)):
        return [f"{name}: not a finite square matrix"]
    defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if defect > UNITARITY_BOUND:
        return [f"{name}: unitarity defect {defect:.3e} exceeds {UNITARITY_BOUND:.1e}"]
    return []


def warnings_raised(names) -> list[str]:
    return [f"{n} raised" for n in names if n in WARNING_NAMES]


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_record(returncode: int, stdout: str) -> tuple[dict | None, list[str]]:
    """One strict-JSON object on stdout from a process that exited 0."""
    if returncode != 0:
        return None, [f"exit code {returncode}"]
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 1:
        return None, [f"expected one output line, got {len(lines)}"]
    try:
        record = json.loads(lines[0], parse_constant=_reject_constant)
    except ValueError as exc:
        return None, [f"invalid JSON record: {exc}"]
    if not isinstance(record, dict):
        return None, ["record is not a JSON object"]
    return record, []


def pairs_to_matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs], dtype=complex)


# ---------------------------------------------------------------------------
# Composite checks, one per request kind


def check_oracle(loop: dict, route: str, calibrated, leakage: float | None = None) -> list[str]:
    """A dynamical oracle in the gate basis against the reference gate."""
    want = reference_gate(loop["plane"], reference_sigma(loop))
    problems = unitary(f"{route} oracle", calibrated)
    problems += matrix_close(f"{route} oracle", calibrated, want, ROUTE_BOUND[route])
    if leakage is not None and not (0.0 <= leakage < LEAKAGE_LIMIT):
        problems.append(f"kicked leakage {leakage!r} outside [0, {LEAKAGE_LIMIT})")
    return problems


def check_area_gate(loop: dict, sigma, gate_matrix) -> list[str]:
    want_sigma = reference_sigma(loop)
    problems = close("sigma", sigma, want_sigma, SIGMA_TOL)
    if gate_matrix is not None:
        problems += matrix_close(
            "gate", gate_matrix, reference_gate(loop["plane"], want_sigma), GATE_TOL
        )
    return problems


def check_sensitivity(loop: dict, sens: dict) -> list[str]:
    want = reference_sensitivity(loop)
    if set(sens) != set(want):
        return [f"sensitivity keys {sorted(sens)} != {sorted(want)}"]
    problems = []
    for k, v in want.items():
        problems += close(f"sensitivity[{k}]", sens[k], v, SENSITIVITY_RTOL * max(1.0, abs(v)))
    return problems


def check_shift(loop: dict, shift, sigma_nominal, sigma_perturbed, epsilon) -> list[str]:
    nominal = reference_sigma(loop)
    perturbed = reference_sigma(shifted(loop, shift))
    return (
        close("sigma_nominal", sigma_nominal, nominal, SIGMA_TOL)
        + close("sigma_perturbed", sigma_perturbed, perturbed, SIGMA_TOL)
        + close("epsilon", epsilon, perturbed - nominal, 2 * SIGMA_TOL)
    )


def check_noise(loop: dict, samples: int, sigma_nominal, mean, std, drift, n_out) -> list[str]:
    """Statistical vertex noise: exact nominal area, antithetic pairs, small drift."""
    problems = close("sigma_nominal", sigma_nominal, reference_sigma(loop), SIGMA_TOL)
    if int(n_out) != 2 * ((samples + 1) // 2):
        problems.append(f"samples {n_out} for {samples} requested")
    problems += close("mean_drift", drift, float(mean) - float(sigma_nominal), 2 * SIGMA_TOL)
    if not (math.isfinite(std) and std > 0.0):
        problems.append(f"std {std!r} is not positive")
    elif abs(drift) > std:
        # antithetic sampling cancels the first-order response exactly
        problems.append(f"mean drift {drift!r} exceeds the spread {std!r}")
    return problems


def check_compiled(gates: list[dict], shift_magnitude: float, compiled) -> list[str]:
    """The schedule lists the generated gates; every loop entry and budget is recomputed."""
    problems = []
    schedule = compiled.get("schedule")
    if not isinstance(schedule, list) or len(schedule) != len(gates):
        return problems + ["schedule length differs from the circuit"]
    total = 0.0
    for i, (gate, step) in enumerate(zip(gates, schedule)):
        tag = f"schedule[{i}]"
        if step.get("gate") != gate["gate"] or list(step.get("qubits", ())) != gate["qubits"]:
            problems.append(f"{tag}: gate or qubits differ")
            continue
        loops = [e for e in step["entries"] if "loop" in e]
        phases = [e for e in step["entries"] if "loop" not in e]
        expected_loops = {"H": 1, "CROT": 1, "CNOT": 2, "P": 0}[gate["gate"]]
        if len(loops) != expected_loops:
            problems.append(f"{tag}: {len(loops)} loop entries, expected {expected_loops}")
        if gate["gate"] == "P":
            if not phases or not math.isclose(phases[0].get("phi", math.nan), gate["phi"]):
                problems.append(f"{tag}: phase entry does not carry phi")
        if gate["gate"] == "CNOT":
            if not phases or not math.isclose(phases[0].get("phi", math.nan), math.pi):
                problems.append(f"{tag}: CNOT lacks the pi phase flip")
        budget = 0.0
        for entry in loops:
            sigma = reference_sigma(entry["loop"])
            problems += close(f"{tag} sigma", entry["sigma"], sigma, SIGMA_TOL)
            problems += close(f"{tag} target", sigma, math.pi / 4.0, SIGMA_TOL)
            sens = reference_sensitivity(entry["loop"])
            eps = shift_magnitude * sum(abs(v) for v in sens.values())
            problems += close(
                f"{tag} entry budget", entry["first_order_epsilon_bound"], eps,
                SENSITIVITY_RTOL * max(1.0, eps),
            )
            budget += eps
        problems += close(
            f"{tag} budget", step["first_order_epsilon_bound"], budget,
            SENSITIVITY_RTOL * max(1.0, budget),
        )
        total += budget
    problems += close(
        "total budget", compiled.get("total_first_order_epsilon_bound"), total,
        SENSITIVITY_RTOL * max(1.0, total),
    )
    return problems
