"""Circuit-to-schedule compiler for the supported gate set.

Each named gate maps to its defining loop or area entry:

    H        -> the reflection family at sigma = pi/4 (determinant -1); the
                loop realizing the corrective reflection is convention
                dependent, so a reference plane II loop of area pi/4 is
                attached for budgeting only
    CROT     -> a plane III loop of area pi/4
    CNOT     -> a control sign flip plus two CROT loops
    P(phi)   -> abstract phase primitive (no loop)

The per-gate first-order error budget multiplies each loop's border
sensitivities by a common shift magnitude.
"""

from __future__ import annotations

import math
import re

from . import error_model
from . import loops as loops_mod
from .loops import LoopSpec, PlaneId, Rect

SUPPORTED_GATES = ("H", "CROT", "CNOT", "P")

# Plane III rectangle with area exactly pi/4:
# (v1 - v0) * (cosh(2*arccosh 2) - 1) = 6 * v1.
CROT_LOOP = LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 24.0))

# Plane II rectangle with area exactly pi/4: u1 * (1 - exp(-2 ln 2)) = 0.75 * u1.
HADAMARD_REFERENCE_LOOP = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 3.0, 0.0, math.log(2.0)))

# Reference rectangles conventionally paired with pi/4 targets even though
# their computed areas differ; carried verbatim on the schedule entries.
PAPER_STATED_RECTS = {
    "II": {"rect": {"u_min": 0.0, "u_max": math.pi / 4.0, "v_min": 0.0, "v_max": math.log(2.0)},
           "stated_sigma": math.pi / 4.0, "computed_sigma": 3.0 * math.pi / 16.0},
    "III": {"rect": {"u_min": 0.0, "u_max": math.acosh(2.0), "v_min": 0.0, "v_max": math.pi / 8.0},
            "stated_sigma": math.pi / 4.0, "computed_sigma": 3.0 * math.pi / 4.0},
}

_LINE_RE = re.compile(r"^(?P<name>[A-Z]+)(?:\((?P<param>[^)]*)\))?(?P<args>(?:\s+q\d+)*)\s*$")


class CircuitParseError(ValueError):
    pass


def parse_circuit(text: str) -> list[dict]:
    """Parse the one-gate-per-line circuit format; '#' starts a comment."""
    parsed = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise CircuitParseError(f"line {lineno}: cannot parse {line!r}")
        name = match.group("name")
        if name not in SUPPORTED_GATES:
            raise CircuitParseError(
                f"line {lineno}: unknown gate {name!r}; supported gates: "
                + ", ".join(SUPPORTED_GATES)
            )
        qubits = [int(tok[1:]) for tok in match.group("args").split()]
        param = match.group("param")
        if name == "P":
            if param is None:
                raise CircuitParseError(f"line {lineno}: P needs a phase, e.g. P(0.5)")
            try:
                phi = float(param)
            except ValueError as exc:
                raise CircuitParseError(f"line {lineno}: bad phase {param!r}") from exc
        else:
            if param is not None:
                raise CircuitParseError(f"line {lineno}: gate {name} takes no parameter")
            phi = None
        arity = {"H": 1, "P": 1, "CROT": 2, "CNOT": 2}[name]
        if len(qubits) != arity:
            raise CircuitParseError(
                f"line {lineno}: gate {name} needs {arity} qubit(s), got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitParseError(
                f"line {lineno}: gate {name} needs distinct qubits, got q{qubits[0]} twice"
            )
        parsed.append({"gate": name, "qubits": qubits, "phi": phi})
    return parsed


def _loop_entry(kind: str, loop: LoopSpec, target_sigma: float, note: str | None = None) -> dict:
    entry = {
        "kind": kind,
        "loop": loops_mod.loop_to_dict(loop),
        "sigma": loops_mod.area(loop).sigma,
        "target_sigma": target_sigma,
        "paper_stated_value": PAPER_STATED_RECTS.get(loop.plane.value),
    }
    if note:
        entry["note"] = note
    return entry


def _entries_for(gate: dict) -> list[dict]:
    name = gate["gate"]
    if name == "H":
        entry = _loop_entry(
            "hadamard_family",
            HADAMARD_REFERENCE_LOOP,
            math.pi / 4.0,
            note=(
                "det -1 reflection family at sigma = pi/4; the loop realizing "
                "the corrective reflection is convention-dependent, the attached "
                "plane II loop only fixes the area"
            ),
        )
        return [entry]
    if name == "CROT":
        return [_loop_entry("loop", CROT_LOOP, math.pi / 4.0)]
    if name == "CNOT":
        return [
            {"kind": "phase_flip", "phi": math.pi},
            _loop_entry("loop", CROT_LOOP, math.pi / 4.0),
            _loop_entry("loop", CROT_LOOP, math.pi / 4.0),
        ]
    if name == "P":
        return [{"kind": "phase", "phi": gate["phi"]}]
    raise CircuitParseError(f"unknown gate {name!r}")


def compile_circuit(circuit: list[dict], shift_magnitude: float = 0.0) -> dict:
    """Ordered schedule plus aggregated first-order error budget.

    The budget scales each loop's border sensitivities by `shift_magnitude`,
    which must be finite and non-negative: a negative one would give a
    negative bound.
    """
    if not 0.0 <= shift_magnitude < math.inf:
        raise ValueError(f"shift_magnitude must be finite and non-negative, got {shift_magnitude}")
    schedule = []
    total_budget = 0.0
    for gate in circuit:
        entries = _entries_for(gate)
        budget = 0.0
        for entry in entries:
            if "loop" in entry:
                loop = loops_mod.loop_from_dict(entry["loop"])
                sens = error_model.sensitivity(loop)
                entry["border_sensitivities"] = sens
                eps = shift_magnitude * sum(abs(v) for v in sens.values())
                entry["first_order_epsilon_bound"] = eps
                budget += eps
        schedule.append(
            {
                "gate": gate["gate"],
                "qubits": gate["qubits"],
                **({"phi": gate["phi"]} if gate["phi"] is not None else {}),
                "entries": entries,
                "first_order_epsilon_bound": budget,
            }
        )
        total_budget += budget
    return {
        "schedule": schedule,
        "shift_magnitude": shift_magnitude,
        "total_first_order_epsilon_bound": total_budget,
    }
