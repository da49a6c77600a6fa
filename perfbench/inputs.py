"""Seeded benchmark inputs: loops, convex polygons and circuits.

Everything is plain data in the formats the CLI reads (loop dicts as in the
README loop files, circuit text one gate per line), so the same generator
feeds the in-process workloads, the cold-CLI loop files and the self-tests.
The same seed always gives the same inputs.

Domains:
  ORACLE_DOMAIN keeps every dressed frame of a loop inside the top-quartile
  budget at the CLI-default cutoffs (60 single-mode, 14 two-mode).  Plane III
  [0.05, 0.25] x [0, 0.2] already raises a TruncationWarning at cutoff 14,
  while [0, 0.15]^2 does not.
  AREA_DOMAIN is used where no Fock space is involved (area, gate, error
  model, compiler), so loops may be larger there.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

# ((u_lo, u_hi), (v_lo, v_hi)) per plane.
ORACLE_DOMAIN = {
    "I": ((0.0, 0.4), (0.0, 0.25)),
    "III": ((0.0, 0.15), (0.0, 0.15)),
}
AREA_DOMAIN = {
    "I": ((-0.8, 0.8), (0.02, 0.7)),
    "II": ((-0.8, 0.8), (0.02, 0.7)),
    "III": ((0.02, 1.4), (0.02, 0.6)),
}

# Smallest angle (radians) between a polygon edge and either axis.
MIN_EDGE_AXIS_ANGLE = math.radians(5.0)

# Candidate polygons drawn per try; it decides which polygon a seed yields.
POLYGON_BATCH = 32

CIRCUIT_GATES = ("H", "CROT", "CNOT", "P")
CIRCUIT_QUBITS = 4


def rect_loop(rng: np.random.Generator, plane: str, domain) -> dict:
    """Axis-aligned rectangle inside the domain, sides 15-60% of its extent."""
    (u_lo, u_hi), (v_lo, v_hi) = domain[plane]
    du = (u_hi - u_lo) * rng.uniform(0.15, 0.6)
    dv = (v_hi - v_lo) * rng.uniform(0.15, 0.6)
    u0 = rng.uniform(u_lo, u_hi - du)
    v0 = rng.uniform(v_lo, v_hi - dv)
    return {
        "plane": plane,
        "orientation": int(rng.choice((1, -1))),
        "rect": {"u_min": u0, "u_max": u0 + du, "v_min": v0, "v_max": v0 + dv},
    }


def polygon_loop(rng: np.random.Generator, plane: str, domain) -> dict:
    """Convex polygon with 5-8 vertices and no edge within 5 degrees of an axis.

    Vertices lie on an ellipse inscribed in a random sub-box of the domain at
    increasing angles, so the polygon is convex and counterclockwise.  A batch
    of candidates is drawn and the first one without a near-axis-aligned edge
    is kept, which keeps the result a function of the seed alone.
    """
    (u_lo, u_hi), (v_lo, v_hi) = domain[plane]
    n = int(rng.integers(5, 9))
    tilt = math.tan(MIN_EDGE_AXIS_ANGLE)
    while True:
        du = (u_hi - u_lo) * rng.uniform(0.25, 0.7, size=(POLYGON_BATCH, 1))
        dv = (v_hi - v_lo) * rng.uniform(0.25, 0.7, size=(POLYGON_BATCH, 1))
        u0 = u_lo + (u_hi - u_lo - du) * rng.uniform(size=(POLYGON_BATCH, 1))
        v0 = v_lo + (v_hi - v_lo - dv) * rng.uniform(size=(POLYGON_BATCH, 1))
        gap = 2.0 * math.pi / n
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(POLYGON_BATCH, 1)) + gap * (
            np.arange(n) + rng.uniform(-0.3, 0.3, size=(POLYGON_BATCH, n))
        )
        verts = np.stack(
            (u0 + 0.5 * du * (1.0 + np.cos(angles)), v0 + 0.5 * dv * (1.0 + np.sin(angles))),
            axis=-1,
        )
        edges = np.abs(np.roll(verts, -1, axis=1) - verts)
        du, dv = edges[..., 0], edges[..., 1]
        ok = np.all((du >= tilt * dv) & (dv >= tilt * du), axis=1)
        if ok.any():
            chosen = verts[int(np.argmax(ok))]
            break
    return {
        "plane": plane,
        "orientation": int(rng.choice((1, -1))),
        "polyline": [[float(u), float(v)] for u, v in chosen],
    }


def border_shift(rng: np.random.Generator, loop: dict) -> tuple[float, float, float, float]:
    """Outward border shifts (du_lo, du_hi, dv_lo, dv_hi) of at most 5% of a side.

    The low borders of every AREA_DOMAIN rectangle sit at least 0.02 above the
    amplitude floor, so the shifted rectangle stays inside its plane.
    """
    r = loop["rect"]
    su = 0.05 * min(r["u_max"] - r["u_min"], 0.4)
    sv = 0.05 * min(r["v_max"] - r["v_min"], 0.4)
    return (
        float(rng.uniform(-su, su)),
        float(rng.uniform(-su, su)),
        float(rng.uniform(-sv, sv)),
        float(rng.uniform(-sv, sv)),
    )


def counterclockwise(loop: dict) -> dict:
    """The same loop traversed with orientation +1.

    statistical_loop_noise applies the orientation twice on the seed code (its
    summary of an orientation -1 loop carries the +1 sign while area() gives
    the -1 sign), so the noise requests use orientation +1 loops, the way the
    oracle workloads leave out plane II.  The defect stays open; once
    statistical_loop_noise is fixed, drop this and use the loops as drawn.
    """
    return {**loop, "orientation": 1}


def noise_amplitude(rng: np.random.Generator, loop: dict) -> float:
    """Vertex-noise amplitude at 1-5% of the polygon diameter (the model allows 10%)."""
    verts = np.asarray(loop["polyline"], dtype=float)
    diameter = float(np.max(np.ptp(verts, axis=0)))
    return float(diameter * rng.uniform(0.01, 0.05))


def circuit(rng: np.random.Generator) -> tuple[str, list[dict]]:
    """Circuit text mixing H, CROT, CNOT and P(phi), plus the gates it encodes."""
    gates = []
    lines = ["# seeded benchmark circuit"]
    for _ in range(int(rng.integers(4, 13))):
        name = CIRCUIT_GATES[int(rng.integers(len(CIRCUIT_GATES)))]
        if name in ("H", "P"):
            qubits = [int(rng.integers(CIRCUIT_QUBITS))]
        else:
            qubits = [int(q) for q in rng.choice(CIRCUIT_QUBITS, size=2, replace=False)]
        phi = round(float(rng.uniform(-math.pi, math.pi)), 6) if name == "P" else None
        head = f"P({phi!r})" if name == "P" else name
        lines.append(" ".join([head] + [f"q{q}" for q in qubits]))
        gates.append({"gate": name, "qubits": qubits, "phi": phi})
    return "\n".join(lines) + "\n", gates


def stream(seed: int, label: str) -> np.random.Generator:
    """Independent generator per (seed, label), so workloads do not share draws."""
    return np.random.default_rng([int(seed), zlib.crc32(label.encode())])


def write_loop(directory: str, name: str, loop: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(loop, fh)
    return path


def write_circuit(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
