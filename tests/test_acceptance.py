"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from hologate import connection, error_model, gates, loops
from hologate.connection import CALIBRATION_RECT
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import (
    ORACLE_CUTOFF,
    SMALL_RECTS,
    curvature_coefficient,
    formula_gate_in_frame,
    infidelity,
    rect_sigma_closed_form,
)

SQ2 = math.sqrt(2.0)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [FAIL] {text}")
        raise
    print(f"ACCEPTANCE {num:2d} [PASS] {text}")


def test_criterion_1_gate_reproduction():
    with criterion(1, "stated Hadamard and two-qubit gate matrices reproduced"):
        hadamard = gates.hadamard_family(math.pi / 4.0).matrix
        expected_h = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2
        assert np.max(np.abs(hadamard - expected_h)) < 1e-12

        two_qubit = gates.gate_from_area(gates.SIGMA12, math.pi / 4.0).matrix
        expected_u = (
            np.array(
                [[SQ2, 0, 0, 0], [0, 1, -1, 0], [0, 1, 1, 0], [0, 0, 0, SQ2]],
                dtype=complex,
            )
            / SQ2
        )
        assert np.max(np.abs(two_qubit - expected_u)) < 1e-12


def test_criterion_2_perturbation_matrices():
    with criterion(2, "stated h and u equal the analytic sigma-derivatives at pi/4"):
        s = math.pi / 4.0
        dh = np.array(
            [[-math.sin(s), math.cos(s)], [math.cos(s), math.sin(s)]], dtype=complex
        )
        assert np.max(np.abs(dh - error_model.H_PERTURBATION)) < 1e-14

        du = np.zeros((4, 4), dtype=complex)
        du[1:3, 1:3] = np.array(
            [[-math.sin(s), -math.cos(s)], [math.cos(s), -math.sin(s)]]
        )
        assert np.max(np.abs(du - error_model.U_PERTURBATION)) < 1e-14


def test_criterion_3_cnot_composition():
    with criterion(3, "P_pi U^2 equals the |10><->|11> swap permutation"):
        permutation = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.max(np.abs(gates.controlled_not().matrix - permutation)) < 1e-12


def test_criterion_4_area_engine():
    with criterion(4, "edge antiderivative vs closed form on 100 random rects per plane"):
        rng = np.random.default_rng(2024)
        for plane in PlaneId:
            for _ in range(100):
                u0, v0 = rng.uniform(0.0, 1.6, size=2)
                du, dv = rng.uniform(0.05, 0.4, size=2)
                rect_loop = LoopSpec(plane, Rect(u0, u0 + du, v0, v0 + dv))
                exact = rect_sigma_closed_form(plane, rect_loop.shape)
                poly = LoopSpec(plane, Polyline(rect_loop.shape.vertices_ccw()))
                assert abs(loops.area(poly).sigma - exact) < 1e-12 * abs(exact)
                assert abs(loops.area(rect_loop).sigma - exact) < 1e-12 * abs(exact)
        hadamard_rect = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0)))
        plane3_rect = LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0))
        assert loops.area(hadamard_rect).sigma == pytest.approx(3 * math.pi / 16, abs=1e-13)
        assert loops.area(plane3_rect).sigma == pytest.approx(3 * math.pi / 4, abs=1e-13)
        # the pi/4 targets stay visible as paper_stated_value in the CLI records
        from hologate.cli import _paper_stated_sigma

        assert _paper_stated_sigma(hadamard_rect) == pytest.approx(math.pi / 4.0)
        assert _paper_stated_sigma(plane3_rect) == pytest.approx(math.pi / 4.0)


def test_criterion_5_curvature_weight_verification():
    with criterion(5, "curvature coefficient matches the plane weights"):
        factory = connection.frame_factory(PlaneId.I, 60)
        for u in np.linspace(0.0, 0.6, 5):
            for v in np.linspace(0.0, 0.6, 5):
                coefficient, _ = curvature_coefficient(PlaneId.I, factory.curvature(u, v))
                expected = 2.0 * math.exp(-2.0 * v)
                assert abs(abs(coefficient) - expected) < 5e-2, (u, v)
        factory = connection.frame_factory(PlaneId.III, 14)
        for u, v in ((0.0, 0.1), (0.2, 0.1), (0.35, 0.15)):
            coefficient, _ = curvature_coefficient(PlaneId.III, factory.curvature(u, v))
            expected = 2.0 * math.sinh(2.0 * u)
            assert abs(abs(coefficient) - expected) < 8e-2, (u, v)


def test_criterion_6_holonomy_oracle_agreement(stepped_sweeps):
    with criterion(6, "path-ordered holonomy matches the area-formula gates"):
        for plane, loop in SMALL_RECTS.items():
            oracle = connection.holonomy_path_ordered(loop, ORACLE_CUTOFF[plane], 2000)
            calibrated = connection.calibrated_code_matrix(plane, oracle.matrix)
            formula = gates.gate_for_loop(loop).matrix
            assert np.linalg.norm(calibrated - formula) < 1e-2, plane
            # the independent stepped product converges as the step count doubles
            results = [stepped_sweeps[plane][s] for s in (250, 500, 1000, 2000)]
            gaps = [np.linalg.norm(b - a) for a, b in zip(results, results[1:])]
            assert gaps[0] > gaps[1] > gaps[2], (plane, gaps)


def test_criterion_7_kicked_convergence(kicked_sweep, connection_oracle_cutoff40):
    with criterion(7, "kicked evolution converges onto the oracle holonomy"):
        prediction = formula_gate_in_frame(CALIBRATION_RECT)
        infidelities = [
            infidelity(kicked_sweep[k].code_map, prediction) for k in (256, 512, 1024)
        ]
        assert infidelities[0] >= infidelities[1] >= infidelities[2], infidelities
        distance = np.linalg.norm(
            kicked_sweep[1024].code_map - connection_oracle_cutoff40.matrix
        )
        assert distance < 5e-2


def test_criterion_8_error_model_properties():
    with criterion(8, "border sensitivities and statistical-noise scalings"):
        tall = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, 4.0))
        sens = error_model.sensitivity(tall)
        assert abs(sens["u_high"] - 1.0) < 1e-3

        base = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0))
        for delta in (0.3, 0.8):
            grown = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0 + delta))
            ratio = (
                error_model.sensitivity(grown)["v_high"]
                / error_model.sensitivity(base)["v_high"]
            )
            assert abs(ratio - math.exp(-2.0 * delta)) < 1e-6

        noisy_loop = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0)))
        drifts = {
            amp: error_model.statistical_loop_noise(noisy_loop, amp, seed=17, samples=2000).drift
            for amp in (0.02, 0.01, 0.005)
        }
        assert abs(drifts[0.02]) / abs(drifts[0.01]) >= 3.2
        assert abs(drifts[0.01]) / abs(drifts[0.005]) >= 3.2


def test_criterion_9_taylor_remainders():
    with criterion(9, "first-order gate defects shrink >= 1.8x per epsilon halving"):
        epsilons = (0.02, 0.01, 0.005)

        def defects(pairs):
            return [np.linalg.norm(e.matrix - f.matrix) for f, e in pairs]

        for name, defect_list in (
            ("hadamard", defects([error_model.perturbed_hadamard(e) for e in epsilons])),
            ("two_qubit", defects([error_model.perturbed_two_qubit(e) for e in epsilons])),
            (
                "cnot",
                [
                    np.linalg.norm(
                        error_model.perturbed_cnot(e)["exact_total"].matrix
                        - error_model.perturbed_cnot(e)["first_order"].matrix
                    )
                    for e in epsilons
                ],
            ),
        ):
            assert defect_list[0] / defect_list[1] >= 1.8, name
            assert defect_list[1] / defect_list[2] >= 1.8, name


def _run_cli_script(tmp_path) -> bytes:
    hadamard = tmp_path / "hadamard.json"
    hadamard.write_text(
        json.dumps(
            loops.loop_to_dict(
                LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0)))
            )
        )
    )
    plane3 = tmp_path / "p3.json"
    plane3.write_text(
        json.dumps(
            loops.loop_to_dict(
                LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0))
            )
        )
    )
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(loops.loop_to_dict(CALIBRATION_RECT)))
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("H q0\nCNOT q0 q1\nP(0.5) q1\n")

    commands = [
        ["area", str(hadamard)],
        ["area", str(plane3)],
        ["gate", str(plane3)],
        ["--steps", "400", "--cutoff", "40", "oracle", str(cal)],
        ["--steps", "256", "--cutoff", "40", "oracle", str(cal), "--method", "kicked"],
        ["error", str(hadamard), "--shift", "0,0.01,0,0"],
        ["--seed", "3", "error", str(hadamard), "--statistical", "0.01", "400"],
        ["compile", str(circuit), "--shift-magnitude", "0.001"],
    ]
    chunks = []
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "hologate.cli", *argv],
            capture_output=True,
            check=True,
        )
        chunks.append(proc.stdout)
    return b"".join(chunks)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "two runs of the CLI script are bit-identical"):
        first = _run_cli_script(tmp_path)
        second = _run_cli_script(tmp_path)
        assert first == second
        assert len(first) > 0
