import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hologate import cli, compiler, fock, kicked, loops
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect, loop_to_dict

from conftest import infidelity, regular_polygon


def write_loop(tmp_path, name, loop):
    path = tmp_path / name
    path.write_text(json.dumps(loop_to_dict(loop)))
    return str(path)


@pytest.fixture()
def hadamard_loop_file(tmp_path):
    return write_loop(
        tmp_path, "hadamard.json",
        LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0))),
    )


@pytest.fixture()
def plane3_loop_file(tmp_path):
    return write_loop(
        tmp_path, "p3.json",
        LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0)),
    )


@pytest.fixture()
def degenerate_loop_file(tmp_path):
    return write_loop(
        tmp_path, "degen.json",
        LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (1e-6, 0.0), (5e-7, 0.0)))),
    )


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def as_matrix(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def test_area_hadamard_rect(capsys, hadamard_loop_file):
    code, record = run_cli(capsys, "area", hadamard_loop_file)
    assert code == 0
    assert record["sigma"] == pytest.approx(0.589048622548, abs=1e-12)
    assert record["paper_stated_value"] == pytest.approx(math.pi / 4.0)
    assert record["config"]["output_precision"] == 12


def test_area_plane3_rect(capsys, plane3_loop_file):
    code, record = run_cli(capsys, "area", plane3_loop_file)
    assert code == 0
    # 3*pi/4 to the default 12 significant digits
    assert record["sigma"] == pytest.approx(2.35619449019, abs=1e-12)
    assert record["paper_stated_value"] == pytest.approx(math.pi / 4.0)


def test_area_degenerate_loop(capsys, degenerate_loop_file):
    code, record = run_cli(capsys, "area", degenerate_loop_file)
    assert code == 0
    assert record["sigma"] == 0.0


def test_gate_command_emits_matrix(capsys, plane3_loop_file):
    code, record = run_cli(capsys, "gate", plane3_loop_file)
    assert code == 0
    assert record["generator"] == "Sigma12"
    mat = as_matrix(record["matrix"])
    assert np.linalg.norm(mat.conj().T @ mat - np.eye(4)) < 1e-9


@pytest.mark.parametrize("method", ["connection", "kicked"])
def test_oracle_degenerate_loop_both_methods(capsys, degenerate_loop_file, method):
    code, record = run_cli(
        capsys, "--steps", "128", "--cutoff", "24",
        "oracle", degenerate_loop_file, "--method", method,
    )
    assert code == 0
    assert record["frobenius_distance"] < 1e-8


def test_oracle_connection_calibration_rect(capsys, tmp_path):
    loop_file = write_loop(
        tmp_path, "cal.json", LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))
    )
    code, record = run_cli(capsys, "--steps", "400", "--cutoff", "40", "oracle", loop_file)
    assert code == 0
    assert record["frobenius_distance"] < 1e-2
    assert record["unitarity_defect"] < 1e-9
    # every edge of a rect is one exact exponential, whatever --steps is
    assert record["convergence_estimate"] == 0.0
    assert record["integrator"] == "exact_edge"
    assert record["method"] == "connection"


def test_oracle_kicked_reports_leakage(capsys, tmp_path):
    loop_file = write_loop(
        tmp_path, "cal.json", LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))
    )
    code, record = run_cli(
        capsys, "--steps", "256", "--cutoff", "40",
        "oracle", loop_file, "--method", "kicked",
    )
    assert code == 0
    assert record["leakage"] < 1e-6
    oracle, formula = as_matrix(record["oracle_gate"]), as_matrix(record["formula_gate"])
    assert 1.0 - infidelity(oracle, formula) > 0.999


def test_error_shift_command(capsys, hadamard_loop_file):
    code, record = run_cli(capsys, "error", hadamard_loop_file, "--shift", "0,0.01,0,0")
    assert code == 0
    assert record["epsilon"] == pytest.approx(0.0075, abs=1e-10)
    assert record["sensitivity"]["u_high"] == pytest.approx(0.75, abs=1e-6)
    assert record["flags"]["shift_convention"] == "outward_positive"


def test_error_shift_plane3_reports_stated_coefficients(capsys, plane3_loop_file):
    code, record = run_cli(capsys, "error", plane3_loop_file, "--shift", "0,0.01,0,0.01")
    assert code == 0
    assert record["paper_stated_value"]["delta_coefficients"] == [1.7, 1.0]
    assert record["sensitivity"]["u_high"] == pytest.approx(math.pi * math.sqrt(3), rel=1e-6)


def test_error_statistical_command(capsys, hadamard_loop_file):
    code, record = run_cli(
        capsys, "--seed", "5", "error", hadamard_loop_file, "--statistical", "0.01", "500"
    )
    assert code == 0
    assert record["samples"] == 500
    assert abs(record["mean_drift"]) < 1e-3


def test_compile_empty_circuit(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, record = run_cli(capsys, "compile", str(path))
    assert code == 0
    assert record["schedule"] == []
    assert record["total_first_order_epsilon_bound"] == 0.0


def test_compile_cnot_schedule(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("CNOT q0 q1\n")
    code, record = run_cli(capsys, "compile", str(path))
    assert code == 0
    kinds = [e["kind"] for e in record["schedule"][0]["entries"]]
    assert kinds == ["phase_flip", "loop", "loop"]
    for entry in record["schedule"][0]["entries"][1:]:
        assert entry["sigma"] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert entry["loop"]["plane"] == "III"


def test_compile_crot_border_sensitivities_are_exact(capsys, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("CROT q0 q1\n")
    code, record = run_cli(capsys, "compile", str(path))
    assert code == 0
    sens = record["schedule"][0]["entries"][0]["border_sensitivities"]
    # cosh(2 arccosh 2) - cosh 0 = 6, with no difference-stencil noise in the printed digits
    assert sens["v_low"] == 6.0
    assert sens["v_high"] == 6.0


def test_precision_counts_significant_digits(capsys, tmp_path):
    path = write_loop(
        tmp_path, "p.json", LoopSpec(PlaneId.III, Polyline(((0.1, 0.0), (0.5, 0.1), (0.2, 0.4))))
    )
    code, record = run_cli(capsys, "area", path)
    assert code == 0
    # a rounding bound of a few ulps survives 12 significant digits
    assert 0.0 < record["abs_error_estimate"] < 1e-14
    code, short = run_cli(capsys, "--precision", "3", "area", path)
    assert code == 0
    assert short["sigma"] == float(f"{record['sigma']:.3g}")


def test_compile_hadamard_entry(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("H q0\n")
    code, record = run_cli(capsys, "compile", str(path))
    assert code == 0
    entry = record["schedule"][0]["entries"][0]
    assert entry["kind"] == "hadamard_family"
    assert entry["target_sigma"] == pytest.approx(math.pi / 4.0)
    assert "convention-dependent" in entry["note"]


def test_compile_phase_gate_and_budget(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("P(0.5) q0\nCROT q0 q1\n")
    code, record = run_cli(capsys, "compile", str(path), "--shift-magnitude", "0.001")
    assert code == 0
    assert record["schedule"][0]["entries"][0] == {"kind": "phase", "phi": 0.5}
    assert record["schedule"][1]["first_order_epsilon_bound"] > 0.0
    assert record["total_first_order_epsilon_bound"] == pytest.approx(
        record["schedule"][1]["first_order_epsilon_bound"]
    )


def test_compile_unknown_gate_exits_with_supported_list(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("SWAP q0 q1\n")
    code = cli.main(["compile", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "CROT" in captured.err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["area", str(path)]) == 2


def test_missing_file_exit_code(capsys):
    assert cli.main(["area", "/nonexistent/loop.json"]) == 2


def assert_one_line_parse_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_statistical_samples_over_the_noise_budget_exit_2(capsys, monkeypatch, hadamard_loop_file):
    def refused(*args, **kwargs):
        raise AssertionError("noise generator reached")

    monkeypatch.setattr(np.random, "default_rng", refused)  # nothing large is allocated
    assert_one_line_parse_error(
        capsys, ["error", hadamard_loop_file, "--statistical", "0.01", "1e15"]
    )


def test_non_finite_vertex_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"plane": "I", "polyline": [[0.0, 0.0], [NaN, 0.1], [0.2, 0.3]]}')
    assert_one_line_parse_error(capsys, ["area", str(path)])


def test_non_integer_orientation_exits_2(capsys, tmp_path):
    path = tmp_path / "tilted.json"
    rect = {"u_min": 0.0, "u_max": 0.1, "v_min": 0.0, "v_max": 0.1}
    path.write_text(json.dumps({"plane": "I", "orientation": 1.7, "rect": rect}))
    assert_one_line_parse_error(capsys, ["area", str(path)])


def test_area_overflow_exits_2(capsys, tmp_path):
    far = write_loop(tmp_path, "far.json", LoopSpec(PlaneId.III, Rect(0.0, 1000.0, 0.0, 0.1)))
    assert_one_line_parse_error(capsys, ["area", far])


@pytest.mark.parametrize(
    "loop",
    [
        LoopSpec(PlaneId.I, Rect(0.0, 1e200, 0.0, 0.1)),
        LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 1e300)),
    ],
    ids=["plane-I", "plane-III"],
)
def test_transport_overflow_exits_2(capsys, tmp_path, loop):
    # the edge entries overflow the Magnus commutator term to inf - inf: the gate
    # would be all NaN, which the record may not carry
    far = write_loop(tmp_path, "far.json", loop)
    assert cli.main(["oracle", far]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == "error: transport overflows double precision; the loop reaches too far"


@pytest.mark.parametrize(
    "argv", [["area"], ["gate"], ["oracle"], ["oracle", "--method", "connection"]]
)
def test_gate_phase_past_double_resolution_exits_2(capsys, tmp_path, argv):
    # sigma = 1.8e149 rad, where one ulp of the phase is about 2e133 rad; the transport
    # itself does not overflow, so the oracle is refused by the area after it
    far = write_loop(tmp_path, "far.json", LoopSpec(PlaneId.I, Rect(0.0, 1e150, 0.0, 0.1)))
    assert cli.main([argv[0], far, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: weighted area 1.813e+149 exceeds 4.504e+15 rad")


@pytest.mark.parametrize("u_max,increment", [(1e150, "2.004e+147"), (1e300, "2.004e+297")])
def test_kicked_increment_of_a_far_loop_is_finite_and_short(capsys, tmp_path, u_max, increment):
    far = write_loop(tmp_path, "far.json", LoopSpec(PlaneId.I, Rect(0.0, u_max, 0.0, 0.1)))
    assert cli.main(["oracle", far, "--method", "kicked"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert f"largest control increment {increment} exceeds" in line


@pytest.mark.parametrize(
    "option,argv",
    [
        ("--steps", ["--steps", "nan", "oracle", "{loop}"]),
        ("--shift", ["error", "{loop}", "--shift", "0.01,nan,0,0"]),
        ("--statistical", ["error", "{loop}", "--statistical", "nan", "64"]),
        ("--shift-magnitude", ["compile", "{circuit}", "--shift-magnitude", "inf"]),
        ("--precision", ["--precision", "-3", "area", "{loop}"]),
    ],
)
def test_bad_numeric_option_exits_2_naming_it(capsys, tmp_path, hadamard_loop_file, option, argv):
    circuit = tmp_path / "circuit.txt"
    circuit.write_text("H q0\n")
    argv = [a.format(loop=hadamard_loop_file, circuit=circuit) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and option in lines[0]


@pytest.mark.parametrize("command", [["area", "{loop}"],
                                     ["error", "{loop}", "--statistical", "0.01", "64"]],
                         ids=["area", "error-statistical"])
def test_negative_seed_exits_2_naming_it(capsys, hadamard_loop_file, command):
    # numpy's "expected non-negative integer" used to name no option, and area echoed -1
    argv = ["--seed", "-1"] + [a.format(loop=hadamard_loop_file) for a in command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert "argument --seed: must be non-negative" in line


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--precision", "abc", "area", "{loop}"],
         "argument --precision: expected a positive integer, got 'abc'"),
        (["--seed", "abc", "area", "{loop}"],
         "argument --seed: expected a non-negative integer, got 'abc'"),
        (["--seed", "1.5", "area", "{loop}"],
         "argument --seed: expected a non-negative integer, got '1.5'"),
        (["error", "{loop}", "--statistical", "abc", "64"],
         "argument --statistical: expected a finite number, got 'abc'"),
    ],
    ids=["precision", "seed", "seed-fraction", "statistical"],
)
def test_non_numeric_option_exits_2_naming_it_and_its_kind(capsys, hadamard_loop_file, argv,
                                                          message):
    # argparse used to name the converting function: "invalid _positive_int value: 'abc'"
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(loop=hadamard_loop_file) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.endswith(message)


def test_statistical_record_counts_the_samples_outside_the_domain(capsys, tmp_path):
    crot = write_loop(tmp_path, "crot.json", compiler.CROT_LOOP)
    code, record = run_cli(capsys, "error", crot, "--statistical", "0.01", "1000")
    assert code == 0
    assert record["samples"] == 1000
    assert record["samples_outside_domain"] == 940  # the README's figure, at the default seed 0


@pytest.mark.parametrize("analysis", [[], ["--shift", "0.01,0,0,0", "--statistical", "0.01", "64"]],
                         ids=["neither", "both"])
def test_error_takes_exactly_one_analysis(capsys, hadamard_loop_file, analysis):
    # giving both used to run --shift alone and exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["error", hadamard_loop_file, *analysis])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "--shift" in lines[0] and "--statistical" in lines[0]


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, hologate.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("method", ["connection", "kicked"])
def test_cutoff_below_code_levels_exits_2(capsys, tmp_path, method):
    loop_file = write_loop(tmp_path, "small.json", LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1)))
    for cutoff in ("1", "2"):
        assert_one_line_parse_error(
            capsys, ["--cutoff", cutoff, "--steps", "128", "oracle", loop_file, "--method", method]
        )


@pytest.mark.parametrize("method", ["connection", "kicked"])
def test_cutoff_over_dense_budget_exits_2(capsys, tmp_path, method):
    loop_file = write_loop(tmp_path, "small.json", LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1)))
    assert_one_line_parse_error(
        capsys, ["--cutoff", "10000000", "--steps", "128", "oracle", loop_file, "--method", method]
    )


STATED_PLANE3_RECT = LoopSpec(PlaneId.III, Rect(**compiler.PAPER_STATED_RECTS["III"]["rect"]))


@pytest.mark.parametrize("loop", [compiler.CROT_LOOP, STATED_PLANE3_RECT], ids=["crot", "stated"])
def test_transport_reaches_plane3_loops_at_cutoff_128(capsys, tmp_path, loop):
    # the transport builds its code chains alone, so cutoff 128 is within its budget, and
    # there the chain tail at r2 = arccosh 2 is 7.8e-10, under the 1e-8 truncation budget
    loop_file = write_loop(tmp_path, "loop.json", loop)
    code = cli.main(["--cutoff", "128", "oracle", loop_file, "--method", "connection"])
    captured = capsys.readouterr()
    assert code == 0
    assert "truncation:" not in captured.err
    record = json.loads(captured.out)
    assert record["config"]["cutoff"] == 128
    assert record["frobenius_distance"] <= 1e-10
    stated = compiler.PAPER_STATED_RECTS["III"]
    if loop is STATED_PLANE3_RECT:
        assert record["area"]["sigma"] == pytest.approx(stated["computed_sigma"], abs=1e-10)
        assert record["area"]["paper_stated_value"] == pytest.approx(stated["stated_sigma"])
    else:
        assert record["area"]["sigma"] == pytest.approx(math.pi / 4.0, abs=1e-10)


def test_kicked_route_keeps_the_dense_budget_at_cutoff_128(capsys, tmp_path, monkeypatch):
    # the kicked blocks stay dense until they are built sector by sector: refused before
    # any Fock array is formed, in one line naming the budget
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock array was built")

    for name in ("code_states", "code_chains", "inner_sectors", "two_mode_mix_generator"):
        monkeypatch.setattr(fock, name, refuse)
    loop_file = write_loop(tmp_path, "crot.json", compiler.CROT_LOOP)
    assert cli.main(["--cutoff", "128", "oracle", loop_file, "--method", "kicked"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert "dense matrices" in line and "fock.DENSE_BYTES_BUDGET" in line


def test_strict_truncation_exit_code(capsys, tmp_path):
    # displacement amplitude far beyond what cutoff 8 can carry
    loop_file = write_loop(
        tmp_path, "wild.json", LoopSpec(PlaneId.I, Rect(0.0, 2.6, 0.0, 0.05))
    )
    code = cli.main(
        ["--cutoff", "8", "--steps", "128", "--strict", "oracle", loop_file]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert "truncation" in captured.err
    assert len(captured.err.splitlines()) == 1
    # without --strict the same run succeeds
    assert cli.main(["--cutoff", "8", "--steps", "128", "oracle", loop_file]) == 0


@pytest.mark.parametrize("strict", [False, True])
def test_truncation_is_reported_on_stderr_in_both_modes(capsys, tmp_path, strict):
    # the transport's check reads the squeeze alone (I(i) c at each corner), so the
    # three corners take three squeezes that cutoff 8 cannot carry
    corners = ((0.0, 0.05), (2.6, 0.06), (0.0, 0.07))
    loop_file = write_loop(tmp_path, "wild.json", LoopSpec(PlaneId.I, Polyline(corners)))
    argv = ["--cutoff", "8", "--steps", "128"] + ["--strict"] * strict + ["oracle", loop_file]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == (4 if strict else 0)
    # one line naming the three corners past the budget; the record still prints
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("truncation: ")
    assert captured.err.count("top-quartile population") == 3
    assert json.loads(captured.out)["config"]["strict"] is strict


def test_adiabaticity_warning_is_reported_on_stderr(capsys, tmp_path):
    loop = LoopSpec(PlaneId.I, Rect(0.0, 2.0, 0.0, 2.0))
    loop_file = write_loop(tmp_path, "wide.json", loop)
    code = cli.main(["--steps", "400", "oracle", loop_file, "--method", "kicked"])
    captured = capsys.readouterr()
    # the record still prints and the exit code stays 0: leakage is data
    assert code == 0
    assert json.loads(captured.out)["leakage"] > kicked.LEAKAGE_FAILURE_THRESHOLD
    # one line per kind; both kicked runs (400 and 200 kicks) leak past the threshold
    lines = captured.err.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["truncation", "adiabaticity"]
    assert lines[1].count("the evolution is not adiabatic") == 2
    assert "leakage 0.965 exceeds 0.5" in lines[1]


def test_kicked_steps_too_few_for_the_half_run_exits_2(capsys, tmp_path):
    loop = LoopSpec(PlaneId.I, Rect(0.0, 1.2, 0.0, 0.6))
    loop_file = write_loop(tmp_path, "long.json", loop)
    # 100 kicks keep every increment below the limit; the steps/2 rerun does not
    assert kicked.largest_control_step(loops.boundary_runs(loop, 100)) < kicked.MAX_CONTROL_STEP
    assert cli.main(["--steps", "100", "oracle", loop_file, "--method", "kicked"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--steps 100" in captured.err and "steps/2 = 50 kicks" in captured.err


@pytest.mark.parametrize("method,steps", [("connection", "100"), ("kicked", "110")])
def test_steps_too_few_for_the_edges_of_the_half_run_exits_2(capsys, tmp_path, method, steps):
    # a 60-gon: the steps/2 rerun has 50 or 55 steps, fewer than its edges.  A connection
    # edge takes steps only where it takes Magnus steps, on plane II
    plane = PlaneId.II if method == "connection" else PlaneId.I
    loop_file = write_loop(tmp_path, "gon.json", regular_polygon(plane, 60))
    assert cli.main(["--steps", steps, "oracle", loop_file, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert f"--steps {steps}" in line and "60 edges" in line


@pytest.mark.parametrize("plane", [PlaneId.I, PlaneId.III])
def test_exact_edges_take_any_steps(capsys, tmp_path, plane):
    # on planes I and III every edge is one exact exponential, so no split is validated
    # and the transport does not depend on --steps
    loop_file = write_loop(tmp_path, "gon.json", regular_polygon(plane, 60))
    records = []
    for steps in ("100", "2000"):
        assert cli.main(["--steps", steps, "oracle", loop_file, "--method", "connection"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["integrator"] == "exact_edge" and record["convergence_estimate"] == 0.0
        records.append(record["oracle_gate_raw_frame"])
    assert records[0] == records[1]


def test_loop_file_round_trip(tmp_path, capsys):
    loop = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.5, 0.1), (0.2, 0.6))), -1)
    assert cli._load_loop(write_loop(tmp_path, "poly.json", loop)) == loop


def test_deterministic_output(capsys, hadamard_loop_file):
    outputs = []
    for _ in range(2):
        code = cli.main(["--seed", "3", "error", hadamard_loop_file, "--statistical", "0.01", "400"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_circuit_rejects_bad_arity():
    with pytest.raises(compiler.CircuitParseError):
        compiler.parse_circuit("H q0 q1\n")
    with pytest.raises(compiler.CircuitParseError):
        compiler.parse_circuit("P q0\n")
    with pytest.raises(compiler.CircuitParseError):
        compiler.parse_circuit("H(0.3) q0\n")


def test_parse_circuit_comments_and_params():
    parsed = compiler.parse_circuit("# header\nH q0  # trailing\nP(1.25) q3\n\n")
    assert parsed == [
        {"gate": "H", "qubits": [0], "phi": None},
        {"gate": "P", "qubits": [3], "phi": 1.25},
    ]


def test_crot_loop_area_is_quarter_pi():
    from hologate import loops as loops_mod

    assert loops_mod.area(compiler.CROT_LOOP).sigma == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert loops_mod.area(compiler.HADAMARD_REFERENCE_LOOP).sigma == pytest.approx(
        math.pi / 4.0, rel=1e-14
    )
