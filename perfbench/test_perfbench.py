"""Self-tests of the benchmark: input generator, checker, tracer, metric names.

Run with `python3 -m pytest -q perfbench`.  None of them imports hologate.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _draw_all(seed: int) -> list:
    out = []
    for plane in ("I", "III"):
        rng = inputs.stream(seed, f"oracle:{plane}")
        out += [inputs.rect_loop(rng, plane, inputs.ORACLE_DOMAIN) for _ in range(5)]
        out += [inputs.polygon_loop(rng, plane, inputs.ORACLE_DOMAIN) for _ in range(5)]
    rng = inputs.stream(seed, "sweep")
    for plane in ("I", "II", "III"):
        loop = inputs.rect_loop(rng, plane, inputs.AREA_DOMAIN)
        out += [loop, inputs.border_shift(rng, loop)]
        poly = inputs.polygon_loop(rng, plane, inputs.AREA_DOMAIN)
        out += [poly, inputs.noise_amplitude(rng, poly)]
    out += [inputs.circuit(rng) for _ in range(5)]
    return out


def test_generator_repeats_for_the_same_seed():
    assert _draw_all(7) == _draw_all(7)
    assert _draw_all(7) != _draw_all(8)


def test_polygons_are_convex_and_tilted_inside_their_domain():
    for plane, domain in (("I", inputs.ORACLE_DOMAIN), ("III", inputs.ORACLE_DOMAIN),
                          ("II", inputs.AREA_DOMAIN)):
        rng = inputs.stream(3, plane)
        (u_lo, u_hi), (v_lo, v_hi) = domain[plane]
        for _ in range(50):
            verts = np.asarray(inputs.polygon_loop(rng, plane, domain)["polyline"])
            assert 5 <= len(verts) <= 8
            assert np.all((verts[:, 0] >= u_lo) & (verts[:, 0] <= u_hi))
            assert np.all((verts[:, 1] >= v_lo) & (verts[:, 1] <= v_hi))
            edges = np.roll(verts, -1, axis=0) - verts
            turns = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
            assert np.all(turns > 0)  # convex, counterclockwise
            angles = np.degrees(np.arctan2(np.abs(edges[:, 1]), np.abs(edges[:, 0])))
            assert np.all((angles >= 5.0 - 1e-9) & (angles <= 85.0 + 1e-9))


def test_circuits_encode_the_gates_they_list():
    text, gates = inputs.circuit(inputs.stream(1, "circuit"))
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == len(gates)
    for line, gate in zip(lines, gates):
        assert line.split()[0].startswith(gate["gate"])
        assert line.split()[1:] == [f"q{q}" for q in gate["qubits"]]


@pytest.mark.parametrize("plane", ["I", "II", "III"])
@pytest.mark.parametrize("orientation", [1, -1])
def test_polygon_reference_matches_rect_closed_form(plane, orientation):
    rect = {"u_min": 0.1, "u_max": 0.5, "v_min": 0.2, "v_max": 0.45}
    corners = [[0.1, 0.2], [0.5, 0.2], [0.5, 0.45], [0.1, 0.45]]
    as_rect = {"plane": plane, "orientation": orientation, "rect": rect}
    as_poly = {"plane": plane, "orientation": orientation, "polyline": corners[::-1]}
    want = checks.reference_sigma(as_rect)
    assert checks.reference_sigma(as_poly) == pytest.approx(want, abs=1e-15)
    assert math.copysign(1.0, checks.reference_sigma(as_rect)) == orientation


def test_polygon_reference_matches_grid_integration():
    diamond = [[0.3, 0.1], [0.5, 0.3], [0.3, 0.5], [0.1, 0.3]]
    n = 2000
    u, v = np.meshgrid((np.arange(n) + 0.5) / n * 0.6, (np.arange(n) + 0.5) / n * 0.6)
    inside = np.abs(u - 0.3) + np.abs(v - 0.3) <= 0.2
    cell = (0.6 / n) ** 2
    for plane, weight in (("I", 2.0 * np.exp(-2.0 * v)), ("III", 2.0 * np.sinh(2.0 * u))):
        grid = float(np.sum(weight[inside]) * cell)
        loop = {"plane": plane, "orientation": 1, "polyline": diamond}
        assert checks.reference_sigma(loop) == pytest.approx(grid, rel=2e-3)


def test_reference_sensitivity_matches_finite_differences():
    loop = {"plane": "III", "orientation": -1,
            "rect": {"u_min": 0.2, "u_max": 0.9, "v_min": 0.1, "v_max": 0.4}}
    sens = checks.reference_sensitivity(loop)
    for i, border in enumerate(("u_low", "u_high", "v_low", "v_high")):
        step = [0.0] * 4
        step[i] = 1e-6
        plus = checks.reference_sigma(checks.shifted(loop, step))
        minus = checks.reference_sigma(checks.shifted(loop, [-s for s in step]))
        assert (plus - minus) / 2e-6 == pytest.approx(sens[border], rel=1e-7)


def test_checker_rejects_a_perturbed_oracle_matrix():
    loop = {"plane": "III", "orientation": 1,
            "rect": {"u_min": 0.0, "u_max": 0.15, "v_min": 0.0, "v_max": 0.15}}
    exact = checks.reference_gate("III", checks.reference_sigma(loop))
    assert checks.check_oracle(loop, "connection", exact) == []
    assert checks.check_oracle(loop, "kicked", exact, leakage=1e-6) == []
    bumped = exact.copy()
    bumped[1, 2] += 1e-5
    assert checks.check_oracle(loop, "connection", bumped)
    assert checks.check_oracle(loop, "kicked", exact, leakage=0.6)
    flipped = checks.reference_gate("III", -checks.reference_sigma(loop))
    assert checks.check_oracle(loop, "kicked", flipped)


def test_checker_rejects_nan_records_and_failed_processes():
    assert checks.strict_record(0, '{"sigma": 1.5}\n') == ({"sigma": 1.5}, [])
    for code, stdout in ((0, '{"sigma": NaN}'), (0, '{"sigma": Infinity}'), (2, '{"sigma": 1.5}'),
                         (0, ""), (0, '{"a": 1}\n{"b": 2}'), (0, "[1, 2]")):
        record, problems = checks.strict_record(code, stdout)
        assert record is None and problems


def test_checker_rejects_a_wrong_area_and_budget():
    loop = {"plane": "I", "orientation": 1,
            "rect": {"u_min": 0.0, "u_max": 0.5, "v_min": 0.1, "v_max": 0.3}}
    sigma = checks.reference_sigma(loop)
    assert checks.check_area_gate(loop, sigma, checks.reference_gate("I", sigma)) == []
    assert checks.check_area_gate(loop, -sigma, None)
    assert checks.check_area_gate(loop, sigma, checks.reference_gate("II", sigma))
    crot = {"plane": "III", "orientation": 1,
            "rect": {"u_min": 0.0, "u_max": math.acosh(2.0), "v_min": 0.0, "v_max": math.pi / 24}}
    budget = 0.01 * sum(abs(x) for x in checks.reference_sensitivity(crot).values())
    record = {
        "schedule": [{"gate": "CROT", "qubits": [0, 1], "first_order_epsilon_bound": budget,
                      "entries": [{"loop": crot, "sigma": math.pi / 4,
                                   "first_order_epsilon_bound": budget}]}],
        "total_first_order_epsilon_bound": budget,
    }
    gates = [{"gate": "CROT", "qubits": [0, 1], "phi": None}]
    assert checks.check_compiled(gates, 0.01, record) == []
    record["total_first_order_epsilon_bound"] = 2 * budget
    assert checks.check_compiled(gates, 0.01, record)


def _span(name, start, end, parent, request=0):
    return [name, start, end, parent, request]


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("lone", 20.0, 21.5, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),
        _span("z", 9.0, 12.0, 0),  # runs past its parent: only 9-10 is covered
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summary_splits_setup_and_counts_cache_hits():
    spans = [
        _span("connection.frame_factory", 0.0, 2.0, -1, tracer.SETUP),
        _span("connection.frame_factory.build", 0.5, 1.5, 0, tracer.SETUP),
        _span("connection.frame_factory", 3.0, 3.1, -1, 0),
        _span("connection.frame_factory", 4.0, 4.1, -1, 1),
    ]
    summary = tracer.summarize(spans)
    lookups = summary["connection.frame_factory"]
    assert (lookups["calls"], lookups["setup_calls"], lookups["hits"]) == (2, 1, 2)
    assert lookups["setup_self_s"] == pytest.approx(1.0)
    values = run.layer_values(summary, n_requests=2, n_processes=1)
    assert values["connection.frame_factory.builds"] == 1.0
    assert values["connection.frame_factory.build_ms"] == pytest.approx(1000.0)
    assert values["connection.frame_factory.hit_ratio"] == pytest.approx(2 / 3)


def test_tracer_wraps_inner_calls_and_skips_missing_targets(monkeypatch):
    pkg = types.ModuleType("benchfake")
    mod = types.ModuleType("benchfake.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Factory:
        def frame(self, x):
            return mod.inner(x)

    mod.inner, mod.outer, mod.Factory = inner, outer, Factory
    pkg.outer = outer  # a re-export, as hologate.area re-exports loops.area
    monkeypatch.setitem(sys.modules, "benchfake", pkg)
    monkeypatch.setitem(sys.modules, "benchfake.mod", mod)
    monkeypatch.setattr(tracer, "PACKAGE", "benchfake")
    monkeypatch.setattr(tracer, "FUNCTION_TARGETS", (
        ("mod.inner", "benchfake.mod", "inner"),
        ("mod.outer", "benchfake.mod", "outer"),
        ("mod.gone", "benchfake.mod", "deleted_helper"),
    ))
    monkeypatch.setattr(tracer, "METHOD_TARGETS", (
        ("mod.frame", "benchfake.mod", "Factory", "frame"),
        ("mod.gone_method", "benchfake.mod", "Factory", "removed"),
    ))
    frame = Factory.__dict__["frame"]
    tr = tracer.Tracer()
    tr.install()
    tr.request = 0
    assert pkg.outer(1) == 4
    assert Factory().frame(1) == 2
    tr.uninstall()
    assert mod.inner is inner and pkg.outer is outer and Factory.__dict__["frame"] is frame
    assert [s[0] for s in tr.spans] == ["mod.outer", "mod.inner", "mod.frame", "mod.inner"]
    assert [s[3] for s in tr.spans] == [-1, 0, -1, 2]
    assert set(tr.absent) == {"mod.gone", "mod.gone_method"}
    assert mod.outer(1) == 4 and len(tr.spans) == 4  # nothing recorded once removed


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)
