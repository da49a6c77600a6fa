import math

import pytest

from hologate import connection, kicked
from hologate.loops import LoopSpec, PlaneId, Rect

SMALL_RECTS = {
    PlaneId.I: connection.CALIBRATION_RECT,
    PlaneId.II: LoopSpec(PlaneId.II, Rect(0.0, 0.1, 0.0, 0.1)),
    PlaneId.III: LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)),
}

ORACLE_CUTOFF = {PlaneId.I: 60, PlaneId.II: 60, PlaneId.III: 14}


def rect_sigma_closed_form(plane: PlaneId, rect: Rect) -> float:
    """Counterclockwise weighted area of a rectangle, integrated by hand.

    sigma_I/II = (u1 - u0) * (exp(-2 v0) - exp(-2 v1)) and
    sigma_III = (v1 - v0) * (cosh(2 u1) - cosh(2 u0)).
    """
    if plane is PlaneId.III:
        return (rect.v_max - rect.v_min) * (
            math.cosh(2.0 * rect.u_max) - math.cosh(2.0 * rect.u_min)
        )
    return (rect.u_max - rect.u_min) * (
        math.exp(-2.0 * rect.v_min) - math.exp(-2.0 * rect.v_max)
    )


@pytest.fixture(scope="session")
def holonomy_sweeps():
    """Path-ordered holonomies of the small rectangles at doubling step counts."""
    out = {}
    for plane, loop in SMALL_RECTS.items():
        out[plane] = {
            steps: connection.holonomy_path_ordered(loop, ORACLE_CUTOFF[plane], steps)
            for steps in (250, 500, 1000, 2000)
        }
    return out


@pytest.fixture(scope="session")
def kicked_sweep():
    """Kicked runs of the calibration rectangle at doubling kick counts, cutoff 40."""
    return {
        k: kicked.run_kicked(kicked.KickSchedule(connection.CALIBRATION_RECT, k, cutoff=40))
        for k in (256, 512, 1024)
    }


@pytest.fixture(scope="session")
def connection_oracle_cutoff40():
    return connection.holonomy_path_ordered(connection.CALIBRATION_RECT, 40, 2000)
