"""The README's library example runs as written and prints what its comments claim."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_claims():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    sigma, distance = (float(line) for line in printed.getvalue().split())
    assert abs(sigma - 3.0 * math.pi / 4.0) < 1e-12  # "3*pi/4"
    assert distance < 1e-15  # "~1e-16: every edge is exact"
