"""The README's library example runs as written and prints what its comments claim,
and every dotted name it cites exists."""

import contextlib
import importlib
import io
import math
import pkgutil
import re
from pathlib import Path

import hologate
from hologate import connection, loops

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_claims():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    sigma, distance = (float(line) for line in printed.getvalue().split())
    assert abs(sigma - 3.0 * math.pi / 4.0) < 1e-12  # "3*pi/4"
    assert distance < 1e-15  # "~1e-16: every edge is exact"


def resolve(name):
    """The object a dotted README name cites: hologate.X, a module's short name, or a class.

    A head that is neither hologate nor one of its modules is looked up among
    the names the modules hold (ControlBlock in connection, and so on).
    """
    modules = {
        info.name: importlib.import_module(f"hologate.{info.name}")
        for info in pkgutil.iter_modules(hologate.__path__)
    }
    head, *rest = name.split(".")
    if head == "hologate":
        owner, rest = modules[rest[0]], rest[1:]
    elif head in modules:
        owner = modules[head]
    else:
        owner = next(vars(module)[head] for module in modules.values() if head in vars(module))
    for part in rest:
        owner = getattr(owner, part)
    return owner


def test_readme_names_resolve():
    # `module.name` or `Class.name` in backticks, a call's () included
    text = README.read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", text)))
    assert len(names) >= 10
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, KeyError, StopIteration):
            unresolved.append(name)
    assert unresolved == []


def test_readme_plane3_block_sizes_are_the_factory_blocks():
    # "runs on 56 + 49 states (49 + 42 at cutoff 13)"
    text = " ".join(README.read_text(encoding="utf-8").split())
    [(at14, at13)] = re.findall(r"runs on (\d+ \+ \d+) states \((\d+ \+ \d+) at cutoff 13\)", text)
    for cutoff, sizes in ((14, at14), (13, at13)):
        factory = connection.FrameFactory(loops.PlaneId.III, cutoff)
        assert [block.index.size for block in factory.blocks] == [
            int(size) for size in sizes.split(" + ")
        ]
