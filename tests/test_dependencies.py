"""numpy is the only runtime dependency: every module of `genpol` imports
only the standard library, numpy and genpol itself.  The declared numpy
floor is 2.0 or later, the first with `np.bitwise_count`."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "genpol").rglob("*.py"))


def _imports(path):
    """The top-level package of each import of the module at `path`; a
    relative import is one of genpol."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "genpol" if node.level else node.module.split(".")[0]


def test_genpol_imports_only_the_standard_library_and_numpy():
    found = {(path.name, name) for path in SOURCES for name in _imports(path)}
    allowed = set(sys.stdlib_module_names) | {"numpy", "genpol"}
    assert {(module, name) for module, name in found if name not in allowed} == set()
    # The walk reaches every module.
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "concepts.py",
                                               "features.py", "pipeline.py", "sat.py"}
    assert {("concepts.py", "numpy"), ("cli.py", "argparse")} <= found


def test_declared_numpy_floor_has_bitwise_count():
    # `concepts.StateContext.popcounts` calls `np.bitwise_count`, new in numpy 2.0.
    text = (ROOT / "pyproject.toml").read_text()
    floors = re.findall(r'"numpy>=(\d+)\.(\d+)', text)
    assert len(floors) == 1 and tuple(map(int, floors[0])) >= (2, 0)
