"""Every public name has a caller in the package or the benchmark.

The public names are those the package binds, less private names and
submodules.  A name counts as called when some module of `kippcurve`
other than `__init__.py`, or some module of `kippbench/`, loads it as a
variable or reads it as an attribute; a definition or an import alone
does not count.
"""

import ast
import pkgutil
from pathlib import Path
from types import ModuleType

import kippcurve

BENCH = Path(__file__).resolve().parents[1] / "kippbench"

# the structure checks that the targeted circular-range search is to call
AWAITING_CALLER = {
    "is_class_sn",
    "is_irreducible",
    "kernel_dimension",
    "reduce_partial_isometry",
}


def _public(module) -> set:
    return {name for name, value in vars(module).items() if not (name.startswith("_") or isinstance(value, ModuleType))}


def _loaded_names(paths) -> set:
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_export_has_a_caller():
    package = Path(kippcurve.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    called = _loaded_names(sources + sorted(BENCH.glob("*.py")))
    uncalled = {name for name in _public(kippcurve) if name not in called}
    assert uncalled == AWAITING_CALLER


def test_all_is_the_public_namespace():
    assert len(kippcurve.__all__) == len(_public(kippcurve))
    assert set(kippcurve.__all__) == _public(kippcurve)


def test_no_submodule_exported():
    submodules = {info.name for info in pkgutil.iter_modules(kippcurve.__path__)}
    assert {"classify", "kippenhahn", "linalg", "svgplot"} <= submodules
    assert submodules.isdisjoint(kippcurve.__all__)
    assert not [name for name in kippcurve.__all__ if isinstance(getattr(kippcurve, name), ModuleType)]
