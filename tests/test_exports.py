"""Every public name has a caller in the package or the benchmark.

The public names are those the package binds, less private names and
submodules, and the public functions, classes and constants that each
submodule defines at module level, less its click commands.  A name
counts as called when some module of `kippcurve` other than
`__init__.py`, or some module of `kippbench/`, loads it as a variable or
reads it as an attribute; a definition or an import alone does not count.
"""

import ast
import pkgutil
from pathlib import Path
from types import ModuleType

import kippcurve

BENCH = Path(__file__).resolve().parents[1] / "kippbench"


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


def _sources() -> list:
    return [p for p in Path(kippcurve.__file__).parent.glob("*.py") if p.name != "__init__.py"]


def _called() -> set:
    return _loaded_names(_sources() + sorted(BENCH.glob("*.py")))


def test_every_export_has_a_caller():
    called = _called()
    uncalled = {name for name in _public(kippcurve) if name not in called}
    assert uncalled == set()


def _is_click_command(node) -> bool:
    # @main.command(), @generate.command("jordan"), @click.group(), @main.group()
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("command", "group")
        for dec in node.decorator_list
    )


def _defined(path) -> set:
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if not name.startswith("_")}


def test_every_submodule_definition_has_a_caller():
    defined = set().union(*(_defined(p) for p in _sources()))
    assert {"fit_disc", "DISC_TOL", "CampaignConfig"} <= defined
    assert defined - _called() == set()


def test_all_is_the_public_namespace():
    assert len(kippcurve.__all__) == len(_public(kippcurve))
    assert set(kippcurve.__all__) == _public(kippcurve)


def test_no_submodule_exported():
    submodules = {info.name for info in pkgutil.iter_modules(kippcurve.__path__)}
    assert {"classify", "kippenhahn", "linalg", "svgplot"} <= submodules
    assert submodules.isdisjoint(kippcurve.__all__)
    assert not [name for name in kippcurve.__all__ if isinstance(getattr(kippcurve, name), ModuleType)]
