"""Importing the package loads no scipy subpackage that it does not use.

The benchmark's setup time includes `import kippcurve`, and each of these
subpackages adds a large share of it.  Code that needs one, such as a
solver from scipy.optimize, imports it where it runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {
    "scipy.signal",
    "scipy.stats",
    "scipy.optimize",
    "scipy.interpolate",
    "scipy.integrate",
    "scipy.ndimage",
    "scipy.spatial",
}


def test_import_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter, so that no other test's imports count
    code = "import sys, kippcurve; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "scipy.linalg" in loaded  # the one the package uses, so the check sees scipy
    assert loaded.isdisjoint(HEAVY), sorted(loaded & HEAVY)
