"""The kernel backend: one pure-Python implementation, no third-party
imports."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import triangle_words
from triangle_words._kernels import BACKEND, pure


def test_backend_selected():
    assert BACKEND == "pure"


def test_grid_unsolvable_is_infinite():
    # sigma_{1/2} * g sigma_{1/2} g^-1 has half-trace -cosh(2s) <= -1: never
    # elliptic, so no conjugator reaches the class 1/2
    dist, _, _ = pure.grid_class_distance(0.5, 0.5, 0.5)
    assert dist == math.inf
    # hyperbolic-sum triple (sum 5/3): no s in [0, 5] matches either sign
    dist, _, _ = pure.grid_class_distance(0.5, 0.5, 2 / 3)
    assert dist == math.inf


def test_grid_solvable_is_close():
    dist, phi, s = pure.grid_class_distance(0.5, 1 / 3, 1 / 7)
    assert dist < 1e-9
    assert 0.0 <= s <= pure.S_MAX
    assert phi in pure.PHIS


def test_no_third_party_import():
    """A fresh interpreter importing the CLI and psl2 loads only the standard
    library and this package."""
    code = (
        "import sys; before = set(sys.modules); "
        "import triangle_words.cli, triangle_words.psl2; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    # the fresh interpreter imports the same package as this one
    src = str(Path(triangle_words.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    loaded = set(ast.literal_eval(out.stdout))
    assert "triangle_words" in loaded
    assert loaded - {"triangle_words"} <= sys.stdlib_module_names
