"""The kernel backend: one pure-Python implementation, no third-party
imports, and no assert statements anywhere in the package."""

import ast
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import triangle_words
from triangle_words._kernels import BACKEND, pure
from triangle_words.groups import CORPUS_NAMES, corpus_group
from triangle_words.words import (
    ReducedWord,
    TwistedAutomorphism,
    apply_twisted,
    invert,
    multiply,
)

from oracles import automorphism_group, twisted_search_exhaustive
from test_psl2 import A, reverify
from test_words import cyclic_group


def test_backend_selected():
    assert BACKEND == "pure"


def test_grid_unsolvable_is_infinite():
    # sigma_{1/2} * g sigma_{1/2} g^-1 has half-trace -cosh(2s) <= -1: never
    # elliptic, so no conjugator reaches the class 1/2
    assert pure.grid_class_distance(0.5, 0.5, 0.5) is None
    # hyperbolic-sum triple (sum 5/3): no s >= 0 matches either sign
    assert pure.grid_class_distance(0.5, 0.5, 2 / 3) is None


def test_grid_solvable_is_close():
    # (1/300)^3 needs s = 5.25 and (1/1000)^3 needs s = 6.46: no fixed
    # interval of s holds every small-angle solution
    triples = ((A(1, 2), A(1, 3), A(1, 7)), (A(1, 300),) * 3, (A(1, 1000),) * 3)
    for a, b, c in triples:
        s = pure.grid_class_distance(float(a.rep), float(b.rep), float(c.rep))
        assert s >= 0.0
        assert abs(reverify(a, b, 0.0, s) - float(c.rep)) < 1e-9


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


def test_no_assert_statements():
    """Every check in the package is an explicit raise, so it still runs
    under ``python -O``, which strips assert statements."""
    package = Path(triangle_words.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# C2-C6 and the corpus; the exhaustive oracle tries |G|^(s+1) 2^s words per
# length s, so max_len shrinks as the order grows.
TWISTED_GROUPS = [cyclic_group(n) for n in range(2, 7)] + [
    corpus_group(name) for name in CORPUS_NAMES
]
automorphisms = cache(automorphism_group)


def max_len_cap(order):
    if order <= 3:
        return 4
    if order <= 8:
        return 3
    return 2 if order <= 12 else 1


@st.composite
def reduced_words(draw, G, max_len):
    s = draw(st.integers(0, max_len))
    bases = draw(st.lists(st.integers(0, G.order - 1), min_size=s + 1, max_size=s + 1))
    exps = draw(st.lists(st.sampled_from((1, -1)), min_size=s, max_size=s))
    for i in range(1, s):
        if bases[i] == 0 and exps[i - 1] == -exps[i]:
            bases[i] = 1
    return ReducedWord(G, tuple(bases), tuple(exps))


@st.composite
def twisted_instances(draw):
    G = draw(st.sampled_from(TWISTED_GROUPS))
    t = TwistedAutomorphism(
        G, draw(st.sampled_from(automorphisms(G))), draw(st.integers(0, G.order - 1))
    )
    max_len = draw(st.integers(0, max_len_cap(G.order)))
    if draw(st.booleans()):
        v = draw(reduced_words(G, max_len))
        u = multiply(apply_twisted(t, v), invert(v))[0]
    else:
        u = draw(reduced_words(G, 2 * max_len))
    return t, u, max_len


@settings(max_examples=300, deadline=None)
@given(twisted_instances())
def test_twisted_search_matches_exhaustive(instance):
    """The per-position solve returns the exhaustive search's first v, or
    None exactly when it does, on planted and on random targets."""
    t, u, max_len = instance
    G = t.group
    args = (G.order, G._mul, G._inv, list(t.phi), t.p, u.bases, u.exps, max_len)
    assert pure.twisted_search(*args) == twisted_search_exhaustive(*args)
