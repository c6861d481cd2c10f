"""Tests for the split between the sweep-path models and ``coarsebell.oracles``.

The oracles' physics is tested module by module (test_generic, test_photon,
test_ecs, test_leggett_garg); here: the import boundary, and the one
Gaussian angle average they share.
"""

import ast
import math
from pathlib import Path

import pytest

import coarsebell
from coarsebell.oracles import angle_average, gauss_hermite

SRC = Path(coarsebell.__file__).resolve().parent


def imported_modules(path: Path) -> set[str]:
    """Absolute names of every module an ``import`` statement in ``path`` names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "coarsebell" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            names.add(base)
            # "from . import oracles" and "from coarsebell import oracles"
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


MODULES = {path.name: imported_modules(path) for path in sorted(SRC.glob("*.py"))}


def test_the_scan_sees_every_module_and_the_known_imports():
    assert {"oracles.py", "sweep.py", "photon.py", "__init__.py"} <= set(MODULES)
    assert "coarsebell.oracles" in MODULES["__init__.py"]
    assert "coarsebell.photon" in MODULES["oracles.py"]
    assert "scipy.special" in MODULES["oracles.py"]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"oracles.py"}))
def test_only_the_oracles_import_scipy(module):
    assert not any(name.split(".")[0] == "scipy" for name in MODULES[module])


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py", "oracles.py"}))
def test_no_model_module_imports_the_oracles(module):
    assert "coarsebell.oracles" not in MODULES[module]


def node_by_node(f, centres, Delta, rule):
    """The hand-written tensor-product loops that ``angle_average`` replaced."""
    scale = math.sqrt(2.0) * Delta
    total = 0.0
    if len(centres) == 1:
        for x, w in zip(rule.nodes, rule.weights):
            total += w * f(centres[0] + scale * x)
        return total
    for xa, wa in zip(rule.nodes, rule.weights):
        pa = centres[0] + scale * xa
        for xb, wb in zip(rule.nodes, rule.weights):
            pb = centres[1] + scale * xb
            total += wa * wb * f(pa, pb)
    return total


@pytest.mark.parametrize("Delta", [0.3, 1.0])
@pytest.mark.parametrize("order", [1, 7, 40])
def test_angle_average_is_the_node_by_node_loop_bit_for_bit(Delta, order):
    rule = gauss_hermite(order)

    def two(a, b):
        return math.sin(3.0 * a) * math.cos(a - 2.0 * b) + b

    def one(t):
        return math.exp(math.cos(t)) - t

    assert angle_average(two, (0.4, -1.1), Delta, rule) == node_by_node(two, (0.4, -1.1), Delta, rule)
    assert angle_average(one, (2.5,), Delta, rule) == node_by_node(one, (2.5,), Delta, rule)

