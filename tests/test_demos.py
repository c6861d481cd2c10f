"""Every demo script still imports: each is loaded as a module, and ``main()`` is not run."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_four_demos_are_found():
    assert [path.stem for path in DEMOS] == [
        "entangled_coherent",
        "generic_coarsening",
        "leggett_garg",
        "photon_pairs",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
