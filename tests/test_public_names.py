"""Every name a fermigas module exports in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import fermigas

MODULES = [
    importlib.import_module(f"fermigas.{info.name}")
    for info in pkgutil.iter_modules(fermigas.__path__)
]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_the_library_modules_export_names():
    assert {m.__name__ for m in EXPORTING} >= {
        f"fermigas.{name}" for name in (
            "specfun", "potential", "kernels", "schrodinger", "dpp",
            "experiments",
        )
    }


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
