"""Every name a fluxline module lists in __all__ exists, so its star import works."""

import importlib
import pkgutil

import pytest

import fluxline

MODULES = [info.name for info in pkgutil.walk_packages(fluxline.__path__, "fluxline.")]
DECLARING = sorted(name for name in MODULES if hasattr(importlib.import_module(name), "__all__"))


def test_library_modules_declare_public_names():
    assert {"fluxline.metrics", "fluxline.synthesis", "fluxline.wavelab"} <= set(DECLARING)


@pytest.mark.parametrize("name", DECLARING)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


# each package republishes its modules' names, in this order, and lists none itself
PACKAGES = {
    "fluxline": ("fluxline.metrics", "fluxline.synthesis", "fluxline.wavelab"),
    "fluxline.wavelab": tuple(f"fluxline.wavelab.{m}" for m in ("fronts", "rays", "continuum", "ladder", "verify")),
}


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_package_all_is_its_modules_lists(package):
    names = [n for module in PACKAGES[package] for n in importlib.import_module(module).__all__]
    assert importlib.import_module(package).__all__ == names
    assert len(set(names)) == len(names), f"{package} republishes a name twice"
