"""Every exported name resolves, so a deleted definition cannot leave a
stale entry in the package or a module ``__all__``."""

import importlib
import pkgutil

import pytest

import diffusion_lms

MODULES = sorted(info.name for info in pkgutil.iter_modules(diffusion_lms.__path__))


@pytest.mark.parametrize("module_name", [None] + MODULES)
def test_exports_resolve(module_name):
    module = diffusion_lms if module_name is None else importlib.import_module(f"diffusion_lms.{module_name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

