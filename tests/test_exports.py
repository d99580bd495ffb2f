"""Every exported name must exist, so ``from logkge.<module> import *`` works.

A deleted function whose ``__all__`` entry stays breaks a star import and
nothing else, so no other test would notice.
"""

import importlib
import pkgutil

import logkge


def test_every_exported_name_resolves():
    names = ["logkge"] + [f"logkge.{m.name}" for m in pkgutil.iter_modules(logkge.__path__)]
    assert "logkge.schemes" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{x}" for x in module.__all__ if not hasattr(module, x)]
    assert missing == []
