"""Every module of the package imports.

Most modules are imported by the tests of what they do, but not all of
them, and a module that still names a deleted symbol fails only when it is
imported.  ``__main__`` modules are command-line entry points and are
skipped.
"""

import importlib
import pkgutil

import repro


def test_every_module_imports():
    names = [info.name for info in pkgutil.walk_packages(repro.__path__,
                                                         "repro.")
             if info.name.rpartition(".")[2] != "__main__"]
    assert "repro.core.merge_sweep" in names
    for name in names:
        importlib.import_module(name)
