"""Every name a ``src/repro`` module exports resolves.

A deletion that leaves its name in some ``__all__`` (or a package that
re-exports it) is caught here, in tier-1, instead of by the first
``from repro.x import *``.  ``repro.__main__`` runs the CLI on import and
exports nothing, so it is the one module not imported.
"""

import importlib
import pkgutil

import repro


def test_every_name_in_every_all_resolves():
    names = ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__")
    assert len(names) > 50
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += ["%s.%s" % (name, export)
                  for export in getattr(module, "__all__", ())
                  if not hasattr(module, export)]
    assert not stale, "exported but not defined: %s" % ", ".join(stale)
