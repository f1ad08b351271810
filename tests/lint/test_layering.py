"""Lint: the simulated system never imports the harnesses built on it,
and an application never imports a library OS.

``repro.testing`` (the scenario driver), ``repro.experiments``,
``repro.bench`` and ``repro.cli`` sit *above* the simulator, the
devices, the library OSes, the applications and telemetry.  An import in
the other direction - at module level or tucked inside a function - lets
a harness table leak into the system under test (``sim.faults`` once
reached up into ``repro.testing`` to find the golden plans).  This test
parses every lower-layer module and resolves its imports.  The same
walk keeps ``repro.libos`` out of ``repro/apps/``: an application that
names a stack no longer runs unchanged on the others.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

LOWER = ("sim", "hw", "memory", "netstack", "kernelos", "rdma", "rmem",
         "storage", "core", "libos", "apps", "cluster", "telemetry")
UPPER = ("repro.testing", "repro.experiments", "repro.bench", "repro.cli")


def imported_modules(source, package):
    """``(line, absolute module name)`` for every import in *source*, a
    module of *package*, wherever the statement sits; ``from x import y``
    yields both ``x`` and ``x.y``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            if node.module:
                base = base + node.module.split(".")
            yield node.lineno, ".".join(base)
            for alias in node.names:
                yield node.lineno, ".".join(base + [alias.name])


def reaches(module, targets):
    return any(module == t or module.startswith(t + ".") for t in targets)


def imports_into(layers, targets):
    """``path:line imports module`` for every import of a *targets*
    module by a module of one of *layers*."""
    hits = []
    for layer in layers:
        for path in sorted((SRC / "repro" / layer).rglob("*.py")):
            package = list(path.relative_to(SRC).parts[:-1])
            for lineno, module in imported_modules(path.read_text(), package):
                if reaches(module, targets):
                    hits.append("%s:%d imports %s"
                                % (path.relative_to(SRC.parent), lineno,
                                   module))
    return hits


def called_names(source):
    """``(line, name)`` for every call in *source*: the attribute for
    ``obj.name(...)``, the bare name for ``name(...)``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield node.lineno, func.attr
            elif isinstance(func, ast.Name):
                yield node.lineno, func.id


def calls_into(layers, names):
    """``path:line calls name(`` for every call of one of *names* by a
    module of one of *layers*."""
    hits = []
    for layer in layers:
        for path in sorted((SRC / "repro" / layer).rglob("*.py")):
            for lineno, name in called_names(path.read_text()):
                if name in names:
                    hits.append("%s:%d calls %s("
                                % (path.relative_to(SRC.parent), lineno,
                                   name))
    return hits


def test_lower_layers_do_not_import_the_harnesses():
    hits = imports_into(LOWER, UPPER)
    assert not hits, ("upward imports found (the system under test must "
                      "not know its harnesses):\n" + "\n".join(hits))


def test_an_application_names_no_stack():
    # An application is written against core.api.LibOS or the kernel's
    # socket calls, so it runs unchanged on every stack that offers them.
    hits = imports_into(("apps",), ("repro.libos",))
    assert not hits, ("an application imports a library OS:\n"
                      + "\n".join(hits))


def test_the_lint_resolves_relative_and_nested_imports():
    # Guard the guard: a function-level ``from .. import testing`` in
    # repro/sim/ is exactly the shape that used to slip through.
    source = ("import json\n"
              "def f():\n"
              "    from .. import testing\n"
              "    from ..experiments.spec import Matrix\n"
              "    from .engine import Simulator\n")
    found = {module for _line, module
             in imported_modules(source, ["repro", "sim"])
             if reaches(module, UPPER)}
    assert found == {"repro.testing", "repro.experiments.spec",
                     "repro.experiments.spec.Matrix"}


def test_the_scenario_driver_runs_no_server():
    # A chaos leg spawns the applications that ship (apps.echo,
    # apps.storelog, apps.proto, ...): a server loop written inside the
    # driver would check that a copy is reclaimed, not the application.
    hits = calls_into(("testing",), ("listen", "accept"))
    assert not hits, ("the scenario driver runs its own server:\n"
                      + "\n".join(hits))


def test_the_call_lint_sees_methods_and_bare_names():
    source = ("def serve(libos, qd):\n"
              "    yield from libos.listen(qd)\n"
              "    return accept(qd)\n")
    assert sorted(called_names(source)) == [(2, "listen"), (3, "accept")]
