"""Lint: a queue kind's device half has one owner - its queue class.

A libOS is a queue factory: ``socket()`` / ``creat()`` / ``open()`` pick
the class to install, and what the descriptor then does when it is bound,
connected, closed or orphaned is a method of that class
(``repro.core.queue.DemiQueue``'s control-path and teardown hooks), reached
through ``LibOS._lookup(qd)``.  What these checks keep out is the other
shape - a libOS handed a queue and asking what it is - under which "what
does this kind do when its owner dies" is known in three places and one
of them forgets a kind.  The kernel's fd table gets the same rule: an fd
object says how it ends.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: where a queue may only be looked up and delegated to
DISPATCHERS = sorted((SRC / "libos").glob("*.py")) + [
    SRC / "core" / "api.py", SRC / "kernelos" / "reclaim.py"]

#: the control path ``LibOS`` implements once, by delegation
DELEGATED = {"bind", "listen", "accept", "connect", "close", "push_to"}


def parse(path):
    return ast.parse(path.read_text())


def subclasses_of(root):
    """Names of every class in ``src/`` deriving, however far, from *root*."""
    bases = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id if isinstance(b, ast.Name) else
                                    getattr(b, "attr", "") for b in node.bases]
    found, grew = {root}, True
    while grew:
        grew = False
        for name, parents in bases.items():
            if name not in found and found.intersection(parents):
                found.add(name)
                grew = True
    return found - {root}


def calls(tree, name):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name and node.args):
            yield node


def named(node):
    """The class names an ``isinstance`` second argument mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_there_are_queue_classes_to_guard():
    assert {"TcpQueue", "PosixListenQueue", "RdmaQueue", "FileQueue",
            "RmemQueue", "MergedQueue"} <= subclasses_of("DemiQueue")


def test_no_dispatch_on_queue_class_outside_the_queue():
    queue_classes = subclasses_of("DemiQueue") | {"DemiQueue"}
    hits = []
    for path in DISPATCHERS:
        tree = parse(path)
        for call in calls(tree, "isinstance"):
            if len(call.args) > 1 and named(call.args[1]) & queue_classes:
                hits.append("%s:%d isinstance against a queue class"
                            % (path.relative_to(SRC), call.lineno))
        for call in calls(tree, "getattr"):
            if isinstance(call.args[0], ast.Name) \
                    and call.args[0].id == "queue":
                hits.append("%s:%d getattr(queue, ...)"
                            % (path.relative_to(SRC), call.lineno))
    assert not hits, ("ask the queue to do it (a DemiQueue hook), do not "
                      "ask what it is:\n" + "\n".join(hits))


def test_no_libos_method_takes_a_queue_or_redoes_the_control_path():
    liboses = subclasses_of("LibOS")
    assert {"DpdkLibOS", "PosixLibOS", "RdmaLibOS", "SpdkLibOS"} <= liboses
    hits = []
    for path in SRC.rglob("*.py"):
        for cls in ast.walk(parse(path)):
            if not (isinstance(cls, ast.ClassDef) and cls.name in liboses):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                params = [a.arg for a in fn.args.args]
                if params[1:2] == ["queue"]:
                    hits.append("%s.%s takes a queue: make it a method of "
                                "the queue class" % (cls.name, fn.name))
                if fn.name in DELEGATED:
                    hits.append("%s.%s: LibOS implements it once, by "
                                "delegating to the queue" % (cls.name,
                                                             fn.name))
    assert not hits, "\n".join(hits)


def test_the_kernel_does_not_ask_an_fd_object_what_it_is():
    path = SRC / "kernelos" / "kernel.py"
    hits = ["kernelos/kernel.py:%d getattr(obj, ...)" % call.lineno
            for call in calls(parse(path), "getattr")
            if isinstance(call.args[0], ast.Name)
            and call.args[0].id == "obj"]
    assert not hits, ("give the fd object a method (KObject.release / "
                      "abort):\n" + "\n".join(hits))


def test_an_app_waits_through_its_libos():
    """Only ``repro/core`` waits on the qtoken table itself: everything
    above it waits through ``LibOS.wait*``, which charges the crossing
    (``wait_dispatch_ns``) a wait on the table directly would skip."""
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent == SRC / "core":
            continue
        for node in ast.walk(parse(path)):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("wait")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "qtokens"):
                hits.append("%s:%d qtokens.%s" % (path.relative_to(SRC),
                                                  node.lineno, node.attr))
    assert not hits, "wait through the libOS:\n" + "\n".join(hits)
