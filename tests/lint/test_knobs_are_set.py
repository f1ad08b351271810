"""Lint: a parameter exists where a caller sets it.

A defaulted parameter of a function in ``src/repro`` is a knob: each one
doubles the configurations the golden pins, the chaos battery and
perfbench are meant to cover.  A knob that no call in ``src/``,
``perfbench/``, ``benchmarks/`` or ``examples/`` sets has one value in
use, so it is a constant: make it a module constant or a plain local and
drop its plumbing.

A call sets a knob by keyword, or by position past the required
parameters.  Calls are matched by name alone (``f(...)``,
``obj.f(...)``, ``Class(...)`` for ``Class.__init__``, including a
subclass that inherits it, ``super().__init__(...)`` for the bases,
``cls(...)`` in a classmethod, ``partial(f, ...)`` and a ``{key: f}``
table), which errs towards "set".  One level of indirection is
followed: a function handed to a parameter by name and called through
it, and the keywords a function gathers in ``**kw`` and hands on.  A
pass-through - a caller's own defaulted parameter handed on by name,
``f(x=x)`` - sets ``f``'s ``x`` only when the caller's ``x`` is set
itself (or allowed).

The one exception is :data:`ALLOWED`, each entry with its reason: a
deployment setting (port, address, path, seed, name), the shape of a
Figure-3 or POSIX call, a scenario row's param that experiment specs
set, a knob set through ``**kw`` or a dynamic callee, or one only the
tests set.  The map only shrinks - an entry that is set now, or gone,
fails too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
#: where a call counts as a caller: the program and what it ships
READERS = [ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks",
           ROOT / "examples"]

DEPLOYMENT = "deployment: where it runs, not how it behaves"
FIGURE_3 = "Figure-3 call shape: the application's argument"
POSIX = "POSIX call shape: the application's argument"
TESTS_ONLY = ("tests-only: only a tier-1 test sets it, which would need"
              " rewriting")

#: ``module.Qual.name(param=)`` -> why a knob no reader call sets stays
ALLOWED = {
    "apps.echo.posix_echo_client(port=)": DEPLOYMENT,
    "apps.echo.posix_echo_server(port=)": DEPLOYMENT,
    "apps.echo.posix_echo_server(max_requests=)": TESTS_ONLY,
    "apps.kvstore.posix_kv_client(port=)": DEPLOYMENT,
    "apps.kvstore.posix_kv_server(port=)": DEPLOYMENT,
    "apps.storelog.demi_log_writer(path=)": DEPLOYMENT,
    "apps.storelog.posix_log_writer(path=)": DEPLOYMENT,
    "cli.main(argv=)": DEPLOYMENT + " (the command line)",
    "cluster.shard.ShardProtoServer.__init__(codec_factory=)":
        "**kw: make_sharded_kv_world(server_kwargs=) sets it",
    "core.api.LibOS.queue(capacity=)": FIGURE_3,
    "core.api.LibOS.wait_all(timeout_ns=)": FIGURE_3,
    "core.retry.retry_with_backoff(factor=)": TESTS_ONLY,
    "hw.nic.KernelNic.__init__(coalesce_ns=)": TESTS_ONLY,
    "hw.nic._EthernetNic.post_tx(dma_addrs=)": TESTS_ONLY,
    "hw.nvme.NvmeDevice.__init__(block_size=)": TESTS_ONLY,
    "hw.nvme.NvmeDevice.__init__(capacity_blocks=)": TESTS_ONLY,
    "hw.offload.OffloadEngine.__init__(capabilities=)": TESTS_ONLY,
    "hw.offload.OffloadEngine.__init__(element_ns=)": TESTS_ONLY,
    "kernelos.kernel.Syscalls.epoll_wait(max_events=)": POSIX,
    "kernelos.kernel.Syscalls.recv(max_bytes=)": POSIX,
    "kernelos.kernel.Syscalls.recv_nb(max_bytes=)": POSIX,
    "libos.mtcp_shim.MtcpShim.recv(max_bytes=)": POSIX,
    "netstack.stack.NetStack.tcp_listen(recv_capacity=)": TESTS_ONLY,
    "sim.faults.FaultPlan.loss(dst=)": TESTS_ONLY,
    "sim.faults.FaultPlan.loss(src=)": TESTS_ONLY,
    "sim.trace.Tracer.__init__(keep_events=)": TESTS_ONLY,
    "sim.trace.Tracer.__init__(max_events=)": TESTS_ONLY,
    "sim.trace.Tracer.span(parent=)": TESTS_ONLY,
    "storage.log.LogStore.__init__(lba_count=)": TESTS_ONLY,
    "storage.log.LogStore.__init__(lba_start=)": TESTS_ONLY,
    "testbed.make_rdma_libos_pair(drop_rate=)": TESTS_ONLY,
    "testbed.make_rmem_world(seed=)": DEPLOYMENT,
    "testbed.make_sharded_kv_world(drop_rate=)": TESTS_ONLY,
    "testing.scenarios._replica_cluster(n_clients=)":
        TESTS_ONLY + ": a kv-replicated shape key",
    "testing.scenarios._sharded_server(cores=)":
        "row param: experiment specs set the kv-sharded and open-loop"
        "-sharded rows' cores",
    "testing.scenarios._sharded_server(protocol=)":
        "row param: experiments/protocol_slo.json sets it",
    "testing.scenarios.run_scenario(limit_ns=)": TESTS_ONLY,
}


def _params(fn):
    """``(name, position or None, has_default)`` of *fn*'s parameters,
    positions counted as a call passes them (without ``self``)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = 1 if positional and positional[0].arg in ("self", "cls") else 0
    n_required = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - first, i >= n_required
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg.arg, None, default is not None


class _Module(ast.NodeVisitor):
    """The functions, classes and calls of one module."""

    def __init__(self, module):
        self.module = module
        self.functions = []     # (key prefix, call name, node)
        self.classes = {}       # class name -> (base names, has __init__)
        self.calls = []         # (enclosing functions, class, call)
        self.tables = {}        # name bound to a {key: function} table
        self._scope = []        # enclosing ClassDef / FunctionDef nodes

    def visit_Assign(self, node):
        table = node.value
        if isinstance(table, ast.Subscript):
            table = table.value
        if isinstance(table, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.tables[target.id] = [
                        v.id for v in table.values if isinstance(v, ast.Name)]
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                 for b in node.bases]
        has_init = any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                       for s in node.body)
        self.classes[node.name] = (bases, has_init)
        self._scope.append(node)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node):
        qual = ".".join([s.name for s in self._scope] + [node.name])
        owner = self._scope[-1] if self._scope else None
        name = node.name
        if name == "__init__" and isinstance(owner, ast.ClassDef):
            name = owner.name
        self.functions.append(("%s.%s" % (self.module, qual), name, node))
        self._scope.append(node)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        functions = [s for s in self._scope if not isinstance(s, ast.ClassDef)]
        classes = [s for s in self._scope if isinstance(s, ast.ClassDef)]
        self.calls.append((functions, classes[-1] if classes else None, node))
        self.generic_visit(node)


def _callee(call, functions, cls, classes, tables):
    """The names a call may reach, and the arguments it passes them
    by position."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "partial" and call.args:
        func, args = call.args[0], call.args[1:]
    else:
        args = call.args
    if isinstance(func, ast.Subscript):
        func = func.value
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        names = classes.get(cls.name, ([], True))[0] if cls else []
    elif (isinstance(func, ast.Name) and func.id == "cls" and cls
          and functions and functions[-1].args.args
          and functions[-1].args.args[0].arg == "cls"):
        names = [cls.name]
    elif isinstance(func, ast.Name):
        names = tables.get(func.id, [func.id])
    elif isinstance(func, ast.Attribute):
        names = [func.attr]
    else:
        return [], args
    return [_resolve(name, classes) for name in names], args


def _resolve(name, classes):
    """A class without its own ``__init__`` runs its first base's."""
    seen = set()
    while name in classes and not classes[name][1] and name not in seen:
        seen.add(name)
        bases = classes[name][0]
        if not bases:
            break
        name = bases[0]
    return name


def knobs(sources, readers, allowed=()):
    """``{key: where}`` for every defaulted parameter in *sources*
    (module -> text) that no call in *readers* (module -> text) sets; a
    pass-through of an *allowed* knob counts as set."""
    parsed = {}
    for module, text in list(sources.items()) + list(readers.items()):
        if module not in parsed:
            visitor = _Module(module)
            visitor.visit(ast.parse(text))
            parsed[module] = visitor
    classes = {}
    for module in parsed.values():
        classes.update(module.classes)
    # knob table: call name -> [(key, param, position)]
    by_name, owned, where, call_name = {}, {}, {}, {}
    for module, visitor in parsed.items():
        for prefix, name, fn in visitor.functions:
            call_name[fn] = name
            if module not in sources:
                continue
            mine = owned[fn] = {}
            for param, position, has_default in _params(fn):
                if has_default:
                    key = "%s(%s=)" % (prefix, param)
                    by_name.setdefault(name, []).append((key, param, position))
                    where[key] = "%s:%d" % (module, fn.lineno)
                    mine[param] = key
    sites = []
    for module in readers:
        visitor = parsed[module]
        for functions, cls, call in visitor.calls:
            names, args = _callee(call, functions, cls, classes,
                                  visitor.tables)
            keywords = [(kw.arg, kw.value, functions)
                        for kw in call.keywords if kw.arg]
            spread = {kw.value.id for kw in call.keywords
                      if kw.arg is None and isinstance(kw.value, ast.Name)}
            sites.append((functions, names, _holder(call.func, functions),
                          args, keywords, spread))
    # one level of indirection: a function handed to a parameter by name
    # (``_testbed(make_kernel_pair)`` ... ``maker(seed=seed)``), and the
    # keywords a function gathers in its ``**kw`` and hands on
    handed, received = {}, {}
    for functions, names, _, args, keywords, _ in sites:
        for name in names:
            received.setdefault(name, []).extend(keywords)
            passed = list(enumerate(args)) + [(arg, value) for arg, value, _
                                              in keywords]
            for slot, value in passed:
                if isinstance(value, ast.Name):
                    handed.setdefault((name, slot), []).append(
                        (value.id, functions))
    # every (knob, condition) a reader call gives; condition None = set
    edges = []
    for functions, names, holder, args, keywords, spread in sites:
        if holder is not None:
            names = [_resolve(name, classes)
                     for name in _handed(holder, handed, call_name)]
        for fn in reversed(functions):
            if fn.args.kwarg is not None and fn.args.kwarg.arg in spread:
                keywords = keywords + received.get(call_name[fn], [])
                break
        n_pos = len(args)
        starred = any(isinstance(a, ast.Starred) for a in args)
        for name in names:
            for key, param, position in by_name.get(name, ()):
                values = [(v, context) for arg, v, context in keywords
                          if arg == param]
                if position is not None and (starred or position < n_pos):
                    values.append((None if starred else args[position],
                                   functions))
                for value, context in values:
                    condition = _condition(value, context, owned)
                    # f handing its own x on to a namesake does not set x
                    if condition != key:
                        edges.append((key, condition))
    set_, allowed = set(), set(allowed)
    changed = True
    while changed:
        changed = False
        for key, condition in edges:
            if key not in set_ and (condition is None or condition in set_
                                    or condition in allowed):
                set_.add(key)
                changed = True
    return {key: spot for key, spot in where.items() if key not in set_}


def _handed(holder, handed, call_name, seen=None):
    """The function names callers hand to a parameter, followed through
    parameters that hand on their own."""
    seen = set() if seen is None else seen
    if holder in seen:
        return
    seen.add(holder)
    fn, param = holder
    slots = [param] + [position for name, position, _ in _params(fn)
                       if name == param]
    for slot in slots:
        for name, functions in handed.get((call_name[fn], slot), ()):
            outer = _holder(ast.Name(name), functions)
            if outer is None:
                yield name
            else:
                yield from _handed(outer, handed, call_name, seen)


def _arguments(fn):
    return {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}


def _holder(func, functions):
    """``(function, parameter)`` when the callee is a parameter of an
    enclosing function, else None."""
    if isinstance(func, ast.Name) and func.id not in ("self", "cls"):
        for fn in reversed(functions):
            if func.id in _arguments(fn):
                return fn, func.id
    return None


def _condition(value, functions, owned):
    """The caller's own knob a value passes through, or None."""
    if isinstance(value, ast.Name):
        for fn in reversed(functions):
            if value.id in _arguments(fn):
                return owned.get(fn, {}).get(value.id)
    return None


def _module(path):
    rel = path.relative_to(SRC) if SRC in path.parents else path.relative_to(
        ROOT)
    return ".".join(rel.with_suffix("").parts)


def _texts(paths):
    return {_module(path): path.read_text() for path in paths}


def test_every_knob_in_src_is_set_by_a_caller():
    sources = _texts(sorted(SRC.rglob("*.py")))
    readers = _texts(sorted(p for root in READERS for p in root.rglob("*.py")))
    unset = knobs(sources, readers, ALLOWED)
    hits = ["%s: %s" % (spot, key) for key, spot in sorted(unset.items())
            if key not in ALLOWED]
    assert not hits, (
        "defaulted parameters no caller sets (make each a constant, or "
        "have a caller set it):\n" + "\n".join(hits))
    stale = sorted(set(ALLOWED) - set(unset))
    assert not stale, ("allowlisted knobs that a caller sets now, or "
                       "gone: drop them from ALLOWED: %s" % stale)


def test_the_lint_catches_an_unused_knob():
    planted = ("class Nic:\n"
               "    def __init__(self, host, mtu=1500, ring=256):\n"
               "        pass\n"
               "def make(host, mtu=9000):\n"
               "    return Nic(host, mtu=mtu)\n")
    assert set(knobs({"nic": planted}, {"nic": planted})) == {
        "nic.Nic.__init__(mtu=)", "nic.Nic.__init__(ring=)",
        "nic.make(mtu=)"}
    caller = "make(h, mtu=1500)\nNic(h, 1500, 64)\n"
    assert knobs({"nic": planted}, {"nic": planted, "app": caller}) == {}


def test_a_pass_through_counts_only_when_its_own_knob_is_set():
    planted = ("def inner(x, limit=4):\n"
               "    pass\n"
               "def outer(x, limit=4):\n"
               "    return inner(x, limit=limit)\n")
    assert set(knobs({"m": planted}, {"m": planted})) == {
        "m.inner(limit=)", "m.outer(limit=)"}
    assert knobs({"m": planted},
                 {"m": planted, "app": "outer(1, limit=8)\n"}) == {}


def test_a_handed_function_and_its_gathered_keywords_count():
    maker = "def make_pair(seed=42, drop_rate=0.0, costs=None):\n    pass\n"
    world = ("def testbed(maker, **fixed):\n"
             "    return maker(seed=1, **fixed)\n"
             "testbed(make_pair, drop_rate=0.5)\n")
    assert set(knobs({"t": maker}, {"t": maker, "w": world})) == {
        "t.make_pair(costs=)"}
