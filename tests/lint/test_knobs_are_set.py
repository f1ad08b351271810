"""Lint: a parameter exists where a caller sets it.

A defaulted parameter of a function in ``src/repro`` is a knob: each one
doubles the configurations the golden pins, the chaos battery and
perfbench are meant to cover.  A knob that no call in ``src/``,
``perfbench/``, ``benchmarks/`` or ``examples/`` sets has one value in
use, so it is a constant: make it a module constant or a plain local and
drop its plumbing.

A call sets a knob by keyword, or by position past the required
parameters.  A method call reaches the methods of its receiver's class
wherever the AST names that class: a parameter's annotation, a local
bound from ``Class(...)``, ``self.<attr>`` bound from either in the
class's family, ``Class(...).f(...)`` itself, or an imported stdlib
module (``struct.unpack(...)`` reaches nothing here).  The receiver's
class reaches its own or inherited method and every subclass's override.
Where the receiver cannot be resolved, calls are matched by name alone
(``f(...)``, ``obj.f(...)``, ``Class(...)`` for ``Class.__init__``,
including a subclass that inherits it, ``super().__init__(...)`` for the
bases, ``cls(...)`` in a classmethod, ``partial(f, ...)`` and a
``{key: f}`` table), which errs towards "set".  One level of indirection
is followed: a function handed to a parameter by name and called through
it, and the keywords a function gathers in ``**kw`` and hands on.  A
pass-through - a caller's own defaulted parameter handed on by name,
``f(x=x)`` - sets ``f``'s ``x`` only when the caller's ``x`` is set
itself (or allowed).

The one exception is :data:`ALLOWED`, each entry with its reason: a
deployment setting (port, address, path, name), the shape of a Figure-3
or POSIX call, a scenario row's param that experiment specs set, a knob
set through ``**kw``, or one a tier-1 test needs for a claim no reader
drives yet.  The map only shrinks - an entry that is set now, or gone,
fails too.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
#: where a call counts as a caller: the program and what it ships
READERS = [ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks",
           ROOT / "examples"]

DEPLOYMENT = "deployment: where it runs, not how it behaves"
FIGURE_3 = "Figure-3 call shape: the application's argument"
POSIX = "POSIX call shape: the application's argument"
IOMMU = ("C7: the model's only IOMMU check of a transmit's source, which"
         " tier-1 drives; wiring it from a libOS moves IOMMU counters")

#: ``module.Qual.name(param=)`` -> why a knob no reader call sets stays
ALLOWED = {
    "apps.echo.posix_echo_client(port=)": DEPLOYMENT,
    "apps.echo.posix_echo_server(port=)": DEPLOYMENT,
    "apps.kvstore.posix_kv_client(port=)": DEPLOYMENT,
    "apps.kvstore.posix_kv_server(port=)": DEPLOYMENT,
    "apps.storelog.demi_log_writer(path=)": DEPLOYMENT,
    "apps.storelog.posix_log_writer(path=)": DEPLOYMENT,
    "cluster.shard.ShardProtoServer.__init__(codec_factory=)":
        "**kw: make_sharded_kv_world(server_kwargs=) sets it",
    "core.api.LibOS.queue(capacity=)": FIGURE_3,
    "core.api.LibOS.wait_all(timeout_ns=)": FIGURE_3,
    "hw.nic._EthernetNic.post_tx(dma_addrs=)": IOMMU,
    "kernelos.kernel.Syscalls.epoll_wait(max_events=)": POSIX,
    "kernelos.kernel.Syscalls.recv(max_bytes=)": POSIX,
    "kernelos.kernel.Syscalls.recv_nb(max_bytes=)": POSIX,
    "libos.mtcp_shim.MtcpShim.recv(max_bytes=)": POSIX,
    "rdma.verbs.QueuePair.post_send(addr=)": IOMMU,
    "rdma.verbs.QueuePair.post_write(addr=)": IOMMU,
    "testing.scenarios._replica_cluster(n_clients=)":
        "tests-only: a kv-replicated shape key; the crash-instant sweep"
        " runs one client and two",
    "testing.scenarios._sharded_server(cores=)":
        "row param: experiment specs set the kv-sharded and open-loop"
        "-sharded rows' cores",
    "testing.scenarios._sharded_server(protocol=)":
        "row param: experiments/protocol_slo.json sets it",
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


#: a receiver of one of these types reaches no method of ours
BUILTIN_TYPES = {"bool", "bytearray", "bytes", "dict", "float", "frozenset",
                 "int", "list", "memoryview", "set", "str", "tuple"}


class _Module(ast.NodeVisitor):
    """The functions, classes, calls and attribute bindings of one
    module."""

    def __init__(self, module):
        self.module = module
        self.functions = []     # (key prefix, call name, owner class, node)
        self.classes = {}       # class name -> (base names, has __init__)
        self.methods = {}       # class name -> its methods' names
        self.calls = []         # (enclosing functions, class, call)
        self.tables = {}        # name bound to a {key: function} table
        self.stdlib = set()     # names an import binds to a stdlib module
        self.attrs = {}         # (class, attr) -> [(kind, expr, functions)]
        self.foreign = set()    # attrs assigned on a receiver other than self
        self._scope = []        # enclosing ClassDef / FunctionDef nodes

    def visit_Import(self, node):
        for alias in node.names:
            top = alias.name.split(".")[0]
            if top in sys.stdlib_module_names:
                self.stdlib.add(alias.asname or top)

    def visit_Assign(self, node):
        table = node.value
        if isinstance(table, ast.Subscript):
            table = table.value
        if isinstance(table, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.tables[target.id] = [
                        v.id for v in table.values if isinstance(v, ast.Name)]
        for target in node.targets:
            self._bind(target, "value", node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._bind(node.target, "annotation", node.annotation)
        self.generic_visit(node)

    def _bind(self, target, kind, expr):
        """Note an attribute binding: ``self.<attr>`` in a method of its
        class, or any other receiver's (which makes the name unknown)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for each in target.elts:
                self._bind(each, "value", None)
        elif isinstance(target, ast.Attribute):
            functions = [s for s in self._scope
                         if not isinstance(s, ast.ClassDef)]
            owner = _method_class(self._scope)
            if getattr(target.value, "id", None) == "self" and owner:
                self.attrs.setdefault((owner, target.attr), []).append(
                    (kind, expr, functions))
            else:
                self.foreign.add(target.attr)

    def visit_ClassDef(self, node):
        bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                 for b in node.bases]
        has_init = any(isinstance(s, ast.FunctionDef) and s.name == "__init__"
                       for s in node.body)
        self.classes[node.name] = (bases, has_init)
        self.methods[node.name] = {
            s.name for s in node.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))}
        self._scope.append(node)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node):
        qual = ".".join([s.name for s in self._scope] + [node.name])
        owner = self._scope[-1] if self._scope else None
        name = node.name
        owner = owner.name if isinstance(owner, ast.ClassDef) else None
        if name == "__init__" and owner:
            name = owner
        self.functions.append(("%s.%s" % (self.module, qual), name, owner,
                               node))
        self._scope.append(node)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        functions = [s for s in self._scope if not isinstance(s, ast.ClassDef)]
        classes = [s.name for s in self._scope if isinstance(s, ast.ClassDef)]
        self.calls.append((functions, classes[-1] if classes else None, node))
        self.generic_visit(node)


def _method_class(scope):
    """The class whose method (or a function nested in it) *scope* is
    in, when that method takes ``self``; else None."""
    for outer, inner in zip(reversed(scope[:-1]), reversed(scope[1:])):
        if isinstance(outer, ast.ClassDef):
            args = getattr(inner, "args", None)
            if args and args.args and args.args[0].arg == "self":
                return outer.name
            return None
    return None


def _bindings(fn, name):
    """``(kind, expr)`` for every binding of *name* in *fn*: a parameter
    (its annotation), an assignment (its value); expr None where the
    binding names nothing (a loop target, an unpacking, no annotation)."""
    out = [("annotation", arg.annotation) for arg in ast.walk(fn.args)
           if isinstance(arg, ast.arg) and arg.arg == name]
    simple = {}
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            simple[node.targets[0]] = ("value", node.value)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            simple[node.target] = ("annotation", node.annotation)
    for node in ast.walk(fn):
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Store)):
            out.append(simple.get(node, ("value", None)))
    return out


class _Receivers:
    """The class of a call's receiver, wherever the AST names it."""

    def __init__(self, parsed):
        self.classes, self.methods, self.attrs = {}, {}, {}
        self.foreign = set()
        for visitor in parsed.values():
            self.classes.update(visitor.classes)
            for name, methods in visitor.methods.items():
                self.methods.setdefault(name, set()).update(methods)
            for key, bindings in visitor.attrs.items():
                self.attrs.setdefault(key, []).extend(bindings)
            self.foreign |= visitor.foreign
        self.children = {}
        for name, (bases, _) in self.classes.items():
            for base in bases:
                self.children.setdefault(base, []).append(name)

    def of(self, node, functions, cls, stdlib, depth=0):
        """The class names *node* is an instance of, or None."""
        if depth > 4:
            return None
        if isinstance(node, ast.Constant):
            return {type(node.value).__name__}
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            known = name in self.classes or name in BUILTIN_TYPES
            return {name} if known else None
        if isinstance(node, ast.Name):
            if node.id == "self" and cls:
                return {cls}
            for i in range(len(functions), 0, -1):
                bindings = _bindings(functions[i - 1], node.id)
                if bindings:
                    return self._union(bindings, functions[:i], cls, stdlib,
                                       depth)
            return set() if node.id in stdlib else None
        if isinstance(node, ast.Attribute) and node.attr not in self.foreign:
            owners = self.of(node.value, functions, cls, stdlib, depth + 1)
            out = set()
            for member in {m for c in owners or () for m in self._family(c)}:
                for kind, expr, context in self.attrs.get(
                        (member, node.attr), ()):
                    got = self._union([(kind, expr)], context, member,
                                      stdlib, depth)
                    if got is None:
                        return None
                    out |= got
            return out or None
        return None

    def _union(self, bindings, functions, cls, stdlib, depth):
        out = set()
        for kind, expr in bindings:
            got = (self._annotated(expr) if kind == "annotation"
                   else None if expr is None
                   else self.of(expr, functions, cls, stdlib, depth + 1))
            if got is None:
                return None
            out |= got
        return out

    def _annotated(self, annotation):
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        if (isinstance(annotation, ast.Subscript)
                and getattr(annotation.value, "id", None) == "Optional"):
            annotation = annotation.slice
        name = (annotation.id if isinstance(annotation, ast.Name)
                else getattr(annotation, "attr", None))
        known = name in self.classes or name in BUILTIN_TYPES
        return {name} if known else None

    def _ancestors(self, name):
        order, queue = [], [name]
        while queue:
            name = queue.pop(0)
            if name in self.classes and name not in order:
                order.append(name)
                queue.extend(self.classes[name][0])
        return order

    def _descendants(self, name):
        order, queue = [], list(self.children.get(name, ()))
        while queue:
            name = queue.pop(0)
            if name not in order:
                order.append(name)
                queue.extend(self.children.get(name, ()))
        return order

    def _family(self, name):
        return self._ancestors(name) + self._descendants(name)

    def owners(self, receiver, method):
        """The classes whose *method* a call on *receiver* (class names)
        may run - the one it inherits and every override below it - or
        None when one of them has no such method here."""
        owners = set()
        for name in receiver:
            if name not in self.classes:
                continue  # a builtin or a stdlib module: none of ours
            up = [c for c in self._ancestors(name)
                  if method in self.methods[c]][:1]
            down = [c for c in self._descendants(name)
                    if method in self.methods[c]]
            if not up and not down:
                return None
            owners.update(up + down)
        return owners


def _callee(call, functions, cls, classes, tables, receivers, stdlib):
    """The names a call may reach, the classes whose methods they must
    be (None: any function of that name), and the arguments it passes
    them by position."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "partial" and call.args:
        func, args = call.args[0], call.args[1:]
    else:
        args = call.args
    if isinstance(func, ast.Subscript):
        func = func.value
    owners = None
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        names = classes.get(cls, ([], True))[0] if cls else []
    elif (isinstance(func, ast.Name) and func.id == "cls" and cls
          and functions and functions[-1].args.args
          and functions[-1].args.args[0].arg == "cls"):
        names = [cls]
    elif isinstance(func, ast.Name):
        names = tables.get(func.id, [func.id])
    elif isinstance(func, ast.Attribute):
        names = [func.attr]
        receiver = receivers.of(func.value, functions, cls, stdlib)
        if receiver is not None:
            owners = receivers.owners(receiver, func.attr)
    else:
        return [], owners, args
    return [_resolve(name, classes) for name in names], owners, args


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
    receivers = _Receivers(parsed)
    classes = receivers.classes
    # knob table: call name -> [(key, param, position, owner class)]
    by_name, owned, where, call_name = {}, {}, {}, {}
    for module, visitor in parsed.items():
        for prefix, name, owner, fn in visitor.functions:
            call_name[fn] = name
            if module not in sources:
                continue
            mine = owned[fn] = {}
            for param, position, has_default in _params(fn):
                if has_default:
                    key = "%s(%s=)" % (prefix, param)
                    by_name.setdefault(name, []).append(
                        (key, param, position, owner))
                    where[key] = "%s:%d" % (module, fn.lineno)
                    mine[param] = key
    sites = []
    for module in readers:
        visitor = parsed[module]
        for functions, cls, call in visitor.calls:
            names, owners, args = _callee(call, functions, cls, classes,
                                          visitor.tables, receivers,
                                          visitor.stdlib)
            keywords = [(kw.arg, kw.value, functions)
                        for kw in call.keywords if kw.arg]
            spread = {kw.value.id for kw in call.keywords
                      if kw.arg is None and isinstance(kw.value, ast.Name)}
            sites.append((functions, names, owners,
                          _holder(call.func, functions), args, keywords,
                          spread))
    # one level of indirection: a function handed to a parameter by name
    # (``_testbed(make_kernel_pair)`` ... ``maker(seed=seed)``), and the
    # keywords a function gathers in its ``**kw`` and hands on
    handed, received = {}, {}
    for functions, names, _, _, args, keywords, _ in sites:
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
    for functions, names, owners, holder, args, keywords, spread in sites:
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
            for key, param, position, owner in by_name.get(name, ()):
                if owners is not None and owner not in owners:
                    continue
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


def test_a_same_name_call_on_another_receiver_sets_nothing():
    # Two knobs whose names other callees share, passed positionally only
    # through a receiver of that other class or through a stdlib module.
    planted = ("import struct\n"
               "class Packet:\n"
               "    @classmethod\n"
               "    def unpack(cls, raw, verify=True):\n"
               "        pass\n"
               "class Qp:\n"
               "    def post_send(self, payload, wr_id=None):\n"
               "        pass\n"
               "class Nic:\n"
               "    def post_send(self, qp, wr_id, payload):\n"
               "        pass\n"
               "class Verbs:\n"
               "    def __init__(self, nic: Nic):\n"
               "        self.nic = nic\n"
               "        self.spare = Nic()\n"
               "    def send(self, qp, payload):\n"
               "        self.nic.post_send(qp, 1, payload)\n"
               "        self.spare.post_send(qp, 2, payload)\n"
               "        Nic().post_send(qp, 3, payload)\n"
               "        return struct.unpack('!I', payload)\n"
               "def send(nic: 'Nic', qp, payload):\n"
               "    local = Nic()\n"
               "    local.post_send(qp, 4, payload)\n"
               "    nic.post_send(qp, 5, payload)\n")
    assert set(knobs({"m": planted}, {"m": planted})) == {
        "m.Packet.unpack(verify=)", "m.Qp.post_send(wr_id=)"}
    # A receiver the AST does not name a class for is matched by name.
    caller = ("def go(x, raw):\n"
              "    x.post_send(raw, 7)\n"
              "    x.unpack(raw, False)\n")
    assert knobs({"m": planted}, {"m": planted, "app": caller}) == {}


def test_a_receiver_reaches_its_own_method_and_the_overrides_below():
    planted = ("class Base:\n"
               "    def run(self, n=1):\n"
               "        pass\n"
               "class Child(Base):\n"
               "    def run(self, n=1):\n"
               "        pass\n"
               "class Grandchild(Child):\n"
               "    pass\n"
               "class Other:\n"
               "    def run(self, n=1):\n"
               "        pass\n"
               "def go(b: Base, g: Grandchild):\n"
               "    b.run(2)\n"
               "    g.run(3)\n")
    assert set(knobs({"m": planted}, {"m": planted})) == {"m.Other.run(n=)"}
