"""Every public function and method of the library has a caller, every
private definition a reader, and every default a setter and a user.

A public module-level function or method of ``src/bdie2d`` must be named
somewhere in ``src/bdie2d/*.py`` or ``perfbench/*.py`` outside its own
definition: as a name, an attribute, or a word of a string constant (the
benchmark tracer patches methods by name).  Docstrings do not count, and
neither do the tests: an operator only its own test reaches is dead API.
A private module-level function, class or constant must be read by its
own module outside its definition, or named as an attribute by a module
of ``src/bdie2d``.  Every imported name, in the library and in the tests,
is used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "bdie2d").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _docstrings(tree):
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _references(node, docstrings):
    """Names, attributes and string-constant words used under ``node``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            refs.update(re.findall(r"\w+", sub.value))
    return refs


def _public_definitions(tree):
    """(qualified name, def node) of public module-level functions and
    public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_and_method_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    docstrings = {path: _docstrings(tree) for path, tree in trees.items()}
    refs = Counter()
    for path, tree in trees.items():
        refs.update(_references(tree, docstrings[path]))
    dead = []
    for path in LIBRARY:
        for qualname, node in _public_definitions(trees[path]):
            own = _references(node, docstrings[path])[node.name]
            if refs[node.name] - own == 0:
                dead.append(f"{path.stem}.{qualname}")
    assert not dead, "public API without a caller: " + ", ".join(dead)


def _private_definitions(tree):
    """(name, node) of the private module-level functions, classes and
    constants of ``tree``; the node is None for a constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found = [(sub.id, None) for target in targets
                     for sub in ast.walk(target) if isinstance(sub, ast.Name)]
        else:
            continue
        for name, sub in found:
            if name.startswith("_") and not name.startswith("__"):
                yield name, sub


def _loads(node):
    """Names read under ``node``."""
    return Counter(sub.id for sub in ast.walk(node)
                   if isinstance(sub, ast.Name)
                   and isinstance(sub.ctx, ast.Load))


def test_every_private_definition_is_read():
    trees = {path: ast.parse(path.read_text()) for path in LIBRARY}
    attributes = Counter(sub.attr for tree in trees.values()
                         for sub in ast.walk(tree)
                         if isinstance(sub, ast.Attribute))
    dead = []
    for path, tree in trees.items():
        reads = _loads(tree)
        for name, node in _private_definitions(tree):
            own = _loads(node)[name] if node is not None else 0
            if reads[name] - own + attributes[name] == 0:
                dead.append(f"{path.stem}.{name}")
    assert not dead, "private definitions nothing reads: " + ", ".join(dead)


def _unused_imports(tree):
    """Names bound by the imports of ``tree`` (other than __future__ ones)
    that no Name node reads: neither a name nor an attribute base."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path in LIBRARY + TESTS if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, "unused imports: " + ", ".join(unused)


# Defaulted parameters kept on purpose although no library or benchmark
# call passes them.
_SETTER_EXEMPT = {
    # the console entry point reads sys.argv; tests pass their own argv
    ("main", "argv"),
}


def _defaulted_parameters(tree):
    """(callee name, parameter name, positional index or None) of every
    defaulted parameter of the module-level functions and the methods of
    module-level classes of ``tree``; a method's index skips its ``self``
    and ``__init__`` is called by its class name."""
    defs = [(node.name, node, False) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [(node.name if item.name == "__init__" else item.name,
                      item, not any(isinstance(d, ast.Name)
                                    and d.id == "staticmethod"
                                    for d in item.decorator_list))
                     for item in node.body if isinstance(item, ast.FunctionDef)]
    for callee, node, bound in defs:
        args = node.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield callee, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None


def _calls(trees):
    """{callee name: [(positional count, keyword names)]} of every call,
    where a ``*`` argument passes every position and a ``**`` argument
    (keyword None) every keyword."""
    calls = {}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            count = (float("inf")
                     if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            calls.setdefault(name, []).append(
                (count, {k.arg for k in call.keywords}))
    return calls


def _passes(call, param, index):
    """Whether a call, as listed by _calls, passes the parameter."""
    count, keywords = call
    return (param in keywords or None in keywords
            or (index is not None and index < count))


def _defaulted_calls():
    """(module.callee(param=), callee, param, positional index or None,
    calls of the callee in src/bdie2d and perfbench) of every defaulted
    parameter of the library."""
    calls = _calls(ast.parse(path.read_text()) for path in CALLERS)
    for path in LIBRARY:
        for callee, param, index in _defaulted_parameters(
                ast.parse(path.read_text())):
            yield (f"{path.stem}.{callee}({param}=)", callee, param, index,
                   calls.get(callee, []))


def test_every_defaulted_parameter_has_a_setter():
    unset = [label for label, callee, param, index, calls in _defaulted_calls()
             if (callee, param) not in _SETTER_EXEMPT
             and not any(_passes(call, param, index) for call in calls)]
    assert not unset, "defaulted parameters nothing sets: " + ", ".join(unset)


# Defaulted parameters kept on purpose although every library and benchmark
# call passes them.
_USER_EXEMPT = {
    # a coefficient built outside the catalogue declares no support
    ("CoefficientField", "support_radius"),
}


def test_every_default_has_a_user():
    # the mirror of the setter check: a default that every call overrides
    # is a value no call relies on
    unused = [label for label, callee, param, index, calls
              in _defaulted_calls()
              if (callee, param) not in _USER_EXEMPT
              and all(_passes(call, param, index) for call in calls)]
    assert not unused, "defaults no call relies on: " + ", ".join(unused)


def test_every_exemption_names_a_defaulted_parameter():
    # an exemption outliving its default would hide the next one
    defaulted = {(callee, param)
                 for _, callee, param, _, _ in _defaulted_calls()}
    stale = sorted((_SETTER_EXEMPT | _USER_EXEMPT) - defaulted)
    assert not stale, f"exemptions naming no defaulted parameter: {stale}"
