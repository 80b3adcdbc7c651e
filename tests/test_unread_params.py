"""No function in exlg takes a parameter that its body never reads, and
no private module-level name goes unread.

Such a parameter is a hook that does nothing: callers pass it for no
effect, and a reader looks for an effect it does not have.  ``self`` and
``cls`` are exempt, and so are the ``...`` stubs of a ``Protocol``, which
only state a signature, and a name with a leading underscore: the mark of
a parameter that a fixed call signature requires and the body does not
need.  A private function, class or constant that nothing in the package
loads outside its own definition is dead code left behind by a refactor.
"""

import ast
import pathlib
import textwrap

import exlg

SRC = pathlib.Path(exlg.__file__).parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCS = _DEFS + (ast.Lambda,)


def _is_stub(fn):
    """A body of ``...`` alone, after an optional docstring."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and body[0].value.value is Ellipsis)


def _protocol_stubs(tree):
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(b).split(".")[-1] == "Protocol"
                for b in cls.bases):
            yield from (fn for fn in cls.body
                        if isinstance(fn, _DEFS) and _is_stub(fn))


def _unread_params(tree):
    """(line, function, parameter) for every parameter other than self,
    cls and _-prefixed names that no Name in its function's body loads;
    reads in a nested function count."""
    skip = set(map(id, _protocol_stubs(tree)))
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCS) or id(fn) in skip:
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        yield from ((fn.lineno, name, p) for p in params
                    if p not in ("self", "cls") and not p.startswith("_")
                    and p not in read)


def test_every_parameter_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}({param})"
                  for line, name, param in _unread_params(tree)]
    assert not found


def _private_defs(stmt):
    """The private (single-underscore) names a module-level statement
    defines as a function, class or constant."""
    if isinstance(stmt, _DEFS + (ast.ClassDef,)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _loads(stmt):
    """Every name a statement reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _unread_privates(modules):
    """(module, name) for every private module-level name of ``modules``
    ({name: source}) that no other module-level statement of any of them
    loads."""
    stmts = [(mod, stmt) for mod, src in modules.items()
             for stmt in ast.parse(src).body]
    loads = [_loads(stmt) for _, stmt in stmts]
    return [(mod, name) for i, (mod, stmt) in enumerate(stmts)
            for name in _private_defs(stmt)
            if not any(name in read for j, read in enumerate(loads)
                       if j != i)]


def test_every_private_name_is_read():
    assert not _unread_privates({path.name: path.read_text()
                                 for path in sorted(SRC.glob("*.py"))})


def test_scan_flags_unread_privates():
    found = _unread_privates({"a.py": textwrap.dedent('''
        import numpy as np
        _USED = 1
        _STRAY: int = 2
        __all__ = ["f"]
        def _recursive(n):
            return _recursive(n - 1) if n else _USED
        def _helper():
            return np.zeros(_USED)
        class _Spec:
            pass
    '''), "b.py": textwrap.dedent('''
        from . import a
        def f():
            return a._helper(), a._Spec
    ''')})
    assert found == [("a.py", "_STRAY"), ("a.py", "_recursive")]


def test_scan_flags_unread_and_skips_protocol_stubs():
    tree = ast.parse(textwrap.dedent('''
        from typing import Protocol
        class P(Protocol):
            def stub(self, x): ...
            def documented(self, y):
                """A stub with a docstring."""
                ...
        class C:
            def stub(self, z): ...
            def method(self, used, unused, *args, **kw):
                return used
        def outer(a, b, c=1):
            def inner(d):
                return a + d
            g = lambda e, f, _h: e
            return inner
    '''))
    assert sorted(p for _, _, p in _unread_params(tree)) == [
        "args", "b", "c", "f", "kw", "unused", "z"]
