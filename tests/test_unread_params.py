"""No function in exlg takes a parameter that its body never reads.

Such a parameter is a hook that does nothing: callers pass it for no
effect, and a reader looks for an effect it does not have.  ``self`` and
``cls`` are exempt, and so are the ``...`` stubs of a ``Protocol``, which
only state a signature, and a name with a leading underscore: the mark of
a parameter that a fixed call signature requires and the body does not
need.
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
