"""Source layout: no private imports across modules, no callerless code,
no unused option, no constant passed as an argument, no unread field, no
unused import, no lambda that drops an argument, no keyword argument to a
cached function, no process environment outside the entry point.

Shared helpers get a public name in the module that owns them; a leading
underscore means "used only in this module".  Every definition in the
package has a caller in the package: code that only tests use lives in the
tests.  Every default is overridden by some call in the package; one that
no call overrides is a constant, and so is a required parameter that
every call passes the same literal.  Every dataclass field is read somewhere
in the package.  Every module uses what it imports.  Every lambda reads
each of its parameters.  A cached function is called positionally.  Only the command-line module reads or writes the
process environment: importing the library changes nothing process-wide.
The rules are checked on the syntax tree of every package module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import toda_bo

PACKAGE = Path(toda_bo.__file__).parent


def parsed_modules() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def test_no_private_imports_across_modules():
    offenders = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("toda_bo"):
                continue
            offenders += [
                f"{name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def test_every_definition_has_a_caller_in_the_package():
    # a reference is a Name, an Attribute or an import alias with the
    # definition's name, anywhere in the package outside the definition's
    # own lines; methods match by name alone, so this errs towards passing
    modules = parsed_modules()
    defs, refs = [], []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (name, f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((name, node.name, node.lineno))
    callerless = [
        f"{name}:{node.lineno} {qualname}"
        for name, qualname, node in defs
        if not any(
            ref == node.name
            and (where != name or not node.lineno <= line <= node.end_lineno)
            for where, ref, line in refs
        )
    ]
    assert callerless == []


def _is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(d).startswith("dataclass") for d in node.decorator_list
    )


def _defaulted(tree: ast.Module):
    """(call name, parameter, positional index or None, default source, def)
    for every defaulted parameter of a def and every defaulted dataclass
    field.

    A method is called through an attribute of that name, __init__ and a
    dataclass through the class name; the positional index leaves out
    self/cls, and keyword-only parameters have none."""
    methods = {
        id(sub): cls
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for sub in cls.body
        if isinstance(sub, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            cls = methods.get(id(node))
            call = cls.name if cls and node.name == "__init__" else node.name
            static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
            skip = 1 if cls and not static else 0
            args = node.args.posonlyargs + node.args.args
            first = len(args) - len(node.args.defaults)
            for index, default in enumerate(node.args.defaults, first):
                yield call, args[index].arg, index - skip, ast.unparse(default), node
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield call, arg.arg, None, ast.unparse(default), node
        elif _is_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            for index, f in enumerate(fields):
                if f.value is not None:
                    yield node.name, f.target.id, index, ast.unparse(f.value), f


def _entry_points() -> set[tuple[str, str]]:
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    targets = [
        line.split("=", 1)[1].strip().strip('"')
        for line in section.splitlines()
        if "=" in line
    ]
    return {
        (module.rsplit(".", 1)[-1] + ".py", func)
        for module, func in (t.split(":") for t in targets)
    }


def test_every_defaulted_parameter_is_passed_by_a_caller_in_the_package():
    # a default that no call in the package overrides is a constant in
    # disguise; a call that passes the default's own expression (the same
    # source text) overrides nothing.  The console-script entry point's
    # parameters are its only outside callers
    modules = parsed_modules()
    calls = []
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                args = [ast.unparse(a) for a in node.args]
                kws = {k.arg: ast.unparse(k.value) for k in node.keywords}
                calls.append((name, args, kws))

    def passed(args, kws, index, param):
        if index is not None and len(args) > index:
            return args[index]
        return kws.get(param)

    entry = _entry_points()
    assert entry, "pyproject.toml names no console script"
    unset = [
        f"{name}:{node.lineno} {call}({param}={default})"
        for name, tree in modules.items()
        for call, param, index, default, node in _defaulted(tree)
        if (name, call) not in entry
        and not any(
            c == call and passed(args, kws, index, param) not in (None, default)
            for c, args, kws in calls
        )
    ]
    assert unset == []


def test_no_required_parameter_is_always_passed_one_literal():
    # a required parameter that every call in the package passes as the
    # same literal (a string, a number, None) is a constant in disguise.
    # Judged are the module-level functions the package only calls by name:
    # a function handed on (to partial, a table) or reached through an
    # attribute may be called with arguments the syntax tree does not show,
    # and a method's calls go through objects whose class it does not show
    modules = parsed_modules()
    calls, handed_on = {}, set()
    for tree in modules.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.setdefault(node.func.id, []).append(node)
                callees.add(id(node.func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in callees:
                handed_on.add(node.id)
            elif isinstance(node, ast.Attribute):
                handed_on.add(node.attr)

    def passed(call, index, param):
        # the literal's source, or None when the argument is not one literal
        if any(k.arg is None for k in call.keywords):
            return None
        if index is not None and any(
            isinstance(a, ast.Starred) for a in call.args[: index + 1]
        ):
            return None
        if index is not None and len(call.args) > index:
            value = call.args[index]
        else:
            value = next((k.value for k in call.keywords if k.arg == param), None)
        return ast.unparse(value) if isinstance(value, ast.Constant) else None

    constant = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in handed_on:
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            required = list(enumerate(positional[: len(positional) - len(a.defaults)]))
            required += [
                (None, arg)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                if default is None
            ]
            for index, arg in required:
                values = {passed(c, index, arg.arg) for c in calls.get(node.name, [])}
                if len(values) == 1 and None not in values:
                    where = f"{name}:{node.lineno}"
                    constant.append(f"{where} {node.name}({arg.arg}={values.pop()})")
    assert constant == []


def test_every_dataclass_field_is_read():
    # a read is an attribute load with the field's name anywhere in the
    # package; a load passed straight to its own class's constructor only
    # copies the field, so it does not count.  Fields match by name alone,
    # so this errs towards passing
    fields, loads = [], []
    for name, tree in parsed_modules().items():
        copied_into = {
            id(arg): getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for arg in node.args + [k.value for k in node.keywords]
        }
        for node in ast.walk(tree):
            if _is_dataclass(node):
                fields += [
                    (f"{name}:{sub.lineno}", node.name, sub.target.id)
                    for sub in node.body
                    if isinstance(sub, ast.AnnAssign)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((node.attr, copied_into.get(id(node))))
    unread = [
        f"{where} {cls}.{field}"
        for where, cls, field in fields
        if not any(attr == field and into != cls for attr, into in loads)
    ]
    assert unread == []


def test_every_import_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_no_lambda_discards_a_parameter():
    # a lambda that ignores an argument adapts a call to a signature that
    # asks for more than its callee needs; the callee, or a partial, is the
    # plainer form
    discarded = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Lambda):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [x for x in (a.vararg, a.kwarg) if x is not None]
            read = {n.id for n in ast.walk(node.body) if isinstance(n, ast.Name)}
            discarded += [
                f"{name}:{node.lineno} {p.arg}" for p in params if p.arg not in read
            ]
    assert discarded == []


def _callee(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_cached_function_gets_a_keyword_argument():
    # an lru_cache key holds the arguments as passed, so f(ctx, "-") and
    # f(ctx, sign="-") are two keys and the second call builds the value
    # again; so is a functools.partial that binds a keyword of f
    modules = parsed_modules()
    cached = {
        node.name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            ast.unparse(d).split("(")[0].rsplit(".", 1)[-1] in ("lru_cache", "cache")
            for d in node.decorator_list
        )
    }
    assert cached
    offenders = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.keywords:
                continue
            func = node.func
            if _callee(func) == "partial" and node.args:
                func = node.args[0]
            if _callee(func) in cached:
                offenders.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_only_the_entry_point_touches_the_environment():
    # os.environ and its accessors, reached as os.<name> or imported from os
    names = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    entry = {module for module, _ in _entry_points()}
    assert entry == {"cli.py"}
    touches = []
    for name, tree in parsed_modules().items():
        if name in entry:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                touches.append(f"{name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                touches += [
                    f"{name}:{node.lineno} from os import {alias.name}"
                    for alias in node.names
                    if alias.name in names
                ]
    assert touches == []
