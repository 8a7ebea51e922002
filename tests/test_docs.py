"""README's lists of CLI flags and instance options match the program, and
the README and the source name no code that is gone: a code span
``module.name`` or ``Exported.attr`` must resolve, and so must a bare
identifier span (see ``_known_names``)."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hsmult
from hsmult import instance
from hsmult.cli import build_arg_parser
from hsmult.instance import DEFAULT_OPTIONS

README = (Path(__file__).parent.parent / "README.md").read_text()
SOURCES = sorted(Path(hsmult.__file__).parent.glob("*.py"))
MODULES = {m.name for m in pkgutil.iter_modules(hsmult.__path__)}


def _paragraph(start):
    """The README paragraph that begins with start."""
    match = re.search(rf"^{re.escape(start)}.*?(?=\n\n)", README, re.M | re.S)
    assert match, f"README has no paragraph beginning {start!r}"
    return match.group(0)


def test_readme_flags_match_the_parser():
    documented = re.findall(r"`(--[a-z-]+)", _paragraph("Flags:"))
    parsed = [
        flag
        for action in build_arg_parser()._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    ]
    assert sorted(documented) == sorted(parsed)


def test_readme_options_match_default_options():
    listed = _paragraph("Options:").split(".")[0]
    assert sorted(re.findall(r"`([a-z_]+)`", listed)) == sorted(DEFAULT_OPTIONS)


def _module_references(text, ticks):
    """(owner, name) for each code span, opened by ticks backticks, that
    begins with an hsmult module name or a name the package exports (a
    class such as ``ExactMatrix``), a dot and a name."""
    spans = re.findall(rf"(?<!`){ticks}([A-Za-z_]\w*)\.([A-Za-z_]\w*)", text)
    return [(m, n) for m, n in spans if m in MODULES or m in hsmult.__all__]


def _owner(m):
    return importlib.import_module(f"hsmult.{m}") if m in MODULES else getattr(hsmult, m)


def _unresolved(refs):
    return [f"{m}.{n}" for m, n in refs if not hasattr(_owner(m), n)]


def test_readme_module_references_resolve():
    refs = _module_references(README, "`")
    assert len(refs) >= 6
    assert len([m for m, _ in refs if m not in MODULES]) >= 2
    assert _unresolved(refs) == []


def test_source_module_references_resolve():
    refs = {
        path.name: _module_references(path.read_text(), "``") for path in SOURCES
    }
    assert sum(map(len, refs.values())) >= 10
    assert {name: _unresolved(r) for name, r in refs.items() if _unresolved(r)} == {}


def _known_names():
    """The attributes of every hsmult module, the package included; the
    attributes, slots and dataclass fields of every class defined in the
    package; and the builtins."""
    names = set(dir(builtins))
    for m in [hsmult] + [_owner(m) for m in sorted(MODULES)]:
        names.update(dir(m))
        for obj in vars(m).values():
            if inspect.isclass(obj) and obj.__module__.startswith("hsmult"):
                names.update(dir(obj), getattr(obj, "__slots__", ()))
                if dataclasses.is_dataclass(obj):
                    names.update(f.name for f in dataclasses.fields(obj))
    return names


def _parameters(text):
    """The parameter names of every function and lambda in a source text."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            out.update(x.arg for x in a.posonlyargs + a.args + a.kwonlyargs)
            out.update(x.arg for x in (a.vararg, a.kwarg) if x)
    return out


def _bare_spans(text, ticks):
    """The code spans, opened by ticks backticks, that are one identifier."""
    return set(re.findall(rf"(?<!`){ticks}([A-Za-z_]\w*){ticks}(?!`)", text))


def test_source_bare_references_resolve():
    """A bare ``name`` in a source file is a name of the package, a builtin,
    or a parameter of a function in that file."""
    known = _known_names()
    spans = {path.name: _bare_spans(path.read_text(), "``") for path in SOURCES}
    assert sum(map(len, spans.values())) >= 50
    unresolved = {
        path.name: sorted(spans[path.name] - known - _parameters(path.read_text()))
        for path in SOURCES
    }
    assert {name: u for name, u in unresolved.items() if u} == {}


def test_readme_bare_references_resolve():
    """A bare `name` with an underscore in README resolves as in the source,
    to a parameter of any package function, or is an instance key or option."""
    known = _known_names() | set(DEFAULT_OPTIONS) | set(instance._KEYS)
    known |= set(instance._TEXT_KEYS) | set(instance._ALIASES)
    for path in SOURCES:
        known |= _parameters(path.read_text())
    spans = {s for s in _bare_spans(README, "`") if "_" in s}
    assert len(spans) >= 10
    assert sorted(spans - known) == []
