"""README's lists of CLI flags and instance options match the program, and
the README and the source name no code that is gone: a code span
``module.name`` or ``Exported.attr`` must resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

import hsmult
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
