"""README's lists of CLI flags and instance options match the program."""

import re
from pathlib import Path

from hsmult.cli import build_arg_parser
from hsmult.instance import DEFAULT_OPTIONS

README = (Path(__file__).parent.parent / "README.md").read_text()


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
