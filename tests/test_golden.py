"""CLI reports compared byte for byte with the recorded ones.

``fixtures/golden/<command>/<fixture>`` holds the output of
``hsmult <command> fixtures/<fixture> [EXPR] --json --no-timing``.  Refactors
of the engine must leave these bytes unchanged: they include the e values, the
PolyList/MatList certificates and the reductions.  A fixture has several
``member`` goldens, ``<fixture>@<case>``, one per element in MEMBER_CASES.
"""

import json

import pytest

from hsmult.cli import main, run_command
from hsmult.instance import parse_instance
from tests.conftest import FIXTURES

GOLDEN = FIXTURES / "golden"

# member golden -> (element, verdict, e); the verdicts and e values are the
# ones the generic multiplicity comparison gave when each golden was recorded
MEMBER_CASES = {
    "example3.json": ("x", False, 10),
    "example3.json@xz": ("x*z", True, 10),
    "example3.json@x2xy": ("x^2 + x*y", True, 10),
    "example1_gf32003.json@x": ("x", False, 5),
    "example1_gf32003.json@x3y2": ("x^3 + 5*y^2", True, 5),
    "series_geometric.json@x": ("x", False, 2),
    "series_geometric.json@y": ("y", True, 2),
}


def _report(capsys, command, fixture, *extra):
    code = main([command, str(FIXTURES / fixture), *extra, "--json", "--no-timing"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "case", sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.glob("*/*"))
)
def test_report_matches_golden(case, capsys):
    command, name = case.split("/")
    extra = [MEMBER_CASES[name][0]] if command == "member" else []
    code, out = _report(capsys, command, name.split("@")[0], *extra)
    assert code == 0
    assert out.encode() == (GOLDEN / case).read_bytes()


@pytest.mark.parametrize("name", sorted(MEMBER_CASES))
def test_member_goldens_keep_verdict_and_e(name):
    element, member, e = MEMBER_CASES[name]
    result = json.loads((GOLDEN / "member" / name).read_bytes())["result"]
    assert (result["element"], result["member"], result["e"]) == (element, member, e)


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.iterdir() if p.is_file())
)
def test_reduce_generators_have_colength_e(fixture, capsys):
    code, out = _report(capsys, "reduce", fixture)
    assert code == 0
    report = json.loads(out)
    assert (GOLDEN / "reduce" / fixture).is_file()
    # the printed reduction plus I, parsed back, is an ideal of colength e
    payload = dict(report["input"], ideal=report["result"]["reduction"]["generators"])
    inst, options = parse_instance(json.dumps(payload))
    result, _ = run_command("length", inst, options)
    assert result["length"] == report["result"]["e"]
