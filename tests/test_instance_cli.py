import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hsmult import (
    GF,
    QQ,
    CapExceeded,
    DenominatorVanishes,
    FunctionField,
    InternalInconsistency,
    ParseError,
    RationalSeries,
    RingMismatch,
    SearchExhausted,
    SparsePoly,
    UnexpectedNullity,
    ZeroElement,
)
from hsmult.exprparse import parse_generator, parse_polynomial, parse_rational
from hsmult.instance import instance_to_json, parse_instance
from hsmult.scalars import PRIME_CHECK_LIMIT
from tests.conftest import FIXTURES


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hsmult.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or Path(__file__).parent.parent,
    )


# --- expression grammar ----------------------------------------------------


def test_parse_polynomial_basics():
    p = parse_polynomial("x^3 + 2*x*y - y^2", QQ, ("x", "y"))
    assert p.to_str(("x", "y")) == "x^3 + 2*x*y - y^2"
    q = parse_polynomial("(x + y)^2", QQ, ("x", "y"))
    assert q.to_str(("x", "y")) == "x^2 + 2*x*y + y^2"
    r = parse_polynomial("3/4*x - 1/2", QQ, ("x", "y"))
    assert r.to_str(("x", "y")) == "(3/4)*x - 1/2"
    assert parse_polynomial("  x ^ 2\n+ y", QQ, ("x", "y")) == parse_polynomial(
        "x^2+y", QQ, ("x", "y")
    )


def test_parse_generator_series():
    g = parse_generator("1/(1 - x)", QQ, ("x",))
    assert isinstance(g, RationalSeries)
    t = g.truncate(3)
    assert [t.coeffs[(k,)] for k in range(4)] == [1, 1, 1, 1]
    h = parse_generator("x/(1 + y)", QQ, ("x", "y"))
    assert h.truncate(2).to_str(("x", "y")) == "-x*y + x"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + $", QQ, ("x",))
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x +", QQ, ("x",))
    with pytest.raises(ParseError):
        parse_polynomial("x * w", QQ, ("x", "y"))
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y", QQ, ("x", "y"))
    with pytest.raises(ParseError):
        parse_polynomial("(x", QQ, ("x",))
    with pytest.raises(ParseError):
        parse_polynomial("x / 0", QQ, ("x",))
    with pytest.raises(ParseError):
        parse_polynomial("1/(1-x)", QQ, ("x",))  # not a polynomial


def test_unary_signs_and_rationals():
    p = parse_polynomial("-x + - - y", QQ, ("x", "y"))
    assert p.to_str(("x", "y")) == "-x + y"
    num, den = parse_rational("(1+x)/(1-x)/(1+y)", QQ, ("x", "y"))
    assert num.to_str(("x", "y")) == "x + 1"


def _random_tree(rng, names, depth):
    """A random expression tree: ("int", n), ("name", s), ("neg", a),
    ("pow", a, k) or (op, a, b) for op in + - * /."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ("int", rng.randint(0, 5))
        return ("name", rng.choice(names))
    kind = rng.choice(["+", "-", "*", "/", "neg", "pow", "pow"])
    a = _random_tree(rng, names, depth - 1)
    if kind == "neg":
        return ("neg", a)
    if kind == "pow":
        return ("pow", a, rng.randint(0, 3))
    return (kind, a, _random_tree(rng, names, depth - 1))


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "int": 5, "name": 5}


def _text(tree, least=0):
    """The tree printed with only the parentheses the grammar needs to parse
    it back to the same tree (operators associate to the left)."""
    kind = tree[0]
    if kind in ("int", "name"):
        out = str(tree[1])
    elif kind == "neg":
        out = "-" + _text(tree[1], 4)
    elif kind == "pow":
        out = f"{_text(tree[1], 5)}^{tree[2]}"
    else:
        left, right = (1, 2) if kind in "+-" else (2, 3)
        out = f"{_text(tree[1], left)} {kind} {_text(tree[2], right)}"
    return out if _PRECEDENCE[kind] >= least else f"({out})"


def _reference_pair(tree, field, names):
    """The (numerator, denominator) pair by plain SparsePoly arithmetic, every
    product taken, as the grammar defines it; None on a zero divisor."""
    n = len(names)
    one = SparsePoly.constant(field, n, field.one())
    kind = tree[0]
    if kind == "int":
        return SparsePoly.constant(field, n, field.from_int(tree[1])), one
    if kind == "name":
        return SparsePoly.variable(field, n, names.index(tree[1])), one
    a = _reference_pair(tree[1], field, names)
    if a is None:
        return None
    if kind == "neg":
        return -a[0], a[1]
    if kind == "pow":
        return a[0] ** tree[2], a[1] ** tree[2]
    b = _reference_pair(tree[2], field, names)
    if b is None:
        return None
    (n1, d1), (n2, d2) = a, b
    if kind == "+":
        return n1 * d2 + n2 * d1, d1 * d2
    if kind == "-":
        return n1 * d2 - n2 * d1, d1 * d2
    if kind == "*":
        return n1 * n2, d1 * d2
    if n2.is_zero():
        return None
    return n1 * d2, d1 * n2


X, Y, Z = ("name", "x"), ("name", "y"), ("name", "z")
# x^0, (2*x)^3, -x^2, 1/2*x and the series generator (x + y)/(1 - x*z)^2
FIXED_TREES = [
    ("pow", X, 0),
    ("pow", ("*", ("int", 2), X), 3),
    ("neg", ("pow", X, 2)),
    ("*", ("/", ("int", 1), ("int", 2)), X),
    ("/", ("+", X, Y), ("pow", ("-", ("int", 1), ("*", X, Z)), 2)),
]


@pytest.mark.parametrize("field_name", ["QQ", "GF(3)", "GF(32003)", "QQ(t)", "GF(32003)(t)"])
def test_parser_fast_paths_match_plain_arithmetic(field_name):
    """Skipping products by the constant 1 and raising single terms directly
    give the same pair as taking every SparsePoly product."""
    base = {"QQ": QQ, "GF(3)": GF(3), "GF(32003)": GF(32003)}[field_name.split("(t")[0]]
    field, names = base, ["x", "y", "z"]
    if field_name.endswith("(t)"):
        # over K(t) the parameter names are declared as two more variables
        field = FunctionField(base, ("t_1_1", "t_1_2"))
        names = names + list(field.params)
    assert [_text(t) for t in FIXED_TREES] == [
        "x^0", "(2 * x)^3", "-x^2", "1 / 2 * x", "(x + y) / (1 - x * z)^2"
    ]
    rng = random.Random(field_name)
    trees = FIXED_TREES + [_random_tree(rng, names, 3) for _ in range(300)]
    checked = 0
    for tree in trees:
        text = _text(tree)
        ref = _reference_pair(tree, field, names)
        if ref is None:
            with pytest.raises(ParseError, match="division by zero"):
                parse_rational(text, field, names)
            continue
        assert parse_rational(text, field, names) == ref, text
        checked += 1
    assert checked >= 250
    series = parse_generator(_text(FIXED_TREES[-1]), field, names)
    assert isinstance(series, RationalSeries)
    assert (series.num, series.den) == _reference_pair(FIXED_TREES[-1], field, names)


# --- instance files ---------------------------------------------------------


def test_parse_instance_example1_json(example1):
    assert example1.nvars == 2
    assert example1.d == 2
    assert len(example1.j_gens) == 3
    assert example1.base.char == 0


def test_parse_instance_text_front_end():
    inst_json, _ = parse_instance((FIXTURES / "example1.json").read_text())
    inst_text, options = parse_instance((FIXTURES / "example1.txt").read_text())
    assert inst_text == inst_json
    assert options["search_bound"] == 5


def test_instance_round_trip_all_fixtures():
    for name in sorted(FIXTURES.glob("*.json")):
        inst, options = parse_instance(name.read_text())
        text = instance_to_json(inst, options)
        inst2, options2 = parse_instance(text)
        assert inst2 == inst, name
        assert options2 == options


def test_instance_validation_errors():
    base = {
        "characteristic": 0,
        "variables": ["x", "y"],
        "order": "glex",
        "ideal": ["x", "y"],
        "dim": 2,
    }

    def bad(**kw):
        payload = dict(base, **kw)
        with pytest.raises(ParseError):
            parse_instance(json.dumps(payload))

    bad(dim=3)
    bad(dim=-1)
    bad(variables=["x", "x"])
    bad(variables=["x", "t_1_2"])
    bad(characteristic=6)
    bad(ideal=[])
    bad(ideal=["x + w"])
    bad(order="weird")
    bad(order={"kind": "glex", "precedence": ["x"]})
    bad(options={"nonsense": 1})
    bad(options={"modp": "never"})
    bad(ideal=["x"], dim=2)


def test_parse_instance_invalid_json_reports_position():
    with pytest.raises(ParseError):
        parse_instance('{"characteristic": 0,,}')


# --- CLI --------------------------------------------------------------------


def test_cli_mult_example1():
    out = run_cli("mult", "tests/fixtures/example1.json", "--json", "--no-timing")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["result"]["e"] == 5
    assert report["result"]["polylist"] == ["t_1_3"]
    assert report["schema"] == "hsmult-report/1"


def test_cli_member_example3():
    out = run_cli("member", "tests/fixtures/example3.json", "x*z")
    assert out.returncode == 0
    # (xz)^2 = x^2 z^2 lies in J^2
    assert out.stdout == (
        "x*z is in the integral closure (e = 10; its square lies in J(J + (h)))\n"
    )
    out2 = run_cli("member", "tests/fixtures/example3.json", "x", "--json", "--no-timing")
    assert out2.returncode == 0
    assert json.loads(out2.stdout)["result"]["member"] is False


def test_cli_reduce_and_length_and_dual():
    out = run_cli("reduce", "tests/fixtures/example1.json", "--json", "--no-timing")
    assert out.returncode == 0
    red = json.loads(out.stdout)["result"]["reduction"]
    assert red["a"] == [["1"], ["1"]]
    assert red["mode"] == "symbolic"
    out2 = run_cli("length", "tests/fixtures/example1.json", "--json", "--no-timing")
    assert json.loads(out2.stdout)["result"]["length"] == 4
    out3 = run_cli("dual", "tests/fixtures/example1.json", "--json", "--no-timing")
    basis = json.loads(out3.stdout)["result"]["basis"]
    assert len(basis) == 4
    assert basis[0] == [[[0, 0], "1"]]


def test_cli_report_determinism():
    a = run_cli("mult", "tests/fixtures/example2.json", "--json", "--no-timing")
    b = run_cli("mult", "tests/fixtures/example2.json", "--json", "--no-timing")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_cli_exit_codes():
    bad = run_cli("mult", "tests/fixtures/nonexistent.json")
    assert bad.returncode == 2
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write('{"characteristic": 0, "variables": ["x","y"], "order": "glex", "ideal": ["x"], "dim": 3}')
        name = fh.name
    try:
        out = run_cli("mult", name)
        assert out.returncode == 2
    finally:
        os.unlink(name)
    # caps: a non-m-primary ideal
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write('{"characteristic": 0, "variables": ["x","y"], "order": "glex", "ideal": ["x", "x*y"], "dim": 2}')
        name = fh.name
    try:
        out = run_cli("mult", name)
        assert out.returncode == 3
    finally:
        os.unlink(name)
    # search exhausted over GF(2)
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(
            json.dumps(
                {
                    "characteristic": 2,
                    "variables": ["x", "y"],
                    "order": "glex",
                    "ideal": ["x^3 + x^2 + y^2", "x^2 + y^2", "x^2*y"],
                    "dim": 2,
                }
            )
        )
        name = fh.name
    try:
        out = run_cli("reduce", name)
        assert out.returncode == 4
    finally:
        os.unlink(name)


def test_cli_flag_overrides():
    out = run_cli(
        "mult",
        "tests/fixtures/example1.json",
        "--order",
        "grevlex",
        "--json",
        "--no-timing",
    )
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["result"]["e"] == 5
    assert report["input"]["order"]["kind"] == "grevlex"


def test_cli_selftest():
    out = run_cli("selftest")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "all suites passed" in out.stdout


def test_grammar_reads_only_declared_names():
    """The grammar has no parameter names: over K(t) a parameter is read
    only when it is declared as a variable."""
    from hsmult import FunctionField

    ff = FunctionField(QQ, ("t_1_3", "t_2_3"))
    with pytest.raises(ParseError, match="unknown variable 't_1_3'"):
        parse_polynomial("x^3 + t_1_3*x*y", ff, ("x", "y"))
    p = parse_polynomial("x^3 + t_1_3*x*y", ff, ("x", "y", "t_1_3"))
    assert p.coeffs == {(3, 0, 0): ff.one(), (1, 1, 1): ff.one()}


# --- option validation and exit codes ---------------------------------------

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsmult.cli import main

SMALL = {
    "characteristic": 0,
    "variables": ["x", "y"],
    "order": "glex",
    "ideal": ["x^3 + x*y", "y^2 + x*y"],
    "dim": 2,
}


def _run_main(argv):
    """In-process CLI run: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    return code, err.getvalue()


def _write_instance(tmp_path, payload):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "options, flags",
    [
        ({"search_bound": "3"}, []),
        ({"max_terms": "50"}, []),
        ({"search_bound": -1}, []),
        ({"max_iterations": 0}, []),
        ({"max_iterations": "5"}, []),
        ({"max_degree": True}, []),
        ({"max_terms": 2.5}, []),
        ({"search_bound": None}, []),
        ({}, ["--search-bound", "-1"]),
        ({"search_bound": False}, []),
        ({}, ["--max-degree", "0"]),
        ({}, ["--max-terms", "0"]),
    ],
)
def test_cli_rejects_mistyped_options(tmp_path, options, flags):
    path = _write_instance(tmp_path, dict(SMALL, options=options))
    code, err = _run_main(["reduce", path, *flags])
    assert code == 2
    assert err.startswith("error: option ")


@pytest.mark.parametrize(
    "options, flags, message",
    [
        ({"modp": "off"}, [], "error: unknown option 'modp'"),
        ({"modp_threshold": 4}, [], "error: unknown option 'modp_threshold'"),
        ({"modp_retries": 3}, [], "error: unknown option 'modp_retries'"),
        ({"trunc_degree": 8}, [], "error: unknown option 'trunc_degree'"),
        ({}, ["--modp", "off"], "error: unrecognized arguments: --modp off"),
        ({}, ["--modp-threshold", "4"], "error: unrecognized arguments: --modp-threshold 4"),
        ({}, ["--trunc-degree", "8"], "error: unrecognized arguments: --trunc-degree 8"),
    ],
    ids=["modp", "modp_threshold", "modp_retries", "trunc_degree", "--modp",
         "--modp-threshold", "--trunc-degree"],
)
def test_removed_kernel_options_exit_2(tmp_path, options, flags, message):
    # the kernel route and the truncation start are fixed, not settings
    path = _write_instance(tmp_path, dict(SMALL, options=options))
    code, err = _run_main(["mult", path, *flags])
    assert code == 2
    assert message in err


TEXT_SMALL = "variables: x, y\ndim: 2\nideal: x^3 + x*y, y^2 + x*y\n"


@pytest.mark.parametrize(
    "extra, key, first",
    [
        ("ideal: x, y", "ideal", 3),
        ("j: x, y", "j", 3),
        ("vars: x, y", "vars", 1),
        ("dimension: 2", "dimension", 2),
        ("characteristic: 3\nchar: 0", "char", 4),
        ("quotient: x*y\ni: x*y", "i", 4),
        ("max_terms: 50\nmax-terms: 60", "max_terms", 4),
        ("order: glex\norder: lex", "order", 4),
    ],
    ids=["ideal", "j", "vars", "dimension", "char", "i", "max-terms", "order"],
)
def test_text_front_end_rejects_repeated_keys(tmp_path, extra, key, first):
    text = TEXT_SMALL + extra + "\n"
    line = text.count("\n")
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == (
        f"repeated key {key!r} (already given on line {first}) at line {line}"
    )
    path = tmp_path / "instance.txt"
    path.write_text(text)
    assert _run_main(["mult", str(path)])[0] == 2


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"variables": ["x", "y"], "ideal": ["x^2", "y^2"], "ideal": ["x", "y"], "dim": 2}', "ideal"),
        ('{"characteristic": 3, "characteristic": 0, "variables": ["x"], "ideal": ["x"], "dim": 1}', "characteristic"),
        ('{"variables": ["x"], "ideal": ["x"], "dim": 1, "options": {"max_terms": 5, "max_terms": 6}}', "max_terms"),
    ],
    ids=["ideal", "characteristic", "options.max_terms"],
)
def test_json_rejects_repeated_keys(tmp_path, text, key):
    with pytest.raises(ParseError, match=f"^repeated key {key!r}$"):
        parse_instance(text)
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert _run_main(["mult", str(path)])[0] == 2


@pytest.mark.parametrize(
    "field, value",
    [("dim", True), ("dim", False), ("characteristic", False), ("characteristic", True)],
)
def test_bool_dim_and_characteristic_exit_2(tmp_path, field, value):
    payload = dict(SMALL, **{field: value})
    with pytest.raises(ParseError):
        parse_instance(json.dumps(payload))
    code, err = _run_main(["mult", _write_instance(tmp_path, payload)])
    assert code == 2
    assert err.startswith(f"error: {field} must")


@pytest.mark.parametrize("command", ["mult", "length", "reduce", "member"])
def test_coefficients_past_the_int_string_limit_exit_2_before_any_run(
    tmp_path, monkeypatch, command
):
    """2^100000 has 30,103 decimal digits, past the interpreter's default
    limit of 4,300 for int-string conversion, so no report could print it:
    the parser refuses it, in the ideal or in the member expression, with a
    message that names the limit, and no engine runs."""
    from hsmult import cli

    def engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    for name in ("compute_dual_basis", "multiplicity", "membership"):
        monkeypatch.setattr(cli, name, engine)
    huge = "2^100000"
    if command == "member":
        argv = [command, _write_instance(tmp_path, SMALL), huge + "*x"]
    else:
        argv = [command, _write_instance(tmp_path, dict(SMALL, ideal=[huge + "*x^3", "y^2"]))]
    code, err = _run_main(argv)
    assert code == 2
    limit = sys.get_int_max_str_digits()
    assert err.endswith(
        f"a number has more than {limit} decimal digits (sys.get_int_max_str_digits())\n"
    )


def test_the_digit_limit_is_the_interpreters():
    """Literals and QQ coefficients up to the limit parse, one digit more is
    a ParseError, literals with their position; a limit of 0 checks
    nothing, and over GF(p) a coefficient is reduced first."""
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert parse_polynomial("10^639*x - 1/10^639", QQ, ("x",))
        assert parse_polynomial("9" * 640, QQ, ("x",))
        for text in ("10^640*x", "x/10^640", "(2*x)^2200", "2^1100*x/(1/2^1100)"):
            with pytest.raises(ParseError, match="more than 640 decimal digits"):
                parse_polynomial(text, QQ, ("x",))
        with pytest.raises(ParseError, match="640 decimal digits.* at line 2, column 3"):
            parse_polynomial("x\n+ " + "1" * 641, GF(7), ("x",))
        assert parse_polynomial("10^5000*x", GF(7), ("x",)).coeffs[(1,)].v == pow(10, 5000, 7)
        sys.set_int_max_str_digits(0)
        assert parse_polynomial("10^5000*x", QQ, ("x",)).coeffs[(1,)] == 10**5000
    finally:
        sys.set_int_max_str_digits(old)


def test_process_caches_are_bounded():
    """A process that meets more primes and shapes than the caches hold
    keeps at most their bounds: the prime fields of parsed instances, the
    hashed points and point fields of runs over them, and the parameter
    names of each shape.  A field or point rebuilt after eviction is equal
    to the one evicted."""
    from hsmult import modp, reduction, scalars

    bound = scalars.CACHE_SIZE
    primes = [p for p in range(2, 2000) if scalars.is_prime(p)][: bound + 8]
    first_field = scalars.GF(2)
    first_point = modp.point_span(FunctionField(GF(2), ("a",)), 0)[0]
    for p in primes:
        inst, _ = parse_instance(json.dumps(dict(SMALL, characteristic=p)))
        modp.point_span(FunctionField(inst.base, ("a",)), 0)
    for m in range(2, bound + 10):
        reduction.param_names(1, m)
    for cached in (scalars.GF, modp._hashed_point, modp._point_field, reduction.param_names):
        assert cached.cache_info().currsize == bound
    assert scalars.GF(2) == first_field
    assert modp.point_span(FunctionField(GF(2), ("a",)), 0)[0] == first_point


def test_large_prime_characteristic_parses_at_once(tmp_path):
    """Trial division did not finish 2^61 - 1 in 20 s."""
    payload = dict(SMALL, characteristic=2**61 - 1)
    start = time.perf_counter()
    inst, _ = parse_instance(json.dumps(payload))
    assert time.perf_counter() - start < 1
    assert inst.base.char == 2**61 - 1
    assert _run_main(["length", _write_instance(tmp_path, payload)])[0] == 0


@pytest.mark.parametrize("char", [561, 2047, 3215031751, 2**61 + 1])
def test_composite_characteristics_exit_2(tmp_path, char):
    code, err = _run_main(["length", _write_instance(tmp_path, dict(SMALL, characteristic=char))])
    assert code == 2
    assert err.startswith(f"error: characteristic {char} is not prime")


def test_characteristic_at_the_primality_limit_exits_2(tmp_path):
    payload = dict(SMALL, characteristic=PRIME_CHECK_LIMIT)
    code, err = _run_main(["length", _write_instance(tmp_path, payload)])
    assert code == 2
    assert err.startswith(f"error: characteristic must be below {PRIME_CHECK_LIMIT}")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"char": 3}, "unknown key 'char'"),
        ({"vars": ["x", "y"]}, "unknown key 'vars'"),
        ({"options": [1]}, "options must be an object"),
        ({"options": None}, "options must be an object"),
        ({"variables": 5}, "variables must be a list of strings"),
        ({"variables": ["x", 5]}, "variables must be a list of strings"),
        ({"ideal": "x"}, "ideal must be a list of strings"),
        ({"ideal": [{"x": 1}]}, "ideal must be a list of strings"),
        ({"quotient_ideal": "x*y"}, "quotient_ideal must be a list of strings"),
        ({"order": {"kind": "lex", "precedence": 3}}, "order precedence must be a list"),
    ],
    ids=[
        "char", "vars", "options-list", "options-null", "variables-int",
        "variables-mixed", "ideal-string", "ideal-object", "quotient-string",
        "precedence-int",
    ],
)
def test_json_unknown_keys_and_wrong_types_exit_2(tmp_path, change, message):
    """Input errors, never engine faults; a string ideal is not read per character."""
    payload = dict(SMALL, **change)
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        parse_instance(json.dumps(payload))
    code, err = _run_main(["mult", _write_instance(tmp_path, payload)])
    assert code == 2
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["mult", "reduce", "member"])
def test_cli_rejects_dim_that_contradicts_the_quotient(tmp_path, command):
    # R = S, so dim must be 2; dim 1 used to run until the term cap
    payload = {"characteristic": 0, "variables": ["x", "y"], "ideal": ["x^2", "y", "x*y"], "dim": 1}
    argv = [command, _write_instance(tmp_path, payload)] + (["x"] if command == "member" else [])
    code, err = _run_main(argv)
    assert code == 2
    assert err.startswith("error: dim must be 2")
    # length and dual ignore dim
    assert _run_main(["length", argv[1]])[0] == 0


@pytest.mark.parametrize(
    "quotient, dims_ok",
    [
        ([], {3}),
        (["0"], {3}),
        (["x*y - z^2"], {2}),
        (["x*y", "x*z"], {1, 2}),
        (["x^2", "0", "y/(1 - z)"], {1, 2}),
    ],
)
def test_check_dimension_follows_krull(quotient, dims_ok):
    text = {"variables": ["x", "y", "z"], "ideal": ["x", "y", "z"], "quotient_ideal": quotient}
    for dim in range(4):
        inst, _ = parse_instance(json.dumps(dict(text, dim=dim)))
        if dim in dims_ok:
            inst.check_dimension()
        else:
            with pytest.raises(ValueError):
                inst.check_dimension()


_option_values = st.one_of(
    st.integers(-2, 4),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(-2, 4, allow_nan=False),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from(["on", "off", "auto"]),
)
_option_keys = st.sampled_from(
    [
        "max_terms",
        "max_degree",
        "max_iterations",
        "search_bound",
        "bogus",
    ]
)
_flag = st.one_of(
    st.tuples(st.sampled_from(["--order"]), st.sampled_from(["glex", "grevlex", "lex", "weird"])),
    st.tuples(
        st.sampled_from(["--max-terms", "--max-degree", "--search-bound"]),
        st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["x", "1.5", ""])),
    ),
)
_instances = st.sampled_from(
    [
        SMALL,
        dict(SMALL, characteristic=2, ideal=["x^3 + x^2 + y^2", "x^2 + y^2", "x^2*y"]),
        dict(SMALL, ideal=["1/(1 - x) - 1 + y^2", "y^3 + x^2"]),
        dict(SMALL, ideal=["x^2", "x*y"]),
        dict(SMALL, variables=["x"], ideal=["x^2"], dim=1),
    ]
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    _instances,
    st.dictionaries(_option_keys, _option_values, max_size=3),
    st.lists(_flag, max_size=3),
    st.sampled_from(["mult", "reduce", "length", "dual", "member"]),
)
def test_cli_exit_codes_are_documented(tmp_path, instance, options, flags, command):
    # small caps keep every run short; explicit options may replace them
    payload = dict(instance, options=dict({"max_terms": 60, "max_degree": 12}, **options))
    argv = [command, _write_instance(tmp_path, payload)]
    if command == "member":
        argv.append("x*y")
    argv.extend(part for flag in flags for part in flag)
    code, _ = _run_main(argv)
    assert code in {0, 2, 3, 4, 5}


@pytest.mark.parametrize(
    "error, code",
    [
        (ValueError("need at least dim generators"), 2),
        (CapExceeded("loop iterations", 3), 3),
        (SearchExhausted(5), 4),
        (InternalInconsistency("step called on a finished state"), 5),
        (UnexpectedNullity(2), 5),
        (ArithmeticError("division not exact"), 5),
        (ZeroDivisionError("division by zero in GF(p)"), 5),
        (DenominatorVanishes("1/t_1_3", (0,)), 5),
        (RingMismatch("mixed prime-field arithmetic"), 5),
        (ZeroElement("zero element has no leading term"), 5),
        # any other exception is an engine bug, reported with its class
        (TypeError("unsupported operand type(s)"), 5),
        (KeyError((0, 1)), 5),
        (IndexError("list index out of range"), 5),
    ],
)
def test_cli_exit_code_per_error_class(tmp_path, monkeypatch, error, code):
    from hsmult import cli

    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "run_command", fail)
    got, err = _run_main(["mult", _write_instance(tmp_path, SMALL)])
    assert got == code
    if isinstance(error, (TypeError, KeyError, IndexError)):
        assert err == f"error: {type(error).__name__}: {error}\n"
    else:
        assert err == f"error: {error}\n"


_VARS = ("x", "y", "z")


@st.composite
def _engine_instances(draw):
    """A small random ideal and element: 2-3 variables, exponents <= 2, and at
    most 3 parameters in the ideal's generic run."""
    nvars = draw(st.sampled_from([2, 3]))
    names = _VARS[:nvars]
    # m generators with dim = nvars give nvars * (m - nvars) parameters
    ngens = draw(st.integers(nvars, nvars + 1))

    def poly(power_of=None):
        # generator k < nvars may lead with a pure power of variable k, so
        # that some ideals are m-primary and run the engine to the end
        lead = ""
        if power_of is not None and draw(st.booleans()):
            lead = f"{names[power_of]}^{draw(st.integers(1, 2))} + "
        terms = draw(
            st.lists(
                st.tuples(
                    st.sampled_from([-3, -2, -1, 1, 2, 3]),
                    st.tuples(*[st.integers(0, 2)] * nvars),
                ),
                min_size=1,
                max_size=3,
            )
        )
        return lead + " + ".join(
            "*".join([f"({c})"] + [f"{v}^{e}" for v, e in zip(names, expo) if e])
            for c, expo in terms
        )

    return {
        "characteristic": draw(st.sampled_from([0, 2, 3])),
        "variables": list(names),
        "order": "glex",
        "ideal": [poly(k if k < nvars else None) for k in range(ngens)],
        "dim": nvars,
        "options": {"max_terms": 60, "max_iterations": 200},
    }, poly()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    _engine_instances(),
    st.one_of(
        st.integers(0, 2).map(lambda b: ["reduce", "--search-bound", str(b)]),
        st.just(["member"]),
    ),
)
def test_cli_exit_codes_on_engine_inputs(tmp_path, drawn, command):
    instance, element = drawn
    argv = [command[0], _write_instance(tmp_path, instance)] + command[1:]
    if command[0] == "member":
        argv.append(element)
    code, _ = _run_main(argv)
    assert code in {0, 2, 3, 4, 5}


FLAGS = (
    ["--order", "grevlex"],
    ["--max-terms", "3000"],
    ["--max-degree", "40"],
    ["--search-bound", "2"],
    ["--no-timing"],
    ["--json"],
)


@pytest.mark.parametrize("command, positionals", [
    ("reduce", [str(FIXTURES / "example1.json")]),
    ("member", [str(FIXTURES / "example3.json"), "x*z"]),
])
def test_flags_before_the_file_give_the_same_report(capsys, command, positionals):
    def report(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    for flag in FLAGS:
        rest = [f for f in ("--json", "--no-timing") if f != flag[0]]
        last = report([command, *positionals, *flag, *rest])
        assert last[0] == 0
        assert report([command, *flag, *positionals, *rest]) == last
        # between the file and the element
        assert report([command, positionals[0], *flag, *positionals[1:], *rest]) == last
    every = [f for flag in FLAGS for f in flag]
    assert report([command, *every, *positionals]) == report([command, *positionals, *every])


@pytest.mark.parametrize("expr", ["(1+x+y)^200", "(1+x)^99*(1+y)^99"], ids=["power", "product"])
def test_runaway_member_expressions_exit_3_at_once(expr):
    """A power whose multinomial bound, and a product whose result, exceed
    max_terms raise CapExceeded before the engine runs."""
    import time

    started = time.perf_counter()
    code, err = _run_main(["member", str(FIXTURES / "example1.json"), expr])
    assert time.perf_counter() - started < 1
    assert code == 3
    assert "expression terms > 5000" in err


def test_product_past_max_terms_exits_3_before_it_is_expanded():
    """Each factor, 1,771 terms, is within max_terms (5000), and their
    product, 12,341 terms, is refused before its 3.1M coefficient products
    are taken; a product of as many pairs with few distinct exponent sums
    still answers."""
    import time

    started = time.perf_counter()
    code, err = _run_main(["member", str(FIXTURES / "example2.json"), "(1+x+y+z)^20*(1+x+y+z)^20"])
    assert time.perf_counter() - started < 2
    assert code == 3 and "expression terms > 5000" in err
    for expr in ("(x+y)^60*(x+y)^60", "(x+y)^60*(x+y)^100"):
        assert _run_main(["member", str(FIXTURES / "example1.json"), expr])[0] == 0


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_powers_of_sums_equal_repeated_products(p):
    """A power of a sum, expanded by the multinomial theorem, is the product
    of its factors, with the multinomial coefficients reduced mod p over
    GF(p); (1+x+y)^97, 4,851 terms over QQ, parses in under a second to the
    multinomial coefficients 97! / (i! j! (97 - i - j)!)."""
    import math

    field = GF(p) if p else QQ
    names = ("x", "y", "z")
    rng = random.Random(67 + p)
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(2, 4)):
            coef = rng.choice([1, 2, 3, 5, -1, -4])
            mono = "*".join(f"{v}^{rng.randint(1, 3)}" for v in names if rng.random() < 0.5)
            terms.append(f"{coef}*{mono}" if mono else str(coef))
        text = " + ".join(terms)
        base = parse_polynomial(text, field, names)
        k = rng.randint(2, 9)
        want = base
        for _ in range(k - 1):
            want = want * base
        assert parse_polynomial(f"({text})^{k}", field, names, max_terms=5000) == want
    started = time.perf_counter()
    got = parse_polynomial("(1+x+y)^97", field, ("x", "y"), max_terms=5000)
    assert time.perf_counter() - started < 1
    want = {}
    for i in range(98):
        for j in range(98 - i):
            f = math.factorial
            c = f(97) // (f(i) * f(j) * f(97 - i - j))
            if not p or c % p:
                want[i, j] = field.from_int(c)
    assert got.coeffs == want


def test_expansion_caps_follow_the_file_and_the_flags(capsys, tmp_path):
    # generators are bounded by the file's own max_terms
    bounded = dict(SMALL, ideal=["(x+y)^60", "y^2"], options={"max_terms": 60})
    with pytest.raises(CapExceeded, match="expression terms > 60"):
        parse_instance(json.dumps(bounded))
    inst, _ = parse_instance(json.dumps(dict(bounded, options={"max_terms": 61})))
    assert len(inst.j_gens[0].coeffs) == 61
    # a member expression by the caps after the flags are applied
    path = str(FIXTURES / "example1.json")
    code, err = _run_main(["member", path, "(1+x)^8*(1+y)^8", "--max-terms", "80"])
    assert code == 3 and "expression terms > 80" in err
    # zero, a single term and the constant 1 are never expanded, so no cap applies
    for expr in ("0^5", "(x-x)^3", "(2*x*y)^900", "(x+y)^0"):
        assert parse_polynomial(expr, QQ, ("x", "y"), max_terms=1) == parse_polynomial(
            expr, QQ, ("x", "y")
        )
    # a power within the cap expands as before
    assert main(["member", path, "(x+y)^400", "--json", "--no-timing"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["member"] is True and result["decided_by"] == "in-ideal"
