"""Instance files: canonical JSON plus a lenient text front-end.

The canonical form round-trips: serializing a parsed instance and parsing it
back yields an equal instance.  Option values ride along unchanged so reports
echo exactly what ran.
"""

from __future__ import annotations

import dataclasses
import json
import re

from .errors import ParseError
from .exprparse import parse_generator, parse_polynomial
from .matlis import DEFAULT_CAPS, ResourceCaps
from .orders import MonomialOrder, ORDER_KINDS
from .reduction import ProblemInstance, generator_to_str
from .scalars import GF, PRIME_CHECK_LIMIT, QQ, is_prime

# the options: the resource caps, at least 1 each, and the reduction search's
# last shell, at least 0
DEFAULT_OPTIONS = {**dataclasses.asdict(DEFAULT_CAPS), "search_bound": 5}
_OPTION_MIN = {**dict.fromkeys(DEFAULT_OPTIONS, 1), "search_bound": 0}

# the keys of the text front-end, and the aliases it reads as them
_LIST_KEYS = ("variables", "ideal", "quotient_ideal")
_TEXT_KEYS = ("characteristic", "order", "dim", *_LIST_KEYS, *DEFAULT_OPTIONS)
_ALIASES = {
    "char": "characteristic",
    "vars": "variables",
    "dimension": "dim",
    "j": "ideal",
    "quotient": "quotient_ideal",
    "i": "quotient_ideal",
}

# the keys of an instance mapping, as build_instance reads them
_KEYS = ("characteristic", "order", "dim", *_LIST_KEYS, "options")

_PARAM_NAME = re.compile(r"^t_\d+_\d+$")


def _fail(message, line=None):
    raise ParseError(message, line)


def _parse_order_value(value, variables):
    if isinstance(value, str):
        text = value.strip()
        parts = [p for p in re.split(r"[>\s]+", text) if p]
        if not parts:
            _fail("empty order")
        kind = parts[0]
        names = parts[1:]
    elif isinstance(value, dict):
        kind = value.get("kind", "glex")
        names = value.get("precedence") or []
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            _fail("order precedence must be a list of variable names")
    else:
        _fail(f"cannot read order from {value!r}")
    if kind not in ORDER_KINDS:
        _fail(f"unknown order kind {kind!r} (expected one of {ORDER_KINDS})")
    if not names:
        # explicit precedence so parse(serialize(.)) round-trips to equality
        return MonomialOrder(kind, tuple(range(len(variables))))
    if sorted(names) != sorted(variables):
        _fail("order precedence must list every variable exactly once")
    index = {v: i for i, v in enumerate(variables)}
    return MonomialOrder(kind, tuple(index[n] for n in names))


def _text_to_mapping(text):
    """The lenient front-end: 'key: value' lines, '#' comments.  A key given
    twice, under its name or an alias, is an error."""
    out = {}
    options = {}
    seen = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(f"expected 'key: value' in {raw!r}", ln)
        key, value = line.split(":", 1)
        key = key.strip().lower().replace("-", "_")
        name = _ALIASES.get(key, key)
        if name not in _TEXT_KEYS:
            _fail(f"unknown key {key!r}", ln)
        if name in seen:
            _fail(f"repeated key {key!r} (already given on line {seen[name]})", ln)
        seen[name] = ln
        value = value.strip()
        if name in _LIST_KEYS:
            out[name] = [v.strip() for v in value.split(",") if v.strip()]
        elif name == "order":
            out[name] = value
        elif name in DEFAULT_OPTIONS:
            options[name] = _int_or_fail(value, ln)
        else:
            out[name] = _int_or_fail(value, ln)
    if options:
        out["options"] = options
    return out


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int_or_fail(value, line=None):
    try:
        return int(value)
    except ValueError:
        _fail(f"expected an integer, got {value!r}", line)


def parse_instance(text):
    """Parse an instance file (JSON or lenient text) into (instance, options)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            mapping = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as err:
            raise ParseError(f"invalid JSON: {err.msg}", err.lineno, err.colno)
        if not isinstance(mapping, dict):
            _fail("instance file must be a JSON object")
    else:
        mapping = _text_to_mapping(text)
    return build_instance(mapping)


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is an error."""
    out = {}
    for key, value in pairs:
        if key in out:
            _fail(f"repeated key {key!r}")
        out[key] = value
    return out


def _check_types(mapping):
    """ParseError for a key build_instance does not read, an 'options' that
    is not an object, and a list key that is not a list of strings."""
    for key in mapping:
        if key not in _KEYS:
            _fail(f"unknown key {key!r}")
    if "options" in mapping and not isinstance(mapping["options"], dict):
        _fail("options must be an object")
    for key in _LIST_KEYS:
        value = mapping.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            _fail(f"{key} must be a list of strings")


def build_instance(mapping):
    _check_types(mapping)
    char = mapping.get("characteristic", 0)
    if not _is_int(char) or char < 0:
        _fail("characteristic must be 0 or a prime")
    if char >= PRIME_CHECK_LIMIT:
        _fail(f"characteristic must be below {PRIME_CHECK_LIMIT}, the primality check's limit")
    if char and not is_prime(char):
        _fail(f"characteristic {char} is not prime")
    base = GF(char) if char else QQ
    variables = mapping.get("variables")
    if not variables:
        _fail("missing 'variables'")
    if len(set(variables)) != len(variables):
        _fail("variable names must be distinct")
    for v in variables:
        if _PARAM_NAME.match(v):
            _fail(f"variable name {v!r} collides with the parameter namespace t_i_j")
        if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", v):
            _fail(f"invalid variable name {v!r}")
    order = _parse_order_value(mapping.get("order", "glex"), variables)
    if "dim" not in mapping:
        _fail("missing 'dim'")
    dim = mapping["dim"]
    if not _is_int(dim) or not (0 <= dim <= len(variables)):
        _fail(f"dim must satisfy 0 <= dim <= {len(variables)}")
    ideal_exprs = mapping.get("ideal")
    if not ideal_exprs:
        _fail("missing 'ideal' generators")
    quotient_exprs = mapping.get("quotient_ideal", [])
    # the options come first: the file's own max_terms bounds its generators
    options = dict(DEFAULT_OPTIONS)
    extra = mapping.get("options", {})
    for key, value in extra.items():
        if key not in DEFAULT_OPTIONS:
            _fail(f"unknown option {key!r}")
        options[key] = value
    caps = checked_caps(options)
    j_gens = tuple(
        _parse_gen(expr, base, variables, f"ideal[{k}]", caps.max_terms)
        for k, expr in enumerate(ideal_exprs)
    )
    i_gens = tuple(
        _parse_gen(expr, base, variables, f"quotient_ideal[{k}]", caps.max_terms)
        for k, expr in enumerate(quotient_exprs)
    )
    if dim > 0 and len(j_gens) < dim:
        _fail("the ideal needs at least dim generators")
    inst = ProblemInstance(
        base=base,
        nvars=len(variables),
        var_names=tuple(variables),
        i_gens=i_gens,
        j_gens=j_gens,
        d=dim,
        order=order,
        caps=caps,
    )
    return inst, options


def checked_caps(options):
    """The ResourceCaps the options name; ParseError unless every option is
    an integer (not a bool) at least its least value."""
    for key, least in _OPTION_MIN.items():
        value = options[key]
        if not _is_int(value):
            _fail(f"option {key} must be an integer, got {value!r}")
        if value < least:
            _fail(f"option {key} must be >= {least}, got {value}")
    caps = {f.name: options[f.name] for f in dataclasses.fields(ResourceCaps)}
    return ResourceCaps(**caps)


def _parse_gen(expr, base, variables, where, max_terms):
    if not isinstance(expr, str):
        _fail(f"{where}: generator must be an expression string")
    try:
        return parse_generator(expr, base, variables, max_terms=max_terms)
    except ParseError as err:
        raise ParseError(f"{where}: {err}") from err


def parse_member_expression(expr, inst):
    """The element expression as a polynomial over inst's field, its
    expansion bounded by inst.caps.max_terms."""
    return parse_polynomial(expr, inst.base, inst.var_names, max_terms=inst.caps.max_terms)


def instance_to_jsonable(inst, options=None):
    """Canonical JSON form; parse(serialize(inst)) == inst."""
    order = inst.order
    if order.precedence is None:
        precedence = list(inst.var_names)
    else:
        precedence = [inst.var_names[i] for i in order.precedence]
    payload = {
        "characteristic": inst.base.char,
        "variables": list(inst.var_names),
        "order": {"kind": order.kind, "precedence": precedence},
        "quotient_ideal": [generator_to_str(g, inst.var_names) for g in inst.i_gens],
        "ideal": [generator_to_str(g, inst.var_names) for g in inst.j_gens],
        "dim": inst.d,
    }
    if options is not None:
        payload["options"] = dict(sorted(options.items()))
    return payload


def instance_to_json(inst, options=None):
    return json.dumps(instance_to_jsonable(inst, options), indent=2, sort_keys=False)
