"""Independent reference checks for the answers the engine gives.

No reference comes from the code path whose answer it checks.  They are:

* ``length``: the colength of an ideal whose generators have pure-power
  initial forms x_i^a_i is the product of the orders (tangent-cone formula:
  the initial forms are a regular sequence).  The check also re-reads the
  generators to confirm the initial forms.
* ``reduce`` with a reduction: ``oracles.vector_space_length`` of the
  returned combination plus I, built here from the generators, must equal
  e; for monomial ideals e must also equal ``oracles.monomial_multiplicity_fit``,
  and for ideals of quadratic forms without common zeros it must be 2^d.
* ``reduce`` with an exhausted search: a fresh ``multiplicity`` run supplies
  the PolyList/MatList certificate, and this module evaluates it with its
  own mod-p arithmetic at every point of the searched coefficient set; the
  search is exhausted exactly when no point passes.  ``find_reduction`` is
  not involved.
* ``member``: the verdict known by construction, with its witness checked
  again here: h is a combination of the generators, or h^2 lies in J^2
  (2u >= alpha + beta for two generator exponents), or a monomial valuation
  of R gives h a smaller value than J (then h is not integral over J).  For
  monomial bases e is also checked against the power fit.

The oracles are deliberately naive code kept apart from the engine.
"""

from __future__ import annotations

import itertools
import math

from polyutil import (
    eval_mod,
    parse_param_poly,
    poly_add,
    poly_mul,
    poly_scale,
    poly_substitute_last,
    rank_mod,
    weighted_order,
)

EXHAUSTED = "search-exhausted"


def _poly(jsonable):
    return {tuple(e): c for e, c in jsonable}


def _to_sparse(p, field, nvars):
    from hsmult.poly import SparsePoly

    return SparsePoly(field, nvars, {e: field.from_int(c) for e, c in p.items()})


def _base_field(char):
    from hsmult.scalars import GF, QQ

    return GF(char) if char else QQ


class ReferenceBook:
    """Reference verdicts, computed once per distinct request and reused."""

    def __init__(self):
        self._verdicts = {}
        self._fits = {}

    def check(self, req, outcome):
        """(ok, detail) for one answer; outcome is the result payload or EXHAUSTED."""
        key = (req.rid, req.text, req.expr)
        if req.command == "length":
            return self._check_length(req, outcome)
        if req.command == "member":
            return self._check_member(req, outcome, key)
        return self._check_reduce(req, outcome, key)

    # -- helpers -------------------------------------------------------------

    def _monomial_fit(self, exponents, d):
        from hsmult.oracles import monomial_multiplicity_fit

        key = (tuple(map(tuple, exponents)), d)
        if key not in self._fits:
            self._fits[key] = monomial_multiplicity_fit([tuple(e) for e in exponents], d)
        return self._fits[key]

    def _expected_e(self, req):
        ref = req.ref
        if "e" in ref:
            return ref["e"]
        if "monomial_exponents" in ref:
            return self._monomial_fit(ref["monomial_exponents"], req.props["d"])
        return None

    # -- length --------------------------------------------------------------

    def _check_length(self, req, outcome):
        if outcome == EXHAUSTED:
            return False, "length request reported an exhausted search"
        # each generator's initial form is a pure power, one per variable
        orders = {}
        for g in req.ref["gens"]:
            low = min(sum(e) for e, _ in g)
            initial = [e for e, _ in g if sum(e) == low]
            axes = [i for i, v in enumerate(initial[0]) if v]
            if len(initial) != 1 or len(axes) != 1 or axes[0] in orders:
                return False, f"initial forms are not distinct pure powers: {initial}"
            orders[axes[0]] = low
        if len(orders) != req.props["nvars"]:
            return False, "fewer pure-power generators than variables"
        product = math.prod(orders.values())
        if product != req.ref["e"]:
            return False, f"product of orders {product} != recorded {req.ref['e']}"
        if outcome["length"] != product:
            return False, f"length {outcome['length']} != product of orders {product}"
        return True, ""

    # -- reduce --------------------------------------------------------------

    def _check_reduce(self, req, outcome, key):
        expected_e = self._expected_e(req)
        if outcome == EXHAUSTED:
            if key not in self._verdicts:
                self._verdicts[key] = self._search_exhausts(req)
            passing = self._verdicts[key]
            if passing is not None:
                return False, f"search reported exhausted but {passing} passes the certificate"
            return True, ""
        e = outcome["e"]
        if expected_e is not None and e != expected_e:
            return False, f"e = {e}, reference {expected_e}"
        a = tuple(tuple(int(v) for v in row) for row in outcome["reduction"]["a"])
        vkey = key + (a,)
        if vkey not in self._verdicts:
            self._verdicts[vkey] = self._reduction_length(req, a)
        length = self._verdicts[vkey]
        if length != e:
            return False, f"colength of the returned reduction is {length}, e = {e}"
        return True, ""

    def _reduction_length(self, req, a):
        from hsmult.oracles import vector_space_length

        props, ref = req.props, req.ref
        char, d, n = props["characteristic"], props["d"], props["nvars"]
        gens = [_poly(g) for g in ref["gens"]]
        combined = []
        for i in range(d):
            g = gens[i]
            for j, coef in enumerate(a[i]):
                g = poly_add(g, poly_scale(gens[d + j], coef, char), char)
            combined.append(g)
        combined += [_poly(f) for f in ref["quotient"]]
        field = _base_field(char)
        return vector_space_length([_to_sparse(g, field, n) for g in combined])

    def _search_exhausts(self, req):
        """None when no searched point passes the certificate, else the first that does."""
        from hsmult.instance import parse_instance
        from hsmult.reduction import multiplicity

        inst, options = parse_instance(req.text)
        res = multiplicity(inst, use_cache=False)
        expected = self._expected_e(req)
        if expected is not None and res.e != expected:
            return f"(e = {res.e}, reference {expected})"
        params = list(res.params)
        polys = [parse_param_poly(p, params) for p in res.polylist_strings()]
        mats = [
            [[parse_param_poly(x, params) for x in row] for row in grid]
            for grid in res.matlist_grids()
        ]
        char = inst.base.char
        bound = options["search_bound"]
        values = sorted({v % char for v in range(-bound, bound + 1)})
        for point in itertools.product(values, repeat=len(params)):
            if not all(eval_mod(p, point, char) for p in polys):
                continue
            if all(
                rank_mod([[eval_mod(x, point, char) for x in row] for row in grid], char)
                == len(grid[0])
                for grid in mats
            ):
                return point
        return None

    # -- member --------------------------------------------------------------

    def _check_member(self, req, outcome, key):
        ref = req.ref
        if key not in self._verdicts:
            self._verdicts[key] = self._witness_holds(req)
        if not self._verdicts[key]:
            return False, f"construction witness {ref['witness']} does not hold"
        if outcome["member"] != ref["member"]:
            return False, f"member = {outcome['member']}, reference {ref['member']}"
        if "monomial_exponents" in ref:
            e = self._monomial_fit(ref["monomial_exponents"], req.props["d"])
            if outcome["e"] != e:
                return False, f"e = {outcome['e']}, power fit {e}"
        return True, ""

    def _witness_holds(self, req):
        ref = req.ref
        char = req.props["characteristic"]
        gens = [_poly(g) for g in ref["gens"]]
        h = _poly(ref["h"])
        witness = ref["witness"]
        if witness == "in-J":
            total = {}
            for cof, g in zip(ref["cofactors"], gens):
                total = poly_add(total, poly_mul(_poly(cof), g, char), char)
            return total == h
        if witness == "square-in-J2":
            (u,) = h
            exps = [tuple(e) for e in ref["monomial_exponents"]]
            g1, g2 = (tuple(p) for p in ref["pair"])
            return g1 in exps and g2 in exps and all(
                2 * x >= a + b for x, a, b in zip(u, g1, g2)
            )
        if witness == "below-newton":
            # a monomial valuation of R separates h from J: v(h) < v(J)
            w = ref["weights"]
            if "substitution" in ref:
                q = _poly(ref["substitution"])
                gens = [poly_substitute_last(g, q, char) for g in gens]
                h = poly_substitute_last(h, q, char)
            return all(x > 0 for x in w) and weighted_order(h, w) < min(
                weighted_order(g, w) for g in gens
            )
        return False
