from __future__ import annotations

import signal
import threading
from pathlib import Path

import pytest

from hsmult import MonomialOrder, SparsePoly
from hsmult.instance import parse_instance
from hsmult.reduction import clear_multiplicity_cache
from hsmult.scalars import FunctionField, GFElement, pp_primitive_row

FIXTURES = Path(__file__).parent / "fixtures"

# seconds one test may run; a full tier-1 run takes well under a minute
TEST_TIME_LIMIT = 120


def make_poly(field, nvars, coeffs):
    """{exponent: int-or-scalar} -> SparsePoly."""
    return SparsePoly(
        field,
        nvars,
        {e: (field.from_int(c) if isinstance(c, int) else c) for e, c in coeffs.items()},
    )


def plain(a):
    """A base-field scalar as the plain number a base-field ExactMatrix holds:
    its int in [0, p) over GF(p), the Fraction itself over QQ, and the int 0
    for zero."""
    if isinstance(a, GFElement):
        return a.v
    return a or 0


def is_kernel_vector(xi, lt):
    """Whether a dual element is a vector of the kernel contract with its
    leading term lt first: 1 there over a base field; over K[t] polynomials
    that ``pp_primitive_row`` leaves as they are."""
    field = xi.field
    if not isinstance(field, FunctionField):
        return xi.coeffs[lt] == field.one()
    scalars = [xi.coeffs[lt]] + [c for e, c in xi.coeffs.items() if e != lt]
    nums = [c.num for c in scalars]
    return all(c.den == 1 for c in scalars) and pp_primitive_row(nums, field.char) == nums


def naive_pp_eval(a, values, base):
    """Reference evaluation of a parameter polynomial, term by term in
    base-field scalars (one per parameter); shares no code with the engine's
    evaluator."""
    acc = base.zero()
    for e, c in a.items():
        term = base.from_int(c)
        for val, d in zip(values, e):
            for _ in range(d):
                term = term * val
        acc = acc + term
    return acc


@pytest.fixture
def P():
    return make_poly


@pytest.fixture
def glex():
    return MonomialOrder("glex")


def load_instance(name):
    inst, options = parse_instance((FIXTURES / name).read_text())
    return inst, options


@pytest.fixture
def example1():
    return load_instance("example1.json")[0]


@pytest.fixture
def example2():
    return load_instance("example2.json")[0]


@pytest.fixture
def example3():
    return load_instance("example3.json")[0]


@pytest.fixture
def example4():
    return load_instance("example4.json")[0]


@pytest.fixture
def example4_perturbed():
    return load_instance("example4_perturbed.json")[0]


@pytest.fixture
def example1_gf():
    return load_instance("example1_gf32003.json")[0]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_multiplicity_cache()
    yield


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis stops at once instead of shrinking the draw."""


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fail a test that runs past TEST_TIME_LIMIT, naming it, instead of
    stalling the suite (SIGALRM: POSIX, main thread only)."""
    main = threading.current_thread() is threading.main_thread()
    if not (main and hasattr(signal, "setitimer")):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
