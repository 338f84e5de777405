"""The CLI on generated argument lists: every run of ``bounds``, ``supz`` and
``cc`` ends with exit code 0, 1 or 2 and no other exception, and whatever it
prints is strict JSON (no NaN or Infinity), or CSV whose numbers are all
finite.  A usage error (exit 2) prints nothing to stdout.

Values are ordinary floats and integers, and the extremes 0, +-1e-320,
+-1e300, nan, inf, empty list entries and non-numbers.  Sizes stay small
(``--n``, ``--N`` and the number of lambdas at most 3, ``--nodes`` at most
64), so that the whole module runs in a few seconds.
"""

from __future__ import annotations

import csv
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_golden import run

EXTREMES = ["0", "1e-320", "-1e-320", "1e300", "-1e300", "nan", "inf", "-inf", "", "x"]

number = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-5, 5).map(str),
                   st.sampled_from(EXTREMES))
numbers = st.lists(number, min_size=0, max_size=3).map(",".join)
size = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(EXTREMES))
fmt = st.sampled_from(["json", "csv"])


def options(**flags):
    """Argument lists holding any subset of ``flags``, each with a drawn value."""
    return st.fixed_dictionaries({}, optional=flags).map(
        lambda d: [a for k, v in d.items() for a in (f"--{k}", v)])


BOUNDS = options(group=st.sampled_from(["heisenberg", "nonisotropic", "product"]),
                 n=size, N=size, lambdas=numbers, p=number, theta=numbers, format=fmt,
                 norm=st.sampled_from(["all", "koranyi", "cc", "koranyi_b", "balogh_tyson"]))
SUPZ = options(norm=st.sampled_from(["koranyi", "cc"]), Q=number, p=number, theta=number,
               nodes=st.one_of(st.integers(-1, 64).map(str), st.sampled_from(EXTREMES)),
               format=fmt)
CC = options(point=st.lists(number, min_size=0, max_size=7).map(",".join), format=fmt)


def _reject(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _finite_cell(cell: str) -> bool:
    if cell.startswith(("[", "{")):
        json.loads(cell, parse_constant=_reject)
        return True
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True


def check(argv):
    code, text = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert text == "", argv
    elif "csv" in argv:
        # the supz dump's comment line holds blank-separated key=value pairs
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        cells = [c for line in comments for pair in line[1:].split() for c in pair.split("=")]
        cells += [c for row in csv.reader(line for line in lines if not line.startswith("#"))
                  for c in row]
        assert all(_finite_cell(c) for c in cells), (argv, text[:500])
    else:
        json.loads(text, parse_constant=_reject)


ROBUST = settings(derandomize=True, deadline=None, max_examples=100)


@ROBUST
@given(BOUNDS)
@example(["--p", "0"])                                 # the default grid holds Q/p
@example(["--group", "product", "--theta", "1e300"])   # a sampled sup that overflows
def test_bounds_on_generated_arguments(argv):
    check(["bounds", *argv])


@ROBUST
@given(SUPZ)
def test_supz_on_generated_arguments(argv):
    check(["supz", *argv])


@ROBUST
@given(CC)
def test_cc_on_generated_arguments(argv):
    check(["cc", *argv])
