"""The README commands' outputs, compared with the files under tests/golden/.

Each command listed in tests/golden/manifest.json runs in-process through
``cli.main``, at its README size, and its output is parsed: a JSON payload
as JSON, the supz CSV dump line by line (cells split at ',', its comment
line also at blanks and '=').  The parsed output must have the recorded
structure and exit code, and its strings, integers, booleans and nulls must
match exactly.  Floats must match bit for bit when this run's fingerprint
(NumPy version, machine, and NumPy's enabled CPU dispatch features) is the
one the files were made on.  Elsewhere each float must lie within 1e-12
relative of its recorded value, since NumPy's SIMD exp and sin kernels
differ between CPUs; a failure reports the largest gap and where it is.

A change that moves an output on purpose regenerates every file and the
fingerprint, from the root of a checkout, with

    PYTHONPATH=src python tests/test_golden.py

and lists the moved fields in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from carnot_hardy import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
REL_TOL = 1e-12


def fingerprint() -> dict:
    """What the bits of a float output may depend on: the NumPy build, the
    machine, and the SIMD kernels NumPy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                     # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_dispatch": sorted(f for f in umath.__cpu_dispatch__ if features.get(f))}


def run(argv: list):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _reject(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _scalar(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse(text: str):
    """A JSON payload (NaN and Infinity rejected), or a CSV dump as rows of
    ints, floats and strings."""
    if text.startswith("{"):
        return json.loads(text, parse_constant=_reject)
    return [[_scalar(c) for c in re.split(r"[,= ]", line)] for line in text.splitlines()]


def leaves(got, want, path="$"):
    """(path, got, want) for every leaf of the recorded structure; a dict or
    list whose keys or length differ is a leaf, and so mismatches."""
    if type(got) is type(want) is dict and got.keys() == want.keys():
        for k in want:
            yield from leaves(got[k], want[k], f"{path}.{k}")
    elif type(got) is type(want) is list and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from leaves(g, w, f"{path}[{i}]")
    else:
        yield path, got, want


def compare(got, want, bitwise: bool):
    """(mismatches, largest relative float gap, its path).  Floats are
    mismatches when their bits differ and ``bitwise`` holds; otherwise they
    only feed the largest gap, which the caller holds against REL_TOL."""
    wrong, gap, gap_at = [], 0.0, None
    for path, g, w in leaves(got, want):
        if type(g) is type(w) is float:
            if bitwise:
                if g.hex() != w.hex():
                    wrong.append(f"{path}: {g!r} != {w!r}")
            elif g != w and abs(g - w) / max(abs(g), abs(w)) > gap:
                gap, gap_at = abs(g - w) / max(abs(g), abs(w)), path
        elif type(g) is not type(w) or g != w:
            wrong.append(f"{path}: {g!r} != {w!r}")
    return wrong, gap, gap_at


MANIFEST_DATA = json.loads(MANIFEST.read_text())
ENTRIES = MANIFEST_DATA["outputs"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_readme_command_output_is_golden(entry):
    code, text = run(entry["command"].split())
    assert code == entry["exit"], entry["command"]
    got, want = parse(text), parse((GOLDEN / entry["file"]).read_text())
    bitwise = fingerprint() == MANIFEST_DATA["fingerprint"]
    wrong, gap, gap_at = compare(got, want, bitwise)
    assert not wrong and gap <= REL_TOL, (
        f"{entry['command']}: {len(wrong)} mismatches {wrong[:5]}; largest relative "
        f"float gap {gap:.3g} at {gap_at} (bitwise: {bitwise})")


def test_off_fingerprint_rule_reports_the_largest_gap():
    # off the recorded fingerprint floats are compared within REL_TOL: hand-
    # perturbed copies of a recorded output must report their largest gap
    want = parse((GOLDEN / "verify_identity.json").read_text())
    floats = [path for path, _, w in leaves(want, want) if type(w) is float and w != 0.0]
    assert len(floats) >= 3

    def perturbed(rel: dict, node=want, path="$"):
        """A copy of the output with the float at each path of rel scaled by
        1 + rel[path]; paths as ``leaves`` writes them."""
        if type(node) is dict:
            return {k: perturbed(rel, v, f"{path}.{k}") for k, v in node.items()}
        if type(node) is list:
            return [perturbed(rel, v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node * (1.0 + rel[path]) if path in rel else node

    far, near = floats[1], floats[-1]
    wrong, gap, gap_at = compare(perturbed({far: 1e-9, near: 1e-14}), want, bitwise=False)
    assert wrong == [] and gap_at == far and gap == pytest.approx(1e-9, rel=1e-3)
    assert gap > REL_TOL
    # within the tolerance the output passes, and its gap is still reported
    wrong, gap, gap_at = compare(perturbed({near: 1e-14}), want, bitwise=False)
    assert wrong == [] and gap_at == near and 0.0 < gap <= REL_TOL
    # on the recorded fingerprint every changed bit is a mismatch
    wrong, _, _ = compare(perturbed({far: 1e-9, near: 1e-14}), want, bitwise=True)
    assert [w.split(":")[0] for w in wrong] == [far, near]
    assert compare(want, want, bitwise=False) == ([], 0.0, None)


def regenerate() -> None:
    """Rewrite every output file and the fingerprint from this checkout."""
    for entry in ENTRIES:
        code, text = run(entry["command"].split())
        entry["exit"] = code
        entry["file"] = entry["name"] + (".json" if text.startswith("{") else ".csv")
        (GOLDEN / entry["file"]).write_text(text)
    MANIFEST_DATA["fingerprint"] = fingerprint()
    MANIFEST.write_text(json.dumps(MANIFEST_DATA, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
