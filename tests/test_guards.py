"""Where the numerical guards live.

``fedeval.errors`` defines every clamp threshold and every guard rule
(the eigenvalue floor, the cancelling value, finiteness).  Outside it,
each site that clips with ``np.clip``, reads a ``*CLAMP*`` threshold,
tests ``isfinite`` or raises ``NumericalError`` / ``NotPsdError`` is
listed below by module and function, so a new site fails this test
until it is listed here or moved into ``errors``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import fedeval
from fedeval import errors

SRC = Path(fedeval.__file__).resolve().parent

# (module, function, kind) of every guard site outside errors.py.  The
# per-element clips and the finiteness checks of the tile passes stay at
# their loops; the rest are input validation (a ValueError, exit 1) or a
# rule's call with its threshold.
ALLOWED = {
    # a rule's threshold, taken from errors
    ("frechet", "<module>", "import CLAMP"),
    ("frechet", "_distances", "CLAMP"),
    ("frechet", "fid_avg_decomposition", "CLAMP"),
    ("kernelmmd", "<module>", "import CLAMP"),
    ("kernelmmd", "_mmd_result", "CLAMP"),
    # per-element clips at 0 (squared distances; eigenvalues the floor's
    # row mask judges)
    ("frechet", "_references", "np.clip"),
    ("frechet", "_distances", "np.clip"),
    ("kernelmmd", "_gram", "np.clip"),
    ("prdc", "_distances", "np.clip"),
    # the fast path's one boolean, and the tile passes' sums and distances
    ("frechet", "_distances", "isfinite"),
    ("kernelmmd", "_tiled_sums", "isfinite"),
    ("kernelmmd", "_tiled_sums", "raise NumericalError"),
    ("prdc", "_tile_distances", "isfinite"),
    ("prdc", "_tile_distances", "raise NumericalError"),
    # symmetry and Cholesky checks of an input matrix
    ("frechet", "_symmetric", "raise NotPsdError"),
    ("statkit", "_check_mean_cov", "raise NotPsdError"),
    ("statkit", "gaussian_log_density", "raise NotPsdError"),
    # input validation, a ValueError
    ("cli", "parse_grid", "isfinite"),
    ("fedsim", "GeneratorSpec.__post_init__", "isfinite"),
    ("fedsim", "variance_limited_sweep", "isfinite"),
    ("frechet", "_barycenter", "isfinite"),
    ("statkit", "ClientSet.__post_init__", "isfinite"),
    ("statkit", "GaussianStats.from_json_dict", "isfinite"),
    ("statkit", "_check_finite", "isfinite"),
    ("statkit", "_far", "isfinite"),
    ("statkit", "as_embeddings", "isfinite"),
}


def _kind(node: ast.AST) -> str | None:
    """The guard kind of one syntax node, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "isfinite":
            return "isfinite"
        if node.func.attr == "clip" and getattr(node.func.value, "id", "") == "np":
            return "np.clip"
    if isinstance(node, ast.Name) and "CLAMP" in node.id:
        return "CLAMP"
    if isinstance(node, ast.Attribute) and "CLAMP" in node.attr:
        return "CLAMP"
    if isinstance(node, ast.alias) and "CLAMP" in node.name:
        return "import CLAMP"
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        name = getattr(node.exc.func, "id", "")
        if name in ("NumericalError", "NotPsdError"):
            return f"raise {name}"
    return None


def _sites(path: Path) -> set:
    """``(module, function, kind)`` of every guard node in one source file;
    the function is qualified by its enclosing classes and functions,
    ``<module>`` outside any."""
    found = set()

    def visit(node, scope):
        kind = _kind(node)
        if kind is not None:
            found.add((path.stem, scope or "<module>", kind))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_every_guard_site_outside_errors_is_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            found |= _sites(path)
    assert sorted(found - ALLOWED) == [], "new guard sites: move the rule into fedeval.errors"
    assert sorted(ALLOWED - found) == [], "listed guard sites that are gone: drop them here"


def test_thresholds_are_unchanged():
    assert (errors.EIGENVALUE_CLAMP_REL, errors.VALUE_CLAMP, errors.VSTAT_CLAMP) == (1e-8, 1e-8, 1e-10)


EDGES = [np.nan, np.inf, -np.inf, -2e-8, -1.5e-8, -1e-8, -5e-9, -0.0, 0.0, 2.5, 1e308]


@pytest.mark.parametrize("value", EDGES)
def test_cancelling_rule_and_its_array_form_agree(value):
    """The scalar rule raises exactly where the array form's boolean fails,
    and both clamp a passing value to the same bits."""
    passed, clamped = errors._cancelling_rows(np.array([value]), errors.VALUE_CLAMP)
    try:
        got = errors._cancelling(np.float64(value), errors.VALUE_CLAMP, "distance")
    except errors.NumericalError as exc:
        assert not passed[0]
        if np.isfinite(value):
            assert str(exc) == f"distance {float(value)!r} below clamp threshold"
        else:
            assert str(exc) == "distance is not finite"
        return
    assert passed[0]
    assert type(got) is float
    assert repr(got) == repr(float(clamped[0])) == repr(max(value, 0.0))
