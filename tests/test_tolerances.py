"""Lint: every tolerance of ``ppbasis`` is a named constant of linalg's table.

Walks the package sources with ``ast`` and fails on a float literal in
(0, 1e-3) outside that table, and on an ``np.allclose`` / ``np.isclose`` call
that leaves ``rtol`` to numpy's hidden default of 1e-5.
"""

import ast
import pathlib

import numpy as np
import pytest

import ppbasis
from ppbasis import Automorphism, BratteliDiagram, GroupTable, MultiMatrixAlgebra, linalg, models
from ppbasis.errors import InvalidInput, NotAProjection

SOURCES = sorted(pathlib.Path(ppbasis.__file__).parent.glob("*.py"))


def offences(source, name):
    tree = ast.parse(source)
    # the table: module-level assignments of linalg
    table = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)} if name == "linalg.py" else set()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-3:
            if id(node) not in table:
                out.append("%s:%d float literal %r" % (name, node.lineno, node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if f.attr in ("allclose", "isclose") and isinstance(f.value, ast.Name) and f.value.id == "np":
                if not any(k.arg == "rtol" for k in node.keywords):
                    out.append("%s:%d np.%s without rtol" % (name, node.lineno, f.attr))
    return out


def test_no_tolerance_outside_the_table():
    found = [o for path in SOURCES for o in offences(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


def test_lint_catches_literals_and_hidden_rtol():
    src = "EPS = 1e-9\n\ndef f(a, b):\n    return np.allclose(a, b, atol=1e-8) and np.isclose(a, b, rtol=0, atol=EPS)\n"
    want = ["linalg.py:4 float literal 1e-08", "linalg.py:4 np.allclose without rtol"]
    assert sorted(offences(src, "linalg.py")) == want
    assert "algebra.py:1 float literal 1e-09" in offences(src, "algebra.py")
    assert offences("x = 0.5 * 1e-3\n", "algebra.py") == []


def test_table_values():
    table = (linalg.EPS_TRACE, linalg.EPS_RANK, linalg.EPS_INPUT, linalg.EPS_REL, linalg.EPS_FLAG, linalg.EPS_WEDD)
    assert table == (1e-12, 1e-10, 1e-10, 1e-9, 1e-8, 1e-7)
    assert (linalg.GAP_TOL, linalg.WEDD_TRIES) == (1e-6, 5)


def test_integer_matrix():
    lam = linalg.integer_matrix([[1.0, 2.0], [0.0, 1.0]], "inclusion matrix")
    assert lam.dtype.kind == "i" and lam.tolist() == [[1, 2], [0, 1]]
    assert linalg.integer_matrix([[3 + 1e-9]], "m").tolist() == [[3]]
    # rtol is 0: numpy's default rtol=1e-5 would have accepted 3 + 1e-7
    for bad in ([[1, -1]], [[0.5]], [1, 2], [[3 + 1e-7]], [[np.nan]], [[2 ** 63]], [[1e300]], [[np.inf]], [True],
                [[True, True]]):
        with pytest.raises(InvalidInput, match="nonnegative integers"):
            linalg.integer_matrix(bad, "m")
    # entries that do not fit an int64 are refused before the cast, which wrapped 2**63
    # round to -2**63 and warned on 1e300
    assert linalg.integers([2 ** 63 - 1], "x").tolist() == [2 ** 63 - 1]
    for bad in ([2 ** 63], [1e300], [2 ** 64]):
        with pytest.raises(InvalidInput, match="^x must be nonnegative integers"):
            linalg.integers(bad, "x")
    with pytest.raises(InvalidInput, match="^inclusion matrix must be nonnegative integers"):
        models.explicit_pair((1,), [[1e300]], trace=(1.0,))


def test_explicit_pair_checks_its_inclusion_matrix_once_per_reader(monkeypatch):
    # explicit_pair, markov_trace and UnitalEmbedding each check Lambda once; a trace vector needs no markov_trace
    calls, check = [], linalg.integer_matrix
    monkeypatch.setattr(linalg, "integer_matrix", lambda a, what: calls.append(what) or check(a, what))
    models.explicit_pair((1, 2), [[1], [1]])
    assert len(calls) == 3
    models.explicit_pair((1, 2), [[1], [1]], trace=(1.0 / 3,))
    assert len(calls) == 5


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: MultiMatrixAlgebra((2.5,), (0.5,)), "block dims"),
        (lambda: MultiMatrixAlgebra(("3",), (1.0 / 3,)), "block dims"),
        (lambda: BratteliDiagram((1.7,), [[2]]), "middle dims"),
        (lambda: Automorphism(MultiMatrixAlgebra((1, 1), (0.5, 0.5)), perm=(1.9, 0.2)), "block permutation"),
        (lambda: GroupTable.from_permutations([(0, 1), (1.5, 0)]), "permutation 1"),
        (lambda: models.diagonal_in_matrix(2.5), "k"),
        (lambda: models.crossed_product_diag(2.5), "k"),
        (lambda: GroupTable.cyclic(2.5), "group order"),
    ],
    ids=["dims-float", "dims-string", "middle-dims", "perm", "permutation", "diag-k", "crossed-k", "cyclic-n"],
)
def test_non_integer_counts_are_invalid_input(build, field):
    # each was truncated by int() or ended in a raw TypeError
    with pytest.raises(InvalidInput, match="^%s must be nonnegative integers" % field):
        build()


def test_integral_counts_are_accepted():
    assert MultiMatrixAlgebra((2.0,), (0.5,)).dims == (2,)
    assert BratteliDiagram((np.int64(1),), [[2]]).middle_dims == (1,)
    assert Automorphism(MultiMatrixAlgebra((1, 1), (0.5, 0.5)), perm=(1.0, 0.0)).perm == (1, 0)
    assert len(GroupTable.cyclic(3.0)) == 3
    assert models.diagonal_in_matrix(np.int64(3)).ambient.dims == (3,)


def test_integer_trace():
    assert linalg.integer_trace(np.eye(3) * (1 + 1e-7), InvalidInput) == 3
    with pytest.raises(NotAProjection, match="non-integer trace"):
        linalg.integer_trace(np.diag([1.0, 0.5]), NotAProjection)
