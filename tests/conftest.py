import itertools

import pytest

from fdekit import matrix
from fdekit.syntax import App, Var, variables


def _cell(m, conn, args):
    """One cell of m's table for conn, read through `evaluate`."""
    names = [f"x{i}" for i in range(len(args))]
    return matrix.evaluate(m, App(conn, tuple(map(Var, names))),
                           dict(zip(names, args)))


def _reference_equivalence(m, a, b):
    """The first assignment, in product order, on which `evaluate` values a
    and b differently, or None."""
    names = sorted(variables(a) | variables(b))
    for combo in itertools.product(m.values, repeat=len(names)):
        asg = dict(zip(names, combo))
        if matrix.evaluate(m, a, asg) != matrix.evaluate(m, b, asg):
            return asg
    return None


@pytest.fixture
def first_index_calls(monkeypatch):
    """The programs that `matrix._first_index` runs during the test."""
    calls = []
    first_index = matrix._first_index

    def counted(m, program, mask):
        calls.append(program)
        return first_index(m, program, mask)

    monkeypatch.setattr(matrix, "_first_index", counted)
    return calls
