import pytest

from fdekit import matrix
from fdekit.syntax import App, Var


def _cell(m, conn, args):
    """One cell of m's table for conn, read through `evaluate`."""
    names = [f"x{i}" for i in range(len(args))]
    return matrix.evaluate(m, App(conn, tuple(map(Var, names))),
                           dict(zip(names, args)))


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
