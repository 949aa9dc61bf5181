import pytest

from fdekit import matrix


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
