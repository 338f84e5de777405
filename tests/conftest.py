import pytest


@pytest.fixture
def polish_runs(monkeypatch):
    """Each polish of a Sobol-scan winner that the test runs, as
    (objective, start, row counts of the polish's objective calls)."""
    from carnot_hardy import zfield
    polish, runs = zfield._polish_max, []

    def recorded(f, x0, value0, width):
        calls = []

        def counted(x):
            calls.append(len(x))
            return f(x)

        runs.append((f, x0, calls))
        return polish(counted, x0, value0, width)

    monkeypatch.setattr(zfield, "_polish_max", recorded)
    return runs
