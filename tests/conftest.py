import pytest

from sathub import dpll


@pytest.fixture
def run_solvers(monkeypatch):
    """Every ``DpllSolver`` that ``dpll.run`` creates during the test, in order.

    Their ``learned`` lists are the derivations behind each answer.
    """
    solvers = []

    class Recorded(dpll.DpllSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(dpll, "DpllSolver", Recorded)
    return solvers
