import threading
import time

import pytest

from sathub import dpll


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test whose own threads (the hub's loop, mirror readers,
    ``parallelize`` children, serve threads) are still alive 2 s after it ends."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    while left := [t.name for t in threading.enumerate() if t not in before]:
        if time.monotonic() > deadline:
            pytest.fail(f"threads still alive 2 s after the test: {left}")
        time.sleep(0.01)


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


@pytest.fixture
def hold(monkeypatch):
    """Decision hook that keeps a solve running until the solve is cancelled.

    The hook waits at the first decision on an event. Every solve control
    sets that event right after its cancel flag, so a held solve stays BUSY
    (or PAUSED) for as long as the test acts on it, however easy its
    instance, and returns UNKNOWN at that decision once cancelled.
    ``hold.release()`` sets the event without a cancel, so held solves go on.
    """
    release = threading.Event()

    class ReleasingControl(dpll.SolveControl):
        def cancel(self) -> None:
            super().cancel()
            release.set()

    monkeypatch.setattr(dpll, "SolveControl", ReleasingControl)

    def hook(decision):
        release.wait()

    hook.release = release.set
    return hook


@pytest.fixture
def hold_runs(hold, monkeypatch):
    """Call it to hold every later solve that sets no ``phases`` by ``hold``.

    A web call or ``parallelize`` cannot pass a decision hook, so this
    patches ``dpll.run`` to pass it. The call returns the list that the
    views of held solves are appended to, in start order.
    """
    views = []

    def install():
        run = dpll.run

        def held_run(view, phases=None, control=None, **kwargs):
            if not phases:
                views.append(view)
                kwargs["on_decision"] = hold
            return run(view, phases, control, **kwargs)

        monkeypatch.setattr(dpll, "run", held_run)
        return views

    return install
