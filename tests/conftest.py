import threading

import pytest


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads, start = [], threading.Thread.start

    def counted(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


@pytest.fixture
def within():
    """within(seconds, fn) runs fn in a daemon thread that must end within the
    given seconds, and returns the exception fn raised, or None."""

    def run_within(seconds, fn):
        raised = []

        def run():
            try:
                fn()
            except BaseException as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), "the call did not end"
        return raised[0] if raised else None

    return run_within
