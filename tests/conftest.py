"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child of the test process behind, running or unreaped.

    A study that forks workers must reap every one of them, also when a task
    or the study itself fails.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid gave pid {pid}, status {status})")
