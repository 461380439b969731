"""Shared fixtures."""

from concurrent.futures import Future

import pytest

from sigmalab import kernels


class InlineExecutor:
    """An executor that runs each submitted call at once on the caller."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def on_one_thread(monkeypatch):
    """on_one_thread(fn, *args) calls fn(*args) with the work of the
    kernels' worker thread run on the calling thread instead."""

    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_POOL", InlineExecutor())
            return fn(*args)

    return call
