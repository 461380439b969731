"""Shared fixtures."""

import pytest

from sigmalab import kernels


def _serial(fn, items):
    for item in items:
        fn(item)


@pytest.fixture
def on_one_thread(monkeypatch):
    """on_one_thread(fn, *args) calls fn(*args) with the work that the
    kernels share with a worker thread run on the calling thread alone."""

    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_on_two_threads", _serial)
            return fn(*args)

    return call
