"""Shared fixtures for the independence tests."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from mspkit import msp, poly, ptypes, series, stirling


class Forbidden:
    """Stands in for a function or module that a path must not use."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was called")

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was used")


@pytest.fixture
def forbid(monkeypatch):
    """`with forbid(*names):` makes each name fail when used, wherever msp,
    poly, ptypes, stirling or series holds it, until the block ends."""

    @contextmanager
    def forbidden(*names):
        with monkeypatch.context() as m:
            for name in names:
                for module in (msp, poly, ptypes, stirling, series):
                    if hasattr(module, name):
                        m.setattr(module, name, Forbidden(name))
            yield

    return forbidden
