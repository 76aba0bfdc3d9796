"""Shared fixtures: the independence tests' `forbid` and the counter of
Fraction arithmetic, `count_fraction_ops`."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

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


@pytest.fixture
def count_fraction_ops(monkeypatch):
    """`with count_fraction_ops() as counts:` counts the calls to Fraction's
    +, - and * methods in the block, by method name, in a Counter."""

    @contextmanager
    def counting():
        counts = Counter()

        def counted(name, method):
            def wrapper(*args):
                counts[name] += 1
                return method(*args)

            return wrapper

        with monkeypatch.context() as m:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
                m.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
            yield counts

    return counting
