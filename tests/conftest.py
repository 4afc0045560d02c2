"""Shared fixtures for the test suite."""

import argparse

import pytest

from repro.graphs import (
    ar_filter,
    dct8,
    elliptic_wave_filter,
    fir,
    hal,
    paper_fig1,
)
from repro.scheduling.resources import ResourceSet


@pytest.fixture
def hal_graph():
    return hal()


@pytest.fixture
def fir_graph():
    return fir()


@pytest.fixture
def ar_graph():
    return ar_filter()


@pytest.fixture
def ewf_graph():
    return elliptic_wave_filter()


@pytest.fixture
def dct_graph():
    return dct8()


@pytest.fixture
def fig1_graph():
    return paper_fig1()


@pytest.fixture
def paper_constraints():
    """The paper's three Figure 3 resource columns."""
    return [
        ResourceSet.parse("2+/-,2*"),
        ResourceSet.parse("4+/-,4*"),
        ResourceSet.parse("2+/-,1*"),
    ]


@pytest.fixture
def two_two():
    return ResourceSet.parse("2+/-,2*")


class _Parsing(Exception):
    """Carries a command's parser out at the moment it would parse."""


@pytest.fixture
def parser_of(monkeypatch):
    """``parser_of(command)``: the argparse parser behind ``repro
    <command>``, taken from the command itself as it starts to parse,
    so the command runs nothing and no parser is declared twice."""
    from repro.__main__ import main

    def intercept(parser, args=None, namespace=None):
        raise _Parsing(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", intercept)

    def parser_of(command):
        with pytest.raises(_Parsing) as parsing:
            main([command])
        return parsing.value.args[0]

    return parser_of
