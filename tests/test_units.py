"""Unit helpers: conversion and clamping."""

import pytest

from repro.units import clamp, ms


def test_ms_roundtrip():
    assert ms(1500.0) == pytest.approx(1.5)


def test_clamp_inside_and_outside():
    assert clamp(0.5, 0.0, 1.0) == 0.5
    assert clamp(-1.0, 0.0, 1.0) == 0.0
    assert clamp(2.0, 0.0, 1.0) == 1.0


def test_clamp_rejects_empty_interval():
    with pytest.raises(ValueError):
        clamp(0.5, 1.0, 0.0)
