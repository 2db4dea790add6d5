"""Differential tests: the layout loops ≡ their quadratic forms.

:func:`repro.layout.router.channel_route` tests a span against each
track's last interval, :func:`repro.layout.router.parallel_runs` pairs
trunks on adjacent tracks only, and
:func:`repro.layout.antenna_geom.antenna_geometry` groups rectangles by
(net, layer) in one pass.  Their old forms live in ``tests/oracles.py``;
outputs must be equal, floats included, on the pins, segments and
layout of a ``chip_scale(1000)`` macrocell and on random pin sets.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.designs import chip_scale
from repro.layout import macrocell
from repro.layout.antenna_geom import antenna_geometry
from repro.layout.router import channel_route, parallel_runs
from repro.netlist.flatten import flatten
from tests import oracles


@pytest.fixture(scope="module")
def chip_macrocell():
    """The chip's macrocell plus every pin set its router was given."""
    flat = flatten(chip_scale(1000).cell)
    calls = []
    real = macrocell.channel_route

    def recording(pins, **kwargs):
        calls.append((pins, kwargs))
        return real(pins, **kwargs)

    macrocell.channel_route = recording
    try:
        mc = macrocell.generate_macrocell("chip1000", flat.transistors)
    finally:
        macrocell.channel_route = real
    return flat, mc, calls


def _route_or_error(route, pins, **kwargs):
    try:
        return route(pins, **kwargs)
    except ValueError:
        return ValueError


def test_chip_routes_match_every_interval_scan(chip_macrocell):
    _, mc, calls = chip_macrocell
    assert calls and len(calls[-1][0]) > 100
    for pins, kwargs in calls:
        assert (_route_or_error(channel_route, pins, **kwargs)
                == _route_or_error(oracles.reference_channel_route, pins,
                                   **kwargs))


def test_chip_parallel_runs_match_every_pair_scan(chip_macrocell):
    _, mc, _ = chip_macrocell
    runs = parallel_runs(mc.segments)
    assert runs
    assert runs == mc.couplings == oracles.reference_parallel_runs(mc.segments)
    for max_gap in (0.0, 1.0, 10.0):
        assert (parallel_runs(mc.segments, max_gap)
                == oracles.reference_parallel_runs(mc.segments, max_gap))


def test_chip_antenna_geometry_matches_per_net_scan(chip_macrocell):
    flat, mc, _ = chip_macrocell
    got = antenna_geometry(mc.layout, flat)
    assert any(g.metal_area_um2 for g in got)
    assert got == oracles.reference_antenna_geometry(mc.layout, flat)
    layers = ("metal1", "poly")
    assert (antenna_geometry(mc.layout, flat, 0.25, layers)
            == oracles.reference_antenna_geometry(mc.layout, flat, 0.25,
                                                  layers))


pin_x = st.floats(min_value=0.0, max_value=100.0)


@st.composite
def pin_sets(draw):
    pins = {}
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        xs = draw(st.lists(pin_x, min_size=0, max_size=4))
        pins[f"n{i}"] = [(x, 10.0 if k % 2 == 0 else -10.0)
                         for k, x in enumerate(xs)]
    return pins


@given(pin_sets(), st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_router_matches_every_interval_scan(pins, wire_width, track_pitch,
                                            max_gap):
    kwargs = dict(channel_y0=-8.0, channel_y1=8.0, wire_width=wire_width,
                  track_pitch=track_pitch)
    got = _route_or_error(channel_route, pins, **kwargs)
    assert got == _route_or_error(oracles.reference_channel_route, pins,
                                  **kwargs)
    if got is not ValueError:
        assert (parallel_runs(got, max_gap)
                == oracles.reference_parallel_runs(got, max_gap))


def test_router_rejects_a_negative_wire_width():
    with pytest.raises(ValueError, match="negative"):
        channel_route({"a": [(0.0, 5.0), (3.0, -5.0)]}, -4.0, 4.0,
                      wire_width=-0.5)
