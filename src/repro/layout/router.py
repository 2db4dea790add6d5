"""A small channel router for macrocell-internal wiring.

Pins live on two horizontal rows (the PMOS row's bottom edge and the
NMOS row's top edge).  Each net gets one horizontal trunk in the channel
between the rows plus vertical branches dropping to its pins -- classic
left-edge channel routing.  Trunk tracks are assigned greedily so that
nets whose x-spans overlap never share a track.

The router's output is what extraction consumes: per-net metal segments
with real lengths and, crucially, *which nets run parallel to which* --
the source of the coupling capacitances that sections 4.2/4.3 obsess
over.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass

from repro.layout.geometry import Rect


@dataclass
class RouteSegment:
    """One routed wire piece (horizontal trunk or vertical branch)."""

    net: str
    rect: Rect
    kind: str  # "trunk" or "branch"
    track: int = -1


def channel_route(
    pins: dict[str, list[tuple[float, float]]],
    channel_y0: float,
    channel_y1: float,
    wire_width: float = 0.5,
    track_pitch: float = 1.5,
) -> list[RouteSegment]:
    """Route each net's pins through the channel.

    Parameters
    ----------
    pins:
        net -> list of (x, y) pin locations (y outside or at the channel
        edges).
    channel_y0 / channel_y1:
        Vertical extent of the routing channel.
    wire_width:
        Drawn metal width.
    track_pitch:
        Vertical distance between trunk tracks.

    Returns the placed segments; raises if the channel is too short for
    the required number of tracks.
    """
    if channel_y1 <= channel_y0:
        raise ValueError("channel has non-positive height")
    if wire_width < 0:
        raise ValueError(f"wire width {wire_width} um is negative")

    # Net spans, sorted by left edge (left-edge algorithm).
    spans: list[tuple[float, float, str]] = []
    for net, locations in pins.items():
        if not locations:
            continue
        xs = [x for x, _y in locations]
        spans.append((min(xs), max(xs), net))
    spans.sort()

    # Greedy track assignment: place each net on the first track whose
    # occupied intervals don't overlap its span.  Spans arrive by left
    # edge, so every interval on a track starts at or before this one,
    # and one placed after another starts past its right edge: the
    # track's last interval ends rightmost and is the only one to test.
    tracks: list[float] = []  # right edge of each track's last interval
    assignment: dict[str, int] = {}
    for x_min, x_max, net in spans:
        for idx, right in enumerate(tracks):
            if right + wire_width < x_min:
                tracks[idx] = x_max
                assignment[net] = idx
                break
        else:
            tracks.append(x_max)
            assignment[net] = len(tracks) - 1

    needed_height = len(tracks) * track_pitch
    if needed_height > (channel_y1 - channel_y0):
        raise ValueError(
            f"channel height {channel_y1 - channel_y0:.2f} um cannot fit "
            f"{len(tracks)} tracks at pitch {track_pitch} um"
        )

    segments: list[RouteSegment] = []
    for x_min, x_max, net in spans:
        track = assignment[net]
        y = channel_y0 + track_pitch * (track + 0.5)
        trunk = Rect("metal1",
                     x_min - wire_width / 2, y - wire_width / 2,
                     x_max + wire_width / 2, y + wire_width / 2,
                     net=net)
        segments.append(RouteSegment(net=net, rect=trunk, kind="trunk", track=track))
        for px, py in pins[net]:
            y_lo, y_hi = sorted((y, py))
            branch = Rect("metal1",
                          px - wire_width / 2, y_lo,
                          px + wire_width / 2, y_hi,
                          net=net)
            segments.append(RouteSegment(net=net, rect=branch, kind="branch", track=track))
    return segments


def parallel_runs(segments: list[RouteSegment],
                  max_gap: float = 3.0) -> list[tuple[str, str, float, float]]:
    """Pairs of distinct-net trunk segments running side by side.

    Returns (net_a, net_b, parallel_length_um, gap_um) tuples -- the
    geometric input to coupling extraction -- in trunk order of
    ``(a, b)``.  Only trunks on adjacent tracks couple meaningfully, so
    each trunk meets just the later trunks one track away.
    """
    trunks = [s for s in segments if s.kind == "trunk"]
    on_track: dict[int, list[int]] = {}
    for j, trunk in enumerate(trunks):
        on_track.setdefault(trunk.track, []).append(j)
    out: list[tuple[str, str, float, float]] = []
    for i, a in enumerate(trunks):
        below = on_track.get(a.track - 1, [])
        above = on_track.get(a.track + 1, [])
        later = heapq.merge(below[bisect_right(below, i):],
                            above[bisect_right(above, i):])
        for b in map(trunks.__getitem__, later):
            if a.net == b.net:
                continue
            run = a.rect.horizontal_overlap(b.rect)
            if run <= 0:
                continue
            gap = a.rect.vertical_gap(b.rect)
            if gap <= max_gap:
                out.append((a.net, b.net, run, gap))
    return out
