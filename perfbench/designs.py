"""The designs and inputs the workloads submit.

Every generated input here is a function of the run's seed, and each is
built so that any seed does the same amount of work and yields the same
canonical report.  That is what lets one committed reference digest and
one set of exact work counters gate every seed (see ``README.md``).
"""

from __future__ import annotations

import random

from repro.core.campaign import DesignBundle
from repro.designs import chip_scale
from repro.designs.adders import domino_carry_adder
from repro.process.technology import strongarm_technology
from repro.timing.clocking import TwoPhaseClock

#: Clock cycles of shared-bus stimulus applied before the SRAM writes.
CHIP_CYCLES = 6
#: SRAM writes: (tile slot, row slot, column, value).  The seed maps row
#: slots onto word lines.
SRAM_WRITES = ((0, 0, 0, 1), (1, 1, 2, 0), (0, 2, 1, 0), (1, 3, 3, 1))

#: Prefix of the service workload's design names.
VARIANT_PREFIX = "pbv"


def _is_tile_port(port: str) -> bool:
    head = port.split("_", 1)[0]
    return head.startswith("t") and head[1:].isdigit()


def chip_vectors(cs, rng: random.Random) -> tuple[dict, ...]:
    """Switch-level stimulus for a :func:`repro.designs.chip_scale` design.

    The shared buses (clock, data, enables) follow a fixed pattern, and
    the writes go to fixed columns of the first two SRAM tiles.  The
    seed picks which rows (word lines) the writes use.  The rows of an
    SRAM array are identical copies, so every choice is a symmetry of
    the design: the simulated work and the canonical report do not
    depend on the seed, which all 24 row orders were checked to confirm
    at both chip scales.  Values, tiles and columns stay fixed: a 0 and
    a 1 cost different work, and so, through the vector engine's
    evaluation order, can the choice of tile or column.
    """
    shared = sorted(p for p in cs.stimulus_ports if not _is_tile_port(p))
    tiles = sorted({p.split("_", 1)[0] for p in cs.stimulus_ports
                    if _is_tile_port(p)}, key=lambda t: int(t[1:]))
    bitlines = sorted(p for p in cs.stimulus_ports if _is_tile_port(p))
    idle = {p: (1 if "we_b" in p else 0) for p in shared}
    steps = [dict(idle, **{p: 1 for p in bitlines})]
    data = [p for p in shared if p == "cin" or p.startswith(("d", "rf_d"))]
    for k in range(CHIP_CYCLES):
        bits = {p: (k + j) % 3 & 1 for j, p in enumerate(data)}
        entry = k % 2
        steps.append(dict(bits, clk_in=1))
        steps.append({f"we{entry}": 1, f"we_b{entry}": 0,
                      f"rf_we{entry}": 1, f"rf_we_b{entry}": 0})
        steps.append({f"we{entry}": 0, f"we_b{entry}": 1,
                      f"rf_we{entry}": 0, f"rf_we_b{entry}": 1,
                      f"ra{entry}": 1, f"rf_re{entry}": 1})
        steps.append({"clk_in": 0, f"ra{entry}": 0, f"rf_re{entry}": 0})
    row_of = rng.sample(range(4), 4)
    for tile_slot, row_slot, col, value in SRAM_WRITES:
        tile = tiles[tile_slot]
        bl, bl_b = f"{tile}_bl{col}", f"{tile}_bl_b{col}"
        wl = f"wl{row_of[row_slot]}"
        steps.append({bl: value, bl_b: 1 - value})
        steps.append({wl: 1})
        steps.append({wl: 0})
        steps.append({bl: 1, bl_b: 1})
    return tuple(steps)


def chip_bundle(target: int, seed: int, use_layout: bool) -> DesignBundle:
    """A ``chip_scale(target)`` bundle with seeded switch-level vectors."""
    cs = chip_scale(target)
    return DesignBundle(
        name=f"chip{target}",
        cell=cs.cell,
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=10e-9),
        clock_hints=(cs.clock_port,),
        functional_vectors=chip_vectors(cs, random.Random(seed)),
        use_layout=use_layout,
    )


def variant_name(i: int) -> str:
    return f"{VARIANT_PREFIX}{i:05d}"


def variant_bundle(i: int) -> DesignBundle:
    """Service design ``i``: a 4-bit domino adder named after ``i``.

    Only the name differs between variants, so each has its own
    fingerprint and verdict key while the canonical reports agree once
    the name is masked (:func:`perfbench.stats.masked_digest`).
    """
    name = variant_name(i)
    return DesignBundle(
        name=name,
        cell=domino_carry_adder(4, name=name),
        technology=strongarm_technology(),
        clock=TwoPhaseClock(period_s=6.25e-9),
        use_layout=False,
    )


def variant_ref(i: int) -> str:
    """The ``module:attr`` bundle ref the service resolves for design ``i``."""
    return f"{__name__}:{VARIANT_PREFIX}_{i}"


def __getattr__(attr: str):
    # Bundle refs name a zero-argument factory; variants are made on
    # demand rather than installed as thousands of module attributes.
    prefix = f"{VARIANT_PREFIX}_"
    if attr.startswith(prefix) and attr[len(prefix):].isdigit():
        index = int(attr[len(prefix):])
        return lambda: variant_bundle(index)
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
