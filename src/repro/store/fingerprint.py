"""Canonical design fingerprints for checkpoint keys.

The artifact store (:mod:`repro.store.artifact`) files every checkpoint
under a key derived from the *inputs* that produced it.  A fingerprint
here is a SHA-256 digest over a canonical, order-independent rendering
of one input component:

* ``topology``  -- the netlist graph: cells, ports, element names and
  their net connections, instance wiring.  Renaming the design does not
  change it; rewiring one gate does.
* ``geometry``  -- device sizes (W / L / L-add), capacitor and resistor
  values.  Resizing a transistor changes geometry but not topology.
* ``technology`` -- every process parameter (device models, wire stack,
  oxide), plus the corner-spec table, so a corner recalibration
  invalidates electrical results.
* behavioural inputs -- clock, clock hints, check settings, pessimism
  knobs, RTL intent (hashed by code object, see
  :func:`fingerprint_callable`).

Stage keys combine exactly the components a stage consumes (see
:mod:`repro.store.checkpoint`), so an edit invalidates the stages whose
inputs changed and nothing else: a pessimism tweak re-prices timing but
replays recognition; a resize re-runs the electrical stages but keeps
nothing stale alive.

Floats are rendered with :func:`repr` (shortest round-trip form), so a
fingerprint is exact -- no epsilon: any bit-level change to a width or a
threshold is a different design.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

from repro.netlist.cell import Cell

#: Bump when the canonical rendering (or any checkpointed payload shape)
#: changes incompatibly; old store entries simply stop matching.
FINGERPRINT_SCHEMA_VERSION = 2


def _digest(obj) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonicalize(obj):
    """Render ``obj`` as a deterministic JSON-able structure.

    Handles the value types that appear in design inputs: dataclasses,
    enums, containers, scalars, and callables.  Unknown types raise
    ``TypeError`` so a new input kind must be considered explicitly
    rather than silently fingerprinting its ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.value]
    if isinstance(obj, Cell):
        return ["cell", fingerprint_cell_topology(obj),
                fingerprint_cell_geometry(obj)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonicalize(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return ["dc", type(obj).__name__, fields]
    if isinstance(obj, dict):
        return ["map", sorted(
            ([canonicalize(k), canonicalize(v)] for k, v in obj.items()),
            key=lambda kv: json.dumps(kv[0], sort_keys=True))]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonicalize(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        rendered = [canonicalize(v) for v in obj]
        return ["set", sorted(rendered,
                              key=lambda v: json.dumps(v, sort_keys=True))]
    if callable(obj):
        return ["fn", fingerprint_callable(obj)]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} for fingerprinting")


def fingerprint_callable(fn) -> str:
    """Digest of a callable's *behaviour*: its compiled code.

    Hashes the code object (bytecode, constants, names), defaults, and
    closure-captured values, so two processes compiled from the same
    source agree, and editing the function body -- or the constant a
    factory baked into it -- changes the digest.  Stable only within one
    Python version -- a version bump invalidates, which is the safe
    direction for a checkpoint key.
    """
    code = getattr(fn, "__code__", None)
    if code is None:
        # Class instances / builtins: fall back to the qualified name.
        name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
        return _digest(["callable", name])

    def render_const(c):
        if type(c) is type(code):  # nested code object (comprehension etc.)
            return render_code(c)
        try:
            return canonicalize(c)
        except TypeError:
            return ["repr", repr(c)]

    def render_code(co):
        return ["code", co.co_name, co.co_argcount, co.co_code.hex(),
                [render_const(c) for c in co.co_consts],
                list(co.co_names), list(co.co_varnames[:co.co_argcount]),
                list(co.co_freevars)]

    defaults = [render_const(d) for d in (fn.__defaults__ or ())]
    closure = []
    for name, cellv in zip(code.co_freevars, fn.__closure__ or ()):
        try:
            closure.append([name, render_const(cellv.cell_contents)])
        except ValueError:  # uninitialized cell
            closure.append([name, ["unbound"]])
    return _digest([render_code(code), defaults, closure])


def _cells_by_name(top: Cell) -> list[Cell]:
    """Every distinct cell of the hierarchy, sorted by (unique) name.

    Uses :meth:`Cell.all_cells`, which already enforces one definition
    per name, so shared sub-cells are rendered exactly once -- the walk
    is linear in the number of *definitions*, not instances.
    """
    return [cell for _, cell in sorted(top.all_cells().items())]


def fingerprint_cell_topology(top: Cell) -> str:
    """Digest of the connectivity graph only (no sizes, no values)."""
    rendering = []
    for cell in _cells_by_name(top):
        rendering.append([
            cell.name,
            list(cell.ports),
            sorted([t.name, t.polarity, t.gate, t.drain, t.source,
                    t.body or ""] for t in cell.transistors),
            sorted([c.name, c.a, c.b] for c in cell.capacitors),
            sorted([r.name, r.a, r.b] for r in cell.resistors),
            sorted([i.name, i.cell.name,
                    sorted([p, n] for p, n in i.connections.items())]
                   for i in cell.instances),
        ])
    return _digest(["topology", top.name, rendering])


def fingerprint_cell_geometry(top: Cell) -> str:
    """Digest of device geometry and element values only."""
    rendering = []
    for cell in _cells_by_name(top):
        rendering.append([
            cell.name,
            sorted([t.name, repr(t.w_um), repr(t.l_um), repr(t.l_add_um)]
                   for t in cell.transistors),
            sorted([c.name, repr(c.cap_f)] for c in cell.capacitors),
            sorted([r.name, repr(r.res_ohm)] for r in cell.resistors),
        ])
    return _digest(["geometry", top.name, rendering])


def fingerprint_value(obj) -> str:
    """Digest of an arbitrary canonicalizable value."""
    return _digest(canonicalize(obj))


def fingerprint_seed_plan(campaign_seed: int, stream: str, total: int) -> str:
    """Digest of one scenario campaign's seed-derivation plan.

    A fuzz or Monte-Carlo campaign is fully determined by its campaign
    seed, its named derivation stream, and how many per-sample seeds it
    draws (see :func:`repro.scenarios.derive_seed`); this digest is the
    checkpoint-key component that makes a shard's stored results
    unreachable from any campaign that would replay different stimulus.
    """
    return _digest(["seed-plan", FINGERPRINT_SCHEMA_VERSION,
                    int(campaign_seed), str(stream), int(total)])
