"""Automatic circuit recognition.

Paper section 2.3: "A large challenge caused by our methodology is the
automatic recognition of groups of full custom transistors in their
logical and electrical meanings.  The logical behavior or intent of a
collection of transistors has no inherent pre-defined meaning as normally
provided by traditional cell library approaches.  Subsequently, all logic
and timing constraints along with electrical requirements have to be
automatically and conservatively deduced from the topology and context of
the actual transistors."

This package is that deduction engine:

* :mod:`~repro.recognition.ccc` partitions a flat netlist into
  channel-connected components (CCCs) -- the unit of recognition.
* :mod:`~repro.recognition.conduction` enumerates switch-network
  conduction paths into packed path sets and answers support, filter
  and truth-table queries on them.
* :mod:`~repro.recognition.gates` recognizes complementary static gates
  and extracts their boolean functions from topology alone.
* :mod:`~repro.recognition.families` classifies every CCC into the
  paper's "broad range of logic families": static complementary, dynamic
  (domino), dual-rail, DCVSL, pass-transistor, ratioed, ...
* :mod:`~repro.recognition.clocks` infers clock nets from precharge /
  footer structure and propagates phases through buffers.
* :mod:`~repro.recognition.latches` finds state elements invented
  on-the-fly: feedback storage loops, dynamic storage nodes, SRAM cells.
* :mod:`~repro.recognition.recognizer` runs everything and produces the
  :class:`~repro.recognition.recognizer.RecognizedDesign` consumed by the
  checks (:mod:`repro.checks`) and the timing verifier
  (:mod:`repro.timing`).
"""

from repro.recognition.ccc import ChannelConnectedComponent, extract_cccs
from repro.recognition.conduction import PathSet, conduction_paths
from repro.recognition.families import CircuitFamily, classify_ccc
from repro.recognition.gates import RecognizedGate, recognize_static_gate
from repro.recognition.clocks import infer_clocks
from repro.recognition.latches import StorageNode, find_storage_nodes
from repro.recognition.recognizer import NetKind, RecognizedDesign, recognize
from repro.recognition.direction import FlowDirection, PassNetworkFlow, infer_pass_flow

__all__ = [
    "ChannelConnectedComponent",
    "extract_cccs",
    "PathSet",
    "conduction_paths",
    "CircuitFamily",
    "classify_ccc",
    "RecognizedGate",
    "recognize_static_gate",
    "infer_clocks",
    "StorageNode",
    "find_storage_nodes",
    "NetKind",
    "RecognizedDesign",
    "recognize",
    "FlowDirection",
    "PassNetworkFlow",
    "infer_pass_flow",
]
