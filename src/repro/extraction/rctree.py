"""RC trees and ladders: distributed interconnect models.

Timing needs more than lumped C on resistive nets (section 4.3 and
Figure 5: "a large inverter is commonly implemented with many smaller
transistor fingers distributed across a large area along the output
node ... tied into multiple positions along the RC grid").

:class:`RCTree` is a rooted tree of resistive segments with node
capacitances; it provides Elmore delays (the standard pessimistic-ish
first moment) to any node.  :func:`uniform_ladder` builds the N-section
approximation of a distributed line, with arbitrary tap positions for
the Figure-5 multi-finger study.

Delay kernels are linear-time: one iterative post-order pass
accumulates downstream capacitance for every node, one pre-order pass
turns those into Elmore delays for every node (:meth:`RCTree.elmore_all`).
Both passes are cached and invalidated only when the tree itself
changes (:meth:`add_node` / :meth:`add_cap`), so a Fig-5 multi-tap
study over an N-section ladder costs O(N), not O(N^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class _TreeNode:
    name: str
    parent: str | None
    r_to_parent: float
    cap: float
    children: list[str] = field(default_factory=list)


class RCTree:
    """A rooted RC tree.

    Build with :meth:`add_node`; the root is created in the constructor
    with zero upstream resistance.  All resistances in ohms, caps in
    farads, delays in seconds.
    """

    def __init__(self, root: str = "root", root_cap: float = 0.0):
        self.root = root
        self._nodes: dict[str, _TreeNode] = {
            root: _TreeNode(name=root, parent=None, r_to_parent=0.0, cap=root_cap)
        }
        # Linear-pass caches: preorder node list (parents before children)
        # and downstream capacitance per node.  Invalidated on mutation.
        self._preorder: list[str] | None = None
        self._down: dict[str, float] | None = None

    def _invalidate(self) -> None:
        self._preorder = None
        self._down = None

    def add_node(self, name: str, parent: str, resistance: float, cap: float) -> None:
        """Attach a node below ``parent`` through ``resistance``."""
        if name in self._nodes:
            raise ValueError(f"RC tree already has a node {name!r}")
        if parent not in self._nodes:
            raise KeyError(f"RC tree has no parent node {parent!r}")
        if resistance < 0 or cap < 0:
            raise ValueError("resistance and capacitance must be non-negative")
        self._nodes[name] = _TreeNode(name=name, parent=parent,
                                      r_to_parent=resistance, cap=cap)
        self._nodes[parent].children.append(name)
        self._invalidate()

    def add_cap(self, node: str, cap: float) -> None:
        """Add load capacitance at an existing node."""
        self._nodes[node].cap += cap
        self._invalidate()

    def nodes(self) -> list[str]:
        return list(self._nodes)

    # -- linear kernels --------------------------------------------------------

    def _refresh(self) -> None:
        """One post-order sweep: downstream cap for every node, cached."""
        if self._down is not None:
            return
        preorder: list[str] = []
        stack = [self.root]
        while stack:
            name = stack.pop()
            preorder.append(name)
            # reversed() keeps visit order equal to child insertion order.
            stack.extend(reversed(self._nodes[name].children))
        down = {name: self._nodes[name].cap for name in preorder}
        for name in reversed(preorder):
            node = self._nodes[name]
            if node.parent is not None:
                down[node.parent] += down[name]
        self._preorder = preorder
        self._down = down

    def total_cap(self) -> float:
        self._refresh()
        return self._down[self.root]  # type: ignore[index]

    def downstream_cap(self, node: str) -> float:
        """Capacitance at and below a node (cached linear pass)."""
        if node not in self._nodes:
            raise KeyError(f"RC tree has no node {node!r}")
        self._refresh()
        return self._down[node]  # type: ignore[index]

    def path_to_root(self, node: str) -> list[str]:
        path = [node]
        while self._nodes[path[-1]].parent is not None:
            path.append(self._nodes[path[-1]].parent)  # type: ignore[arg-type]
        return path

    def elmore_all(self, driver_resistance: float = 0.0) -> dict[str, float]:
        """Elmore delay from the driven root to *every* node, in one
        pre-order pass over the cached downstream caps.

        ``driver_resistance`` models the switching transistor: it sees
        the tree's total capacitance.  Each segment then adds
        R_segment * (cap at and below its far end), accumulated
        root-to-leaf, so the whole tree prices in O(N).
        """
        self._refresh()
        down = self._down
        delays: dict[str, float] = {}
        base = driver_resistance * down[self.root]  # type: ignore[index]
        for name in self._preorder:  # type: ignore[union-attr]
            node = self._nodes[name]
            if node.parent is None:
                delays[name] = base
            else:
                delays[name] = delays[node.parent] + node.r_to_parent * down[name]
        return delays

    def elmore_delay(self, node: str, driver_resistance: float = 0.0) -> float:
        """Elmore delay from the (resistively driven) root to ``node``.

        Accumulates the same root-to-leaf sum as :meth:`elmore_all`
        (bit-identical), touching only the root path.
        """
        if node not in self._nodes:
            raise KeyError(f"RC tree has no node {node!r}")
        self._refresh()
        delay = driver_resistance * self._down[self.root]  # type: ignore[index]
        for name in reversed(self.path_to_root(node)):
            tree_node = self._nodes[name]
            if tree_node.parent is None:
                continue
            delay += tree_node.r_to_parent * self._down[name]  # type: ignore[index]
        return delay

    def worst_elmore(self, driver_resistance: float = 0.0) -> tuple[str, float]:
        """(node, delay) of the slowest node -- one O(N) sweep."""
        delays = self.elmore_all(driver_resistance)
        worst_node = self.root
        worst = delays[self.root]
        for name in self._nodes:
            d = delays[name]
            if d > worst:
                worst_node, worst = name, d
        return worst_node, worst

    def resistance_to(self, node: str) -> float:
        """Total path resistance root -> node."""
        return sum(self._nodes[n].r_to_parent for n in self.path_to_root(node))


def uniform_ladder(
    sections: int,
    total_resistance: float,
    total_cap: float,
    root: str = "root",
    prefix: str = "n",
) -> RCTree:
    """An N-section uniform RC ladder approximating a distributed line.

    Node names are ``<prefix>1 .. <prefix>N``; each section carries
    R/N and C/N (half-section end effects ignored -- adequate at the
    section counts used here).
    """
    if sections < 1:
        raise ValueError("ladder needs at least one section")
    tree = RCTree(root=root, root_cap=0.0)
    r = total_resistance / sections
    c = total_cap / sections
    parent = root
    for i in range(1, sections + 1):
        name = f"{prefix}{i}"
        tree.add_node(name, parent, resistance=r, cap=c)
        parent = name
    return tree


def ladder_tap_names(sections: int, taps: int, prefix: str = "n") -> list[str]:
    """Evenly spaced tap node names along a ladder (for multi-finger
    drivers tapping the output grid at several points, Figure 5)."""
    if taps < 1 or taps > sections:
        raise ValueError("tap count must be in 1..sections")
    positions = [round((i + 1) * sections / taps) for i in range(taps)]
    return [f"{prefix}{max(1, p)}" for p in positions]
