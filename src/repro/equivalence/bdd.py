"""A small reduced ordered binary decision diagram (ROBDD) package.

The workhorse behind RTL <-> schematic equivalence checking (paper
section 4.1).  Canonical form: two functions over the same manager and
variable order are equivalent iff they are the same node id, so the
equivalence check itself is O(1) after construction.

Implementation notes: unique table keyed by (var, low, high); memoized
ITE; no complement edges (simplicity over constant factors at this
scale).  Node 0 / 1 are the terminals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class _Node:
    var: int   # variable index; terminals use a sentinel beyond all vars
    low: int   # node id when var = 0
    high: int  # node id when var = 1


class BddManager:
    """Owns the node store and the variable order."""

    _TERMINAL_VAR = 1 << 30

    def __init__(self) -> None:
        self._nodes: list[_Node] = [
            _Node(self._TERMINAL_VAR, 0, 0),  # id 0: constant false
            _Node(self._TERMINAL_VAR, 1, 1),  # id 1: constant true
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}

    # -- variables ---------------------------------------------------------

    @property
    def false(self) -> int:
        return 0

    @property
    def true(self) -> int:
        return 1

    def declare(self, *names: str) -> list[int]:
        """Declare variables (order of declaration is the BDD order);
        returns their function nodes."""
        return [self.var(n) for n in names]

    def var(self, name: str) -> int:
        """The function node for a (possibly new) variable."""
        if name not in self._var_index:
            self._var_index[name] = len(self._var_names)
            self._var_names.append(name)
        index = self._var_index[name]
        return self._mk(index, 0, 1)

    def num_vars(self) -> int:
        return len(self._var_names)

    # -- construction ---------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node_id = self._unique.get(key)
        if node_id is None:
            node_id = len(self._nodes)
            self._nodes.append(_Node(var, low, high))
            self._unique[key] = node_id
        return node_id

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: f ? g : h.  The universal connective."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        top = min(self._nodes[f].var, self._nodes[g].var, self._nodes[h].var)
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        result = self._mk(top, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    def _cofactors(self, f: int, var: int) -> tuple[int, int]:
        node = self._nodes[f]
        if node.var == var:
            return node.low, node.high
        return f, f

    # -- boolean operations -------------------------------------------------------

    def not_(self, f: int) -> int:
        return self.ite(f, 0, 1)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, 0)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, 1, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, 1)

    def and_many(self, fs: list[int]) -> int:
        result = 1
        for f in fs:
            result = self.and_(result, f)
        return result

    def or_many(self, fs: list[int]) -> int:
        result = 0
        for f in fs:
            result = self.or_(result, f)
        return result

    # -- analysis --------------------------------------------------------------------

    def evaluate(self, f: int, assignment: dict[str, bool]) -> bool:
        """Evaluate under a (complete for f's support) assignment."""
        node = self._nodes[f]
        while node.var != self._TERMINAL_VAR:
            name = self._var_names[node.var]
            if name not in assignment:
                raise KeyError(f"assignment missing variable {name!r}")
            f = node.high if assignment[name] else node.low
            node = self._nodes[f]
        return f == 1

    def support(self, f: int) -> set[str]:
        """Variables the function actually depends on."""
        seen: set[int] = set()
        out: set[str] = set()
        stack = [f]
        while stack:
            node_id = stack.pop()
            if node_id in seen or node_id < 2:
                continue
            seen.add(node_id)
            node = self._nodes[node_id]
            out.add(self._var_names[node.var])
            stack.extend((node.low, node.high))
        return out

    def any_sat(self, f: int) -> dict[str, bool] | None:
        """One satisfying assignment over f's support, or None."""
        if f == 0:
            return None
        assignment: dict[str, bool] = {}
        node_id = f
        while node_id >= 2:
            node = self._nodes[node_id]
            name = self._var_names[node.var]
            if node.high != 0:
                assignment[name] = True
                node_id = node.high
            else:
                assignment[name] = False
                node_id = node.low
        return assignment

    def count_sat(self, f: int, n_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``n_vars`` variables
        (default: all declared)."""
        if n_vars is None:
            n_vars = self.num_vars()
        cache: dict[int, int] = {}

        def count(node_id: int) -> int:
            # Returns count over variables strictly below this node's var.
            if node_id == 0:
                return 0
            if node_id == 1:
                return 1
            if node_id in cache:
                return cache[node_id]
            node = self._nodes[node_id]
            lo = count(node.low) << self._gap(node.low, node.var)
            hi = count(node.high) << self._gap(node.high, node.var)
            cache[node_id] = lo + hi
            return cache[node_id]

        top_var = self._nodes[f].var if f >= 2 else n_vars
        top_gap = top_var if top_var != self._TERMINAL_VAR else n_vars
        return count(f) << max(0, min(top_gap, n_vars))

    def _gap(self, child: int, parent_var: int) -> int:
        child_var = self._nodes[child].var
        if child_var == self._TERMINAL_VAR:
            child_var = self.num_vars()
        return child_var - parent_var - 1

    def size(self, f: int) -> int:
        """Number of nodes in f's DAG (terminals excluded)."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node_id = stack.pop()
            if node_id < 2 or node_id in seen:
                continue
            seen.add(node_id)
            node = self._nodes[node_id]
            stack.extend((node.low, node.high))
        return len(seen)
