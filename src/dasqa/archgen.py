"""Application-specific architecture generation.

Turns the weighted interaction graph of a circuit into a high-level
architecture: a planar grid placement of the qubits (stored as a matrix with
-1 marking empty cells), a coupling graph over grid-adjacent pairs, and a
per-qubit frequency assignment that keeps neighbouring and next-nearest
qubits detuned from each other.

All three stages are deterministic: identical inputs produce bit-identical
architectures.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from itertools import accumulate
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import MAX_QUBITS as MAX_COUPLING_QUBITS, InteractionGraph, QuantumCircuit, interaction_graph
from .config import FREQ_EPS, DesignConfig
from .errors import ArchitectureError, DasqaError, FrequencyAllocationError, PlacementError, read_text
from .jsontext import dumps

# cells x (qubits + 1): a pick next to no placed qubit scans the free cells, and the
# exchange pass keeps tables of cells x qubits
MAX_PLACEMENT_WORK = 200_000

EMPTY = -1


class CouplingGraph:
    """Undirected graph over physical qubits 0..num_qubits-1."""

    def __init__(self, num_qubits: int, edges):
        if num_qubits < 0:
            raise ArchitectureError("negative qubit count")
        self.num_qubits = num_qubits
        norm = set()
        for a, b in edges:
            if a == b:
                raise ArchitectureError(f"self-loop on qubit {a}")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ArchitectureError(f"edge ({a},{b}) out of range")
            norm.add((min(a, b), max(a, b)))
        self.edges = frozenset(norm)
        self._adj: dict[int, set[int]] = {q: set() for q in range(num_qubits)}
        for a, b in self.edges:
            self._adj[a].add(b)
            self._adj[b].add(a)
        self._dist: np.ndarray | None = None
        self._hops: tuple[tuple[int, ...], ...] | None = None

    def neighbors(self, q: int) -> set[int]:
        return self._adj[q]

    def degree(self, q: int) -> int:
        return len(self._adj[q])

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def distances(self) -> np.ndarray:
        """All-pairs shortest path lengths (BFS); unreachable = -1."""
        if self._dist is None:
            self._shortest_paths()
        return self._dist

    def hop_table(self) -> tuple[tuple[int, ...], ...]:
        """The :meth:`distances` as nested tuples, unreachable pairs costing
        ``num_qubits**2``: the cost table of initial mapping and routing,
        kept by the graph like its distances."""
        if self._hops is None:
            self._shortest_paths()
        return self._hops

    def _shortest_paths(self) -> None:
        """Both distance tables, from one BFS per qubit."""
        n = self.num_qubits
        rows = []
        for src in range(n):
            row = [-1] * n
            row[src] = 0
            frontier = [src]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in self._adj[u]:
                        if row[v] < 0:
                            row[v] = d
                            nxt.append(v)
                frontier = nxt
            rows.append(row)
        self._dist = np.array(rows, dtype=np.int64).reshape(n, n)
        unreachable = n * n
        self._hops = tuple([tuple([d if d >= 0 else unreachable for d in row]) for row in rows])

    def is_connected(self) -> bool:
        """One search from qubit 0 reaches every qubit; no distance table is built."""
        if self.num_qubits == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for v in self._adj[stack.pop()] - seen:
                seen.add(v)
                stack.append(v)
        return len(seen) == self.num_qubits

    def second_neighbors(self, q: int) -> set[int]:
        """Qubits at shortest-path distance exactly 2 from ``q``: neighbours' neighbours."""
        adjacent = self._adj[q]
        return {v for u in adjacent for v in self._adj[u]} - adjacent - {q}

    def next_nearest_pairs(self) -> list[tuple[int, int]]:
        """Pairs at shortest-path distance exactly 2, sorted."""
        return [
            (a, b)
            for a in range(self.num_qubits)
            for b in sorted(self.second_neighbors(a))
            if b > a
        ]

    def __eq__(self, other):
        return (
            isinstance(other, CouplingGraph)
            and self.num_qubits == other.num_qubits
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"CouplingGraph(num_qubits={self.num_qubits}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class Architecture:
    """Grid layout (-1 = empty cell), coupling graph and frequency vector."""

    layout: np.ndarray
    coupling: CouplingGraph
    frequencies: np.ndarray

    @property
    def num_qubits(self) -> int:
        return self.coupling.num_qubits

    def validate(self, config: DesignConfig | None = None) -> None:
        """Raise ArchitectureError if any structural invariant is broken."""
        n = self.num_qubits
        vals = sorted(int(v) for v in self.layout.ravel() if v != EMPTY)
        if vals != list(range(n)):
            raise ArchitectureError("layout must contain each qubit index exactly once")
        adjacent = set(_adjacent_pairs(self.layout))
        for a, b in self.coupling.edges:
            if (a, b) not in adjacent:  # edges and pairs are both (low, high)
                raise ArchitectureError(f"coupling edge ({a},{b}) joins non-adjacent cells")
        if len(self.frequencies) != n:
            raise ArchitectureError("frequency vector length must equal qubit count")
        if config is not None:
            fc = config.frequency
            lo, hi = fc.band_lo_ghz, fc.band_hi_ghz
            for q, f in enumerate(self.frequencies):
                if not (lo - FREQ_EPS <= f <= hi + FREQ_EPS):
                    raise ArchitectureError(f"frequency of qubit {q} outside band [{lo}, {hi}]")
            if any(self.coupling.degree(q) > config.grid.max_degree for q in range(n)):
                raise ArchitectureError("coupling degree exceeds configured max_degree")
            bad = detuning_violations(
                self.coupling,
                self.frequencies,
                fc.min_adjacent_detuning_ghz,
                fc.min_next_detuning_ghz,
            )
            if bad:
                raise ArchitectureError(f"detuning violations: {bad}")

    def to_json(self) -> str:
        return dumps({
            "num_qubits": self.num_qubits,
            "layout": [[int(v) for v in row] for row in self.layout],
            "edges": [list(e) for e in self.coupling.sorted_edges()],
            "frequencies_ghz": [float(f) for f in self.frequencies],
        }) + "\n"


def load_coupling(path: str | Path) -> CouplingGraph:
    """Read a coupling graph from JSON: {"num_qubits": n, "edges": [[a,b],...]}.

    ``n`` may be at most ``MAX_COUPLING_QUBITS``.
    """
    text = read_text(path, "coupling", DasqaError)
    try:
        data = json.loads(text)
        n, edges = data["num_qubits"], [tuple(e) for e in data["edges"]]
        for value in (n, *(q for edge in edges for q in edge)):
            if type(value) is not int:  # a JSON integer: not true, 5.0 or "5"
                raise ValueError(f"qubit number {json.dumps(value)} is not an integer")
        if n > MAX_COUPLING_QUBITS:
            raise ValueError(f"num_qubits {n} is more than the {MAX_COUPLING_QUBITS} allowed")
        return CouplingGraph(n, edges)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ArchitectureError) as exc:
        raise DasqaError(f"malformed coupling file {path}: {exc}") from exc


def _grid_shape(num_qubits: int, config: DesignConfig) -> tuple[int, int]:
    rows, cols = config.grid.rows, config.grid.cols
    if rows is None and cols is None:
        side = math.isqrt(num_qubits - 1) + 1 if num_qubits > 1 else 1  # smallest square
        return side, side
    if rows is None or cols is None:
        fixed = rows if rows is not None else cols
        other = -(-num_qubits // fixed)  # ceil division
        return (fixed, max(other, 1)) if rows is not None else (max(other, 1), fixed)
    return rows, cols


def _dense_ranks(keys: list) -> list[int]:
    """Each key's index among the distinct keys in sorted order."""
    index = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [index[key] for key in keys]


def _refined_keys(ig: InteractionGraph, seed: dict[int, int]):
    """Label-independent qubit signatures as integer ranks, one list per round.

    Ranks start from a per-qubit seed color (the placement rank of placed
    qubits, -1 for the others) plus the weighted degree. Each of up to three
    rounds keys a qubit by its rank and the sorted (edge weight, neighbour
    rank) pairs and relabels the keys to dense ranks in sorted order
    (Weisfeiler-Leman colour refinement): ranks compare as the nested tuples
    of all rounds so far would, so a round only splits classes, and once one
    splits none the rest are skipped. Qubits that differ structurally - or
    relate differently to the seeded ones - get different ranks even when
    their weighted degrees tie, keeping placement stable under relabeling.
    """
    n, incident = ig.num_qubits, ig.incident
    rank = _dense_ranks([(seed.get(q, -1), ig.weighted_degree(q)) for q in range(n)])
    yield rank
    for _ in range(3):
        # w*n + rank sorts as (w, rank) does, since every rank is below n
        refined = _dense_ranks(
            [(rank[q], tuple(sorted([w * n + rank[u] for w, u in incident[q]]))) for q in range(n)]
        )
        if refined == rank:
            return
        rank = refined
        yield rank


def _grid_neighbors(rows: int, cols: int) -> list[list[int]]:
    """Cell ``r*cols + c`` -> its in-grid neighbour cells (up, down, left, right)."""
    return [
        [rr * cols + cc for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
         if 0 <= rr < rows and 0 <= cc < cols]
        for r in range(rows) for c in range(cols)
    ]


class _GridAdjacency(dict):
    """Cell -> row over all cells: -1 at its grid neighbours, else 0. Only cells
    that have held a qubit get a row, built on first use, so a sparse grid
    never builds the full square table."""

    def __init__(self, neighbors: list[list[int]]):
        super().__init__()
        self.neighbors = neighbors

    def __missing__(self, cell: int) -> list[int]:
        row = self[cell] = [0] * len(self.neighbors)
        for nb in self.neighbors[cell]:
            row[nb] = -1
        return row


def exchange_pass(ig: InteractionGraph, order, slot, free: list, cost) -> bool:
    """One pass of pairwise exchange lowering ``sum(w * cost[slot[a]][slot[b]])``.

    The sum runs over the weighted edges of ``ig``; ``slot`` maps every
    item to its slot and ``cost`` is a table indexed by slot, symmetric with
    a zero diagonal, of which the pass reads only the rows of slots that
    hold an item. Each item of ``order`` tries a swap with every later item,
    then a move to every slot in ``free``, and takes each one that lowers
    the objective strictly. ``slot`` and ``free`` are updated in place: a
    move to ``free[k]`` leaves the vacated slot at ``free[k]``, so the scan
    order of the other free slots never changes. Returns whether any was taken.

    A trial costs O(1), by the gain-table form of pairwise interchange
    (Taillard, 1991). With ``phi_x(s) = sum(w * cost[slot[u]][s])`` over
    ``ig.incident[x]`` and ``H_x = phi_x(slot[x])``, a move of ``a`` to
    ``s`` changes the objective by ``phi_a(s) - H_a``, a swap of ``a`` and
    ``b`` on slots ``sa``, ``sb`` by ``phi_a(sb) - H_a + phi_b(sa) - H_b +
    2 * w_ab * cost[sa][sb]``. ``H``, ``phi_a`` and the column ``phi_x(sa)``
    are exact integers, rebuilt only after a swap or move is taken, from the
    cost rows of the items' slots: no table is larger than items x slots.
    """
    incident = ig.incident
    n = len(incident)
    # every item's pairs end to end, each led by a zero-weight pair: one reduceat sums all
    bounds = np.array(list(accumulate((1 + len(pairs) for pairs in incident), initial=0)), dtype=np.intp)
    weights, partners = np.array([p for pairs in incident for p in ((0, 0), *pairs)], dtype=np.int64).reshape(-1, 2).T
    slots = np.array([slot[x] for x in range(n)], dtype=np.intp)
    table = np.array([cost[slot[x]] for x in range(n)], dtype=np.int64)

    def phi(a: int) -> list[int]:  # phi_a over all slots
        run = slice(bounds[a] + 1, bounds[a + 1])
        return (weights[run] @ table[partners[run]]).tolist()

    def column(a: int) -> list[int]:  # phi_x(slot[a]) over all items x, by symmetry
        return np.add.reduceat(weights * table[a][slots[partners]], bounds[:-1]).tolist()

    home = [sum([w * cost[slot[x]][slot[u]] for w, u in pairs]) for x, pairs in enumerate(incident)]  # H

    def move(y: int, s: int) -> None:
        old, slot[y], slots[y], table[y] = slot[y], s, s, cost[s]
        for w, x in incident[y]:
            here = cost[slot[x]]
            home[x] += w * (here[s] - here[old])
        home[y] = sum([w * cost[s][slot[u]] for w, u in incident[y]])

    improved = False
    for i, a in enumerate(order):
        weight = {u: w for w, u in incident[a]}
        phi_a, phi_at_a = phi(a), column(a)
        for b in order[i + 1 :]:
            sa, sb = slot[a], slot[b]
            delta = phi_a[sb] - home[a] + phi_at_a[b] - home[b]
            if b in weight:
                delta += 2 * weight[b] * cost[sa][sb]
            if delta < 0:
                move(a, sb)
                move(b, sa)
                if b in weight:  # phi_a counts b, which moved
                    phi_a = phi(a)
                improved, phi_at_a = True, column(a)
        for k, s in enumerate(free):
            if phi_a[s] < home[a]:
                free[k] = slot[a]
                move(a, s)
                improved = True
    return improved


def place_qubits(ig: InteractionGraph, config: DesignConfig) -> np.ndarray:
    """Greedy grid placement maximizing realized interaction weight.

    Each pick is the unplaced qubit with the largest weight to the placed
    ones; a tie keeps its largest weighted degrees, then its top class under
    each round of refined structural keys seeded with the placement order,
    stopping once one qubit is left; then it takes the smaller index.
    The pick goes on the free cell with the largest weight to its placed
    grid neighbours; that weight is positive exactly next to them, so only
    those cells are scanned when there are any. Cell ties prefer more free
    neighbours, then smaller Manhattan distance to the center, then
    row-major order; so the first qubit lands on the center, the only cell
    at distance 0 and one with the most in-grid neighbours. Cells are
    integers ``r*cols + c``. ``pos`` (qubit -> cell, in placement order),
    the free-cell set and the running weight to the placed set are the
    whole state. :func:`exchange_pass` with the grid adjacency table (-1
    for adjacent cells) then repeats over the qubits in placement order and
    the free cells in row-major order until no swap or move raises the
    realized weight. Deterministic throughout.
    """
    n = ig.num_qubits
    rows, cols = _grid_shape(n, config)
    if rows * cols < n:
        raise PlacementError(f"grid {rows}x{cols} too small for {n} qubit(s)")
    if rows * cols * (n + 1) > MAX_PLACEMENT_WORK:
        raise PlacementError(f"grid {rows}x{cols} too large to place {n} qubit(s): "
                             f"cells x (qubits + 1) is more than the {MAX_PLACEMENT_WORK} allowed")
    cr, cc = rows // 2, cols // 2
    neighbors = _grid_neighbors(rows, cols)
    pos: dict[int, int] = {}
    free = set(range(rows * cols))
    to_placed = [0] * n  # each qubit's total weight to the placed ones

    def cell_pick_key(cell: int):
        r, c = divmod(cell, cols)
        return (
            gain[cell],
            sum(1 for nb in neighbors[cell] if nb in free),
            -(abs(r - cr) + abs(c - cc)),
            -cell,
        )

    while len(pos) < n:
        top = max(to_placed[q] for q in range(n) if q not in pos)
        tied = [q for q in range(n) if q not in pos and to_placed[q] == top]
        if len(tied) > 1:
            # unplaced, so the first round of keys ranks them by weighted degree alone
            degrees = ig.weighted_degrees
            best = max(degrees[q] for q in tied)
            if len(tied := [q for q in tied if degrees[q] == best]) > 1:
                for keys in _refined_keys(ig, seed={q: rank for rank, q in enumerate(pos)}):
                    best = max(keys[q] for q in tied)
                    if len(tied := [q for q in tied if keys[q] == best]) == 1:
                        break
        best_q = tied[0]
        gain = Counter()  # free cell -> the pick's weight to placed qubits next to it
        for w, u in ig.incident[best_q]:
            if u in pos:
                gain.update(dict.fromkeys(free.intersection(neighbors[pos[u]]), w))
        best_cell = max(gain or free, key=cell_pick_key)
        pos[best_q] = best_cell
        free.remove(best_cell)
        for w, u in ig.incident[best_q]:
            to_placed[u] += w

    order, free_cells, adjacency = list(pos), sorted(free), _GridAdjacency(neighbors)
    for _ in range(n * n + 4):  # the weight rises strictly, so this bound is never reached
        if not exchange_pass(ig, order, pos, free_cells, adjacency):
            break
    layout = np.full((rows, cols), EMPTY, dtype=np.int64)
    for q, cell in pos.items():
        layout.flat[cell] = q
    return layout


def realized_weight(layout: np.ndarray, ig: InteractionGraph) -> int:
    """Interaction weight captured by grid-adjacent pairs of a placement."""
    return sum(ig.weight(a, b) for a, b in _adjacent_pairs(layout))


def _adjacent_pairs(layout: np.ndarray) -> list[tuple[int, int]]:
    """Occupied grid-adjacent pairs (a, b) with a < b, each once, sorted."""
    flat = layout.ravel().tolist()
    neighbors = _grid_neighbors(*layout.shape)
    return sorted(
        (q, flat[nb])
        for cell, q in enumerate(flat) if q != EMPTY
        for nb in neighbors[cell] if flat[nb] > q  # from the smaller index only; EMPTY never is larger
    )


def derive_couplings(
    layout: np.ndarray, ig: InteractionGraph, config: DesignConfig
) -> CouplingGraph:
    """Select coupling edges among grid-adjacent occupied pairs.

    Pairs with nonzero interaction weight come first (heaviest first), then,
    only when ``grid.include_idle_edges`` is set, the remaining adjacent
    pairs in index order. The per-qubit degree cap is enforced throughout.
    """
    n = ig.num_qubits
    max_degree = config.grid.max_degree
    degree = [0] * n
    idle = config.grid.include_idle_edges
    chosen: list[tuple[int, int]] = []
    for neg_weight, (a, b) in sorted((-ig.weight(*p), p) for p in _adjacent_pairs(layout)):
        if (neg_weight or idle) and degree[a] < max_degree and degree[b] < max_degree:
            chosen.append((a, b))
            degree[a] += 1
            degree[b] += 1
    return CouplingGraph(n, chosen)


def allocate_frequencies(coupling: CouplingGraph, config: DesignConfig) -> np.ndarray:
    """Greedy collision-avoiding frequency assignment on the band lattice.

    Qubits are processed in descending coupling degree (ties by index); each
    takes the lowest lattice point ``band_lo + k*step`` that keeps at least
    ``min_adjacent_detuning`` from every assigned neighbour and
    ``min_next_detuning`` from every assigned distance-2 qubit
    (:meth:`CouplingGraph.second_neighbors`); no other qubit is checked.
    The lattice size is checked at load; it is checked again here, before
    the lattice is built, for a config made without ``DesignConfig.validate``.
    """
    fc = config.frequency
    lo, hi, step = fc.band_lo_ghz, fc.band_hi_ghz, fc.step_ghz
    d_adj, d_nn = fc.min_adjacent_detuning_ghz, fc.min_next_detuning_ghz
    n = coupling.num_qubits
    lattice = [round(lo + k * step, 9) for k in range(int(fc.lattice_steps()) + 1)]

    assigned: list[float | None] = [None] * n
    order = sorted(range(n), key=lambda q: (-coupling.degree(q), q))
    for q in order:
        limits = [(assigned[o], d_adj - FREQ_EPS) for o in coupling.neighbors(q)]
        limits += [(assigned[o], d_nn - FREQ_EPS) for o in coupling.second_neighbors(q)]
        limits = [(g, t) for g, t in limits if g is not None]
        f = next((f for f in lattice if all(abs(f - g) >= t for g, t in limits)), None)
        if f is None:
            raise FrequencyAllocationError(
                f"no frequency in [{lo}, {hi}] GHz satisfies the detuning "
                f"constraints for qubit {q}",
                qubit=q,
            )
        assigned[q] = f
    return np.array(assigned, dtype=float)


def detuning_violations(
    coupling: CouplingGraph,
    frequencies,
    min_adjacent_ghz: float,
    min_next_ghz: float,
) -> list[tuple[int, int, float]]:
    """Pairs violating the adjacent / next-nearest detuning thresholds."""
    freqs = np.asarray(frequencies, dtype=float)
    bad = []
    for pairs, threshold in (
        (coupling.sorted_edges(), min_adjacent_ghz),
        (coupling.next_nearest_pairs(), min_next_ghz),
    ):
        for a, b in pairs:
            gap = abs(freqs[a] - freqs[b])
            if gap < threshold - FREQ_EPS:
                bad.append((a, b, gap))
    return bad


def generate_architecture(qc: QuantumCircuit, config: DesignConfig) -> Architecture:
    """Full generation pass: placement, coupling selection, frequencies."""
    ig = interaction_graph(qc)
    layout = place_qubits(ig, config)
    coupling = derive_couplings(layout, ig, config)
    frequencies = allocate_frequencies(coupling, config)
    arch = Architecture(layout, coupling, frequencies)
    arch.validate(config)
    return arch
