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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import InteractionGraph, QuantumCircuit, interaction_graph
from .config import DesignConfig
from .errors import ArchitectureError, DasqaError, FrequencyAllocationError, PlacementError, read_text

# Comparisons against detuning thresholds allow this slack so that gaps that
# equal a threshold exactly (e.g. 0.07 or 0.02 GHz) survive float rounding.
FREQ_EPS = 1e-9
# far above any real band (the default has 31 points); bounds the lattice before it is built
MAX_LATTICE_POINTS = 100_000
# cells x (qubits + 1): placement scans the free cells once per pick, plus once to build its tables
MAX_PLACEMENT_WORK = 200_000

EMPTY = -1


class CouplingGraph:
    """Undirected graph over physical qubits 0..num_qubits-1."""

    def __init__(self, num_qubits: int, edges):
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
        return self._dist

    def is_connected(self) -> bool:
        if self.num_qubits == 0:
            return True
        return bool((self.distances()[0] >= 0).all())

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

    def positions(self) -> dict[int, tuple[int, int]]:
        """Qubit index -> (row, col), in row-major order."""
        cols = self.layout.shape[1]
        flat = self.layout.ravel().tolist()
        return {q: divmod(cell, cols) for cell, q in enumerate(flat) if q != EMPTY}

    def validate(self, config: DesignConfig | None = None) -> None:
        """Raise ArchitectureError if any structural invariant is broken."""
        n = self.num_qubits
        vals = sorted(int(v) for v in self.layout.ravel() if v != EMPTY)
        if vals != list(range(n)):
            raise ArchitectureError("layout must contain each qubit index exactly once")
        pos = self.positions()
        for a, b in self.coupling.edges:
            (ra, ca), (rb, cb) = pos[a], pos[b]
            if abs(ra - rb) + abs(ca - cb) != 1:
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

    def to_dict(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "layout": [[int(v) for v in row] for row in self.layout],
            "edges": [list(e) for e in self.coupling.sorted_edges()],
            "frequencies_ghz": [float(f) for f in self.frequencies],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def load_coupling(path: str | Path) -> CouplingGraph:
    """Read a coupling graph from JSON: {"num_qubits": n, "edges": [[a,b],...]}."""
    text = read_text(path, "coupling", DasqaError)
    try:
        data = json.loads(text)
        return CouplingGraph(int(data["num_qubits"]), [tuple(e) for e in data["edges"]])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ArchitectureError) as exc:
        raise DasqaError(f"malformed coupling file {path}: {exc}") from exc


def default_grid(num_qubits: int) -> tuple[int, int]:
    """Smallest square grid holding the qubits."""
    side = 1
    while side * side < num_qubits:
        side += 1
    return side, side


def _grid_shape(num_qubits: int, config: DesignConfig) -> tuple[int, int]:
    rows, cols = config.grid.rows, config.grid.cols
    if rows is None and cols is None:
        return default_grid(num_qubits)
    if rows is None or cols is None:
        fixed = rows if rows is not None else cols
        other = -(-num_qubits // fixed)  # ceil division
        return (fixed, max(other, 1)) if rows is not None else (max(other, 1), fixed)
    return rows, cols


def _dense_ranks(keys: list) -> list[int]:
    """Each key's index among the distinct keys in sorted order."""
    index = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [index[key] for key in keys]


def _refined_keys(ig: InteractionGraph, seed: dict[int, int]) -> list[int]:
    """Label-independent qubit signatures as integer ranks (three sharpening rounds).

    Ranks start from a per-qubit seed color (the placement rank of placed
    qubits, -1 for the others) plus the weighted degree. Each round keys a
    qubit by its rank and the sorted (edge weight, neighbour rank) pairs and
    relabels the keys to dense ranks in sorted order (Weisfeiler-Leman colour
    refinement), which keeps order and ties: ranks compare as the nested
    tuples of all rounds would. Qubits that differ structurally - or relate
    differently to the seeded ones - get different ranks even when their
    weighted degrees tie, keeping placement stable under relabeling.
    """
    n, incident = ig.num_qubits, ig.incident
    rank = _dense_ranks([(seed.get(q, -1), ig.weighted_degree(q)) for q in range(n)])
    for _ in range(3):
        # w*n + rank sorts as (w, rank) does, since every rank is below n
        refined = _dense_ranks(
            [(rank[q], tuple(sorted([w * n + rank[u] for w, u in incident[q]]))) for q in range(n)]
        )
        if refined == rank:  # no class split, so later rounds change nothing either
            break
        rank = refined
    return rank


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
    item to its slot and ``cost`` is a symmetric table indexed by slot, of
    which the pass reads only the rows of slots that hold an item. Each item
    of ``order`` tries a swap with every later item, then a move to every
    slot in ``free``, and takes each move that lowers the objective
    strictly. A move is scored from the moved items' ``ig.incident`` lists
    alone; a swap leaves out the edge between the two items it exchanges,
    whose cost it does not change. ``slot`` and ``free`` are updated in
    place: a move to ``free[k]`` leaves the vacated slot at ``free[k]``, so
    the scan order of the other free slots never changes. Returns whether
    any move was taken.
    """
    incident = ig.incident
    improved = False
    for i, a in enumerate(order):
        # (weight, neighbour, its cost row); rebuilt after a swap, which may move a neighbour
        nbrs = [(w, u, cost[slot[u]]) for w, u in incident[a]]
        for b in order[i + 1 :]:
            sa, sb = slot[a], slot[b]
            delta = 0
            for w, u, row in nbrs:
                if u != b:
                    delta += w * (row[sb] - row[sa])
            for w, u in incident[b]:
                if u != a:
                    row = cost[slot[u]]
                    delta += w * (row[sa] - row[sb])
            if delta < 0:
                slot[a], slot[b] = sb, sa
                nbrs = [(w, u, cost[slot[u]]) for w, u in incident[a]]
                improved = True
        here = sum(w * row[slot[a]] for w, _, row in nbrs)
        for k, s in enumerate(free):
            there = sum(w * row[s] for w, _, row in nbrs)
            if there < here:
                slot[a], free[k] = s, slot[a]
                here = there
                improved = True
    return improved


def place_qubits(ig: InteractionGraph, config: DesignConfig) -> np.ndarray:
    """Greedy grid placement maximizing realized interaction weight.

    Each pick is the unplaced qubit with the largest weight to the placed
    ones; only when several tie there are they told apart, by refined
    structural keys seeded with the placement order, then by smaller index.
    The pick goes on the free cell with the largest weight to its placed
    grid neighbours. Cell ties prefer more free neighbours, then smaller
    Manhattan distance to the center, then row-major order; so the first
    qubit lands on the center, the only cell at distance 0 and one with the
    most in-grid neighbours. Cells are integers ``r*cols + c``. ``pos``
    (qubit -> cell, in placement order), the free-cell set and the running
    weight to the placed set are the whole state. :func:`exchange_pass`
    with the grid adjacency table (-1 for adjacent cells) then repeats over
    the qubits in placement order and the free cells in row-major order
    until no swap or move raises the realized weight. Deterministic
    throughout.
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
    adjacency = _GridAdjacency(neighbors)
    pos: dict[int, int] = {}
    free = set(range(rows * cols))
    to_placed = [0] * n  # each qubit's total weight to the placed ones

    def cell_pick_key(placed_nbrs: list, cell: int):
        r, c = divmod(cell, cols)
        return (
            -sum(w * adjacency[nb_cell][cell] for w, nb_cell in placed_nbrs),
            sum(1 for nb in neighbors[cell] if nb in free),
            -(abs(r - cr) + abs(c - cc)),
            -cell,
        )

    while len(pos) < n:
        top = max(to_placed[q] for q in range(n) if q not in pos)
        tied = [q for q in range(n) if q not in pos and to_placed[q] == top]
        best_q = tied[0]
        if len(tied) > 1:
            keys = _refined_keys(ig, seed={q: rank for rank, q in enumerate(pos)})
            best_q = max(tied, key=lambda q: (keys[q], -q))
        placed_nbrs = [(w, pos[u]) for w, u in ig.incident[best_q] if u in pos]
        best_cell = max(free, key=lambda cell: cell_pick_key(placed_nbrs, cell))
        pos[best_q] = best_cell
        free.remove(best_cell)
        for w, u in ig.incident[best_q]:
            to_placed[u] += w

    order, free_cells = list(pos), sorted(free)
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
    chosen: list[tuple[int, int]] = []

    def try_add(pair: tuple[int, int]) -> None:
        a, b = pair
        if degree[a] < max_degree and degree[b] < max_degree:
            chosen.append(pair)
            degree[a] += 1
            degree[b] += 1

    adjacent = _adjacent_pairs(layout)
    active = [p for p in adjacent if ig.weight(*p) > 0]
    active.sort(key=lambda p: (-ig.weight(*p), p))
    for pair in active:
        try_add(pair)
    if config.grid.include_idle_edges:
        for pair in adjacent:
            if ig.weight(*pair) == 0:
                try_add(pair)
    return CouplingGraph(n, chosen)


def allocate_frequencies(coupling: CouplingGraph, config: DesignConfig) -> np.ndarray:
    """Greedy collision-avoiding frequency assignment on the band lattice.

    Qubits are processed in descending coupling degree (ties by index); each
    takes the lowest lattice point ``band_lo + k*step`` that keeps at least
    ``min_adjacent_detuning`` from every assigned neighbour and
    ``min_next_detuning`` from every assigned distance-2 qubit
    (:meth:`CouplingGraph.second_neighbors`); no other qubit is checked.
    A lattice of more than ``MAX_LATTICE_POINTS`` points is rejected before
    it is built.
    """
    fc = config.frequency
    lo, hi, step = fc.band_lo_ghz, fc.band_hi_ghz, fc.step_ghz
    d_adj, d_nn = fc.min_adjacent_detuning_ghz, fc.min_next_detuning_ghz
    n = coupling.num_qubits
    steps = (hi - lo) / step + FREQ_EPS  # a float, inf on an overflowing band
    if steps >= MAX_LATTICE_POINTS:
        raise FrequencyAllocationError(
            f"frequency lattice [{lo}, {hi}] GHz in steps of {step} GHz has {steps + 1:.6g} "
            f"points, more than the {MAX_LATTICE_POINTS} allowed"
        )
    lattice = [round(lo + k * step, 9) for k in range(int(steps) + 1)]

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
    for a, b in coupling.sorted_edges():
        gap = abs(freqs[a] - freqs[b])
        if gap < min_adjacent_ghz - FREQ_EPS:
            bad.append((a, b, gap))
    for a, b in coupling.next_nearest_pairs():
        gap = abs(freqs[a] - freqs[b])
        if gap < min_next_ghz - FREQ_EPS:
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
