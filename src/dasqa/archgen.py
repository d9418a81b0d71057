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
from .errors import FrequencyAllocationError, PlacementError

# Comparisons against detuning thresholds allow this slack so that gaps that
# equal a threshold exactly (e.g. 0.07 or 0.02 GHz) survive float rounding.
FREQ_EPS = 1e-9

EMPTY = -1


class CouplingGraph:
    """Undirected graph over physical qubits 0..num_qubits-1."""

    def __init__(self, num_qubits: int, edges):
        self.num_qubits = num_qubits
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")
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
            dist = np.full((n, n), -1, dtype=np.int64)
            for src in range(n):
                dist[src, src] = 0
                frontier = [src]
                d = 0
                while frontier:
                    d += 1
                    nxt = []
                    for u in frontier:
                        for v in self._adj[u]:
                            if dist[src, v] < 0:
                                dist[src, v] = d
                                nxt.append(v)
                    frontier = nxt
            self._dist = dist
        return self._dist

    def is_connected(self) -> bool:
        if self.num_qubits == 0:
            return True
        return bool((self.distances()[0] >= 0).all())

    def next_nearest_pairs(self) -> list[tuple[int, int]]:
        """Pairs at shortest-path distance exactly 2."""
        dist = self.distances()
        n = self.num_qubits
        return [(a, b) for a in range(n) for b in range(a + 1, n) if dist[a, b] == 2]

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
        """Qubit index -> (row, col)."""
        out = {}
        rows, cols = self.layout.shape
        for r in range(rows):
            for c in range(cols):
                q = int(self.layout[r, c])
                if q != EMPTY:
                    out[q] = (r, c)
        return out

    def validate(self, config: DesignConfig | None = None) -> None:
        """Raise ValueError if any structural invariant is broken."""
        n = self.num_qubits
        vals = sorted(int(v) for v in self.layout.ravel() if v != EMPTY)
        if vals != list(range(n)):
            raise ValueError("layout must contain each qubit index exactly once")
        pos = self.positions()
        for a, b in self.coupling.edges:
            (ra, ca), (rb, cb) = pos[a], pos[b]
            if abs(ra - rb) + abs(ca - cb) != 1:
                raise ValueError(f"coupling edge ({a},{b}) joins non-adjacent cells")
        if len(self.frequencies) != n:
            raise ValueError("frequency vector length must equal qubit count")
        if config is not None:
            fc = config.frequency
            lo, hi = fc.band_lo_ghz, fc.band_hi_ghz
            for q, f in enumerate(self.frequencies):
                if not (lo - FREQ_EPS <= f <= hi + FREQ_EPS):
                    raise ValueError(f"frequency of qubit {q} outside band [{lo}, {hi}]")
            if any(self.coupling.degree(q) > config.grid.max_degree for q in range(n)):
                raise ValueError("coupling degree exceeds configured max_degree")
            bad = detuning_violations(
                self.coupling,
                self.frequencies,
                fc.min_adjacent_detuning_ghz,
                fc.min_next_detuning_ghz,
            )
            if bad:
                raise ValueError(f"detuning violations: {bad}")

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
    from .errors import DasqaError

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return CouplingGraph(int(data["num_qubits"]), [tuple(e) for e in data["edges"]])
    except OSError as exc:
        raise DasqaError(f"cannot read coupling file {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
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


def _refined_keys(ig: InteractionGraph, seed: dict[int, int] | None = None) -> list[tuple]:
    """Label-independent qubit signatures (three sharpening rounds).

    Starting from the weighted degree (plus an optional per-qubit seed
    color, e.g. the placement rank of already-placed qubits), each round
    appends the sorted multiset of (edge weight, neighbour key) pairs.
    Qubits that differ structurally - or relate differently to the seeded
    ones - get different keys even when their weighted degrees tie, which
    keeps placement decisions stable under relabeling of the circuit.
    """
    n = ig.num_qubits
    seed = seed or {}
    keys: list[tuple] = [(seed.get(q, -1), ig.weighted_degree(q)) for q in range(n)]
    for _ in range(3):
        keys = [
            keys[q] + (tuple(sorted((w, keys[u]) for w, u in ig.incident[q])),)
            for q in range(n)
        ]
    return keys


def _neighbor_cells(cell: tuple[int, int], rows: int, cols: int):
    r, c = cell
    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if 0 <= rr < rows and 0 <= cc < cols:
            yield rr, cc


def _improve_placement(layout: np.ndarray, ig: InteractionGraph, order: list[int]) -> None:
    """Pairwise-exchange refinement to a 2-swap local optimum.

    Deterministic scan, strict improvements only; also tries moving a qubit
    to a free cell. Bounded at a generous pass count for safety (the score
    strictly increases, so it terminates long before that).
    """
    rows, cols = layout.shape
    pos = {int(layout[r, c]): (r, c) for r in range(rows) for c in range(cols)
           if layout[r, c] != EMPTY}
    free = [(r, c) for r in range(rows) for c in range(cols) if layout[r, c] == EMPTY]

    def local_weight(q: int, cell: tuple[int, int], skip: int | None = None) -> int:
        total = 0
        for rr, cc in _neighbor_cells(cell, rows, cols):
            other = int(layout[rr, cc])
            if other != EMPTY and other != skip:
                total += ig.weight(q, other)
        return total

    for _ in range(ig.num_qubits * ig.num_qubits + 4):
        improved = False
        for i, qa in enumerate(order):
            ca = pos[qa]
            for qb in order[i + 1 :]:
                cb = pos[qb]
                before = local_weight(qa, ca, skip=qb) + local_weight(qb, cb, skip=qa)
                after = local_weight(qa, cb, skip=qb) + local_weight(qb, ca, skip=qa)
                if after > before:
                    layout[ca], layout[cb] = qb, qa
                    pos[qa], pos[qb] = cb, ca
                    improved = True
                    ca = pos[qa]
            for k, cell in enumerate(free):
                if local_weight(qa, cell) > local_weight(qa, ca):
                    layout[cell] = qa
                    layout[ca] = EMPTY
                    free[k] = ca
                    pos[qa] = cell
                    improved = True
                    ca = cell
        if not improved:
            break


def place_qubits(ig: InteractionGraph, config: DesignConfig) -> np.ndarray:
    """Greedy grid placement maximizing realized interaction weight.

    Qubits are placed in descending order of their refined structural keys
    (weighted degree first). The first goes to the grid center; each
    subsequent pick is the unplaced qubit with the largest total weight to
    already-placed qubits, put on the free cell that maximizes the summed
    interaction weight to its grid neighbours. Cell ties prefer cells with
    more free neighbours (room for later qubits), then smaller Manhattan
    distance to the center, then row-major order. A pairwise-exchange pass
    polishes the result to a local optimum. Deterministic throughout.
    """
    n = ig.num_qubits
    rows, cols = _grid_shape(n, config)
    if rows * cols < n:
        raise PlacementError(f"grid {rows}x{cols} too small for {n} qubit(s)")
    layout = np.full((rows, cols), EMPTY, dtype=np.int64)
    if n == 0:
        return layout

    center = (rows // 2, cols // 2)
    placed: dict[int, tuple[int, int]] = {}
    ranks: dict[int, int] = {}  # placement order, seeds the key refinement

    def adjacency_weight(q: int, cell: tuple[int, int]) -> int:
        return sum(
            ig.weight(q, int(layout[rr, cc]))
            for rr, cc in _neighbor_cells(cell, rows, cols)
            if layout[rr, cc] != EMPTY
        )

    def free_neighbors(cell: tuple[int, int]) -> int:
        return sum(
            1
            for rr, cc in _neighbor_cells(cell, rows, cols)
            if layout[rr, cc] == EMPTY
        )

    def cell_pick_key(q: int, cell: tuple[int, int]):
        r, c = cell
        return (
            adjacency_weight(q, cell),
            free_neighbors(cell),
            -(abs(r - center[0]) + abs(c - center[1])),
            -r,
            -c,
        )

    keys = _refined_keys(ig)
    first = max(range(n), key=lambda q: (keys[q], -q))
    layout[center] = first
    placed[first] = center
    ranks[first] = 0
    pending = [q for q in range(n) if q != first]

    while pending:
        keys = _refined_keys(ig, seed=ranks)
        best_q = max(
            pending,
            key=lambda q: (sum(ig.weight(q, p) for p in placed), keys[q], -q),
        )
        free = [
            (r, c)
            for r in range(rows)
            for c in range(cols)
            if layout[r, c] == EMPTY
        ]
        best_cell = max(free, key=lambda cell: cell_pick_key(best_q, cell))
        layout[best_cell] = best_q
        placed[best_q] = best_cell
        ranks[best_q] = len(ranks)
        pending.remove(best_q)

    order = sorted(range(n), key=lambda q: ranks[q])
    _improve_placement(layout, ig, order)
    return layout


def realized_weight(layout: np.ndarray, ig: InteractionGraph) -> int:
    """Interaction weight captured by grid-adjacent pairs of a placement."""
    return sum(ig.weight(a, b) for a, b in _adjacent_pairs(layout))


def _adjacent_pairs(layout: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = layout.shape
    pairs = []
    for r in range(rows):
        for c in range(cols):
            q = int(layout[r, c])
            if q == EMPTY:
                continue
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < rows and cc < cols:
                    other = int(layout[rr, cc])
                    if other != EMPTY:
                        pairs.append((min(q, other), max(q, other)))
    return pairs


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

    adjacent = sorted(set(_adjacent_pairs(layout)))
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
    ``min_next_detuning`` from every assigned distance-2 qubit.
    """
    fc = config.frequency
    lo, hi, step = fc.band_lo_ghz, fc.band_hi_ghz, fc.step_ghz
    d_adj, d_nn = fc.min_adjacent_detuning_ghz, fc.min_next_detuning_ghz
    n = coupling.num_qubits
    n_points = int((hi - lo) / step + FREQ_EPS) + 1
    lattice = [round(lo + k * step, 9) for k in range(n_points)]

    dist = coupling.distances()
    freqs = np.full(n, np.nan)
    order = sorted(range(n), key=lambda q: (-coupling.degree(q), q))
    for q in order:
        assigned = None
        for f in lattice:
            ok = True
            for other in range(n):
                if np.isnan(freqs[other]) or other == q:
                    continue
                gap = abs(f - freqs[other])
                if dist[q, other] == 1 and gap < d_adj - FREQ_EPS:
                    ok = False
                    break
                if dist[q, other] == 2 and gap < d_nn - FREQ_EPS:
                    ok = False
                    break
            if ok:
                assigned = f
                break
        if assigned is None:
            raise FrequencyAllocationError(
                f"no frequency in [{lo}, {hi}] GHz satisfies the detuning "
                f"constraints for qubit {q}",
                qubit=q,
            )
        freqs[q] = assigned
    return freqs


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
