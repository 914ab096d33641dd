"""MT-CGRF grid model and per-block place & route.

The fabric is a ``width x height`` grid of functional units.  LDST and
LVU units sit on the grid perimeter (they connect to the banked L1/LVC
through a crossbar, paper §3.5); compute, special, split/join, and the
remaining control vector units fill the interior.

The interconnect is the paper's folded-hypercube-flavoured switch
topology: every unit reaches its four nearest units and four nearest
switches, and switches additionally shortcut Manhattan distance two.
We model its latency as ``ceil(manhattan / 2)`` hops, one cycle per hop
(hop latency of one cycle is an explicit design requirement, §3.5).

Placement is greedy-by-topological-order with a cheapest-unit choice,
followed by a local-improvement (pairwise swap) pass.  Multiple replicas
of a block graph share one configuration (paper §3.1: the compiler
includes multiple replicas of small blocks).  How many fit is fixed at
compile time; each replica is placed on first use, on the units the
replicas before it left free, so any forcing order yields the placement
of placing them all in order.  How many replicas a launch reaches is
:func:`replica_deal`, the one thread-to-replica rule of both dataflow
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.config import FabricSpec, UnitKind
from repro.compiler.dfg import BlockDFG
from repro.resilience.errors import MappingError


class CapacityError(MappingError):
    """A dataflow graph does not fit the fabric."""


@dataclass(frozen=True)
class Unit:
    """One physical functional unit at a fixed grid position."""

    uid: int
    kind: UnitKind
    x: int
    y: int


def _interleave(kind_counts: Sequence[Tuple[UnitKind, int]]) -> List[UnitKind]:
    """Evenly interleave kinds (fractional-position sort) so that the
    interior of the grid mixes unit kinds instead of clustering them."""
    placed: List[Tuple[float, int, UnitKind]] = []
    for order, (kind, count) in enumerate(kind_counts):
        for i in range(count):
            placed.append(((i + 0.5) / count, order, kind))
    placed.sort()
    return [kind for _, _, kind in placed]


@lru_cache(maxsize=8)
def _hop_table(xs: Tuple[int, ...],
               ys: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """``hop[a][b]`` for units at ``(xs[i], ys[i])``: one broadcast of
    ``max(1, ceil(manhattan / 2))``, which is 1 on the diagonal too (a
    unit's output loops back through a switch).  Fabrics of one
    geometry share the table."""
    x = np.asarray(xs)
    y = np.asarray(ys)
    manhattan = np.abs(x[:, None] - x) + np.abs(y[:, None] - y)
    return tuple(map(tuple, np.maximum(1, (manhattan + 1) // 2).tolist()))


class Fabric:
    """The physical grid: units, positions, and hop distances.

    Compiles share one instance per geometry (:func:`shared_fabric`),
    so nothing may mutate a fabric once built.
    """

    def __init__(self, spec: FabricSpec):
        self.spec = spec
        self.units: List[Unit] = []
        self._build(spec)
        self.by_kind: Dict[UnitKind, List[int]] = {k: [] for k in UnitKind}
        for u in self.units:
            self.by_kind[u.kind].append(u.uid)
        #: interconnect latency in cycles, ``hop[a][b]`` (symmetric)
        self.hop = _hop_table(tuple(u.x for u in self.units),
                              tuple(u.y for u in self.units))

    def _build(self, spec: FabricSpec) -> None:
        w, h = spec.width, spec.height
        cells = [(x, y) for y in range(h) for x in range(w)]
        perimeter = [
            (x, y) for (x, y) in cells if x in (0, w - 1) or y in (0, h - 1)
        ]
        on_perimeter = set(perimeter)
        interior = [c for c in cells if c not in on_perimeter]

        counts = dict(spec.counts)
        n_ldst = counts.get(UnitKind.LDST, 0)
        n_lvu = counts.get(UnitKind.LVU, 0)
        if n_ldst + n_lvu > len(perimeter):
            raise CapacityError(
                "perimeter too small for the LDST + LVU units"
            )
        # Ring order keeps memory units spread around the edge.
        ring = self._ring_order(perimeter, w, h)
        peri_kinds: List[Optional[UnitKind]] = [None] * len(ring)
        mem_kinds = _interleave([(UnitKind.LDST, n_ldst), (UnitKind.LVU, n_lvu)])
        step = len(ring) / max(1, len(mem_kinds))
        used = set()
        for i, kind in enumerate(mem_kinds):
            slot = int(i * step)
            while slot in used:
                slot = (slot + 1) % len(ring)
            used.add(slot)
            peri_kinds[slot] = kind
        leftover_peri = [i for i in range(len(ring)) if peri_kinds[i] is None]

        # CVUs take the leftover perimeter slots first, the rest go inside.
        n_cvu = counts.get(UnitKind.CVU, 0)
        cvu_on_peri = min(n_cvu, len(leftover_peri))
        for i in leftover_peri[:cvu_on_peri]:
            peri_kinds[i] = UnitKind.CVU

        # Any perimeter cells still unassigned take interior kinds; the
        # "inner" pool is the interior plus those spill-over cells.
        spare_peri = [ring[i] for i in leftover_peri[cvu_on_peri:]]
        inner_cells = interior + spare_peri
        interior_counts = [
            (UnitKind.COMPUTE, counts.get(UnitKind.COMPUTE, 0)),
            (UnitKind.SPECIAL, counts.get(UnitKind.SPECIAL, 0)),
            (UnitKind.SJU, counts.get(UnitKind.SJU, 0)),
            (UnitKind.CVU, n_cvu - cvu_on_peri),
        ]
        interior_kinds = _interleave([(k, c) for k, c in interior_counts if c > 0])
        if len(interior_kinds) != len(inner_cells):
            raise CapacityError(
                f"grid has {len(inner_cells)} non-memory cells, "
                f"composition supplies {len(interior_kinds)}"
            )

        uid = 0
        for (x, y), kind in zip(ring, peri_kinds):
            if kind is None:
                continue
            self.units.append(Unit(uid, kind, x, y))
            uid += 1
        for (x, y), kind in zip(inner_cells, interior_kinds):
            self.units.append(Unit(uid, kind, x, y))
            uid += 1

    @staticmethod
    def _ring_order(perimeter, w, h):
        def key(cell):
            x, y = cell
            if y == 0:
                return (0, x)
            if x == w - 1:
                return (1, y)
            if y == h - 1:
                return (2, w - 1 - x)
            return (3, h - 1 - y)

        return sorted(perimeter, key=key)

    def hops(self, a: int, b: int) -> int:
        """Interconnect latency in cycles between two units."""
        return self.hop[a][b]


def shared_fabric(spec: FabricSpec) -> Fabric:
    """The one :class:`Fabric` of ``spec``'s geometry.  ``FabricSpec``
    holds a dict, so the cache is keyed on its contents."""
    counts = tuple(sorted((k.value, n) for k, n in spec.counts.items()))
    return _fabric_for(spec.width, spec.height, counts)


@lru_cache(maxsize=8)
def _fabric_for(width: int, height: int,
                counts: Tuple[Tuple[str, int], ...]) -> Fabric:
    return Fabric(FabricSpec(width, height,
                             {UnitKind(k): n for k, n in counts}))


@dataclass
class PlacedReplica:
    """Placement of one replica: DFG node ID -> physical unit ID, plus
    precomputed per-edge hop latencies."""

    unit_of: Dict[int, int]
    #: (src_nid, dst_nid) -> hop cycles
    edge_hops: Dict[Tuple[int, int], int] = field(default_factory=dict)


class ReplicaPlacer:
    """``n_replicas`` replicas of a list of graphs, placed on first use.

    A replica places every graph in list order; replica *k* takes the
    units replicas 0..*k*-1 left free, so :meth:`replica` places any
    still-unplaced replicas below *k* first.  Replica 0 is placed at
    construction, where capacity errors surface.  A replica is placed
    into copies of the free lists and committed with them in one
    assignment, so an exception part-way (a wall-clock timeout's
    included) leaves the placer as it was.  The free lists and
    :class:`Wiring` kept for the next replica are dropped once the last
    replica is placed.
    """

    def __init__(self, dfgs: Sequence[BlockDFG], fabric: Fabric,
                 n_replicas: int, improve_passes: int):
        self.n_replicas = n_replicas
        #: replica -> placement of each graph, in graph order
        self.placed: Tuple[List[PlacedReplica], ...] = ()
        #: what placing the next replica needs; ``None`` once all are
        self._pending = (
            [(dfg, wiring(dfg)) for dfg in dfgs],
            fabric,
            fabric.by_kind,
            improve_passes,
        )
        self.replica(0)

    def replica(self, k: int) -> List[PlacedReplica]:
        """Replica ``k``'s placement of each graph."""
        if not 0 <= k < self.n_replicas:
            raise IndexError(f"replica {k} of {self.n_replicas}")
        while len(self.placed) <= k:
            graphs, fabric, free, passes = self._pending
            free = {kind: list(units) for kind, units in free.items()}
            placed = self.placed + (
                [_place_one(dfg, wires, fabric, free, passes)
                 for dfg, wires in graphs],)
            self.placed, self._pending = placed, (
                None if len(placed) == self.n_replicas
                else (graphs, fabric, free, passes))
        return self.placed[k]


class PlacedBlock:
    """All replicas of a block placed on the fabric for one
    configuration, each on first use (:class:`ReplicaPlacer`)."""

    def __init__(self, dfg: BlockDFG, fabric: Fabric, n_replicas: int,
                 improve_passes: int = 1):
        self.dfg = dfg
        self._placer = ReplicaPlacer([dfg], fabric, n_replicas,
                                     improve_passes)

    @property
    def n_replicas(self) -> int:
        return self._placer.n_replicas

    def replica(self, k: int) -> PlacedReplica:
        """Replica ``k``, placed now if it has not been yet."""
        return self._placer.replica(k)[0]

    @property
    def replicas(self) -> List[PlacedReplica]:
        """Every replica, placing all that have not been yet."""
        return [self.replica(k) for k in range(self.n_replicas)]


def max_replicas(dfg: BlockDFG, spec: FabricSpec, cap: int = 8) -> int:
    """How many replicas of ``dfg`` fit the fabric (0 = none)."""
    demand = dfg.unit_demand()
    fit = cap
    for kind, need in demand.items():
        if need == 0:
            continue
        fit = min(fit, spec.counts.get(kind, 0) // need)
    return fit


def replica_deal(n_threads: int, n_replicas: int,
                 packet: int) -> Tuple[int, List[int]]:
    """Which replica each of ``n_threads`` thread slots runs on.

    Threads are dealt round-robin in runs of ``packet``: VGIW's BBS
    hands the replicas' initiator CVUs whole 64-thread batch packets
    (paper §3.2), SGMF deals thread by thread (``packet=1``).  Returns
    how many replicas receive a thread (the prefix ``0 .. n_running -
    1``, at least one) and each slot's replica.
    """
    n_running = max(1, min(n_replicas, -(-n_threads // packet)))
    if n_running == 1:
        return 1, [0] * n_threads
    return n_running, [(i // packet) % n_replicas for i in range(n_threads)]


def place_block(
    dfg: BlockDFG,
    fabric: Fabric,
    n_replicas: int,
    improve_passes: int = 1,
) -> PlacedBlock:
    """``n_replicas`` copies of ``dfg`` on the fabric, replica 0 placed
    now and the others on first use."""
    if n_replicas < 1:
        raise CapacityError(
            f"block {dfg.block_name} needs units beyond fabric capacity: "
            f"{ {k.value: v for k, v in dfg.unit_demand().items() if v} }"
        )
    return PlacedBlock(dfg, fabric, n_replicas, improve_passes)


class Wiring(NamedTuple):
    """What placement needs of a graph's shape, computed once per graph
    and shared by all its replicas (:func:`wiring`)."""

    #: ``(nid, unit kind)`` of every node that occupies a unit, in
    #: topological order (the greedy pass's placement order)
    units: List[Tuple[int, UnitKind]]
    #: wire ends of each such node among those nodes: its inputs, then
    #: its consumers, with multiplicity (an operand read twice is wired
    #: twice)
    neighbours: Dict[int, List[int]]
    #: ``(src, dst, routed)`` per edge in node order; edges to or from
    #: pseudo wires are not routed
    edges: List[Tuple[int, int, bool]]


def wiring(dfg: BlockDFG) -> Wiring:
    """``dfg``'s :class:`Wiring`."""
    nodes = dfg.nodes
    consumers = dfg.consumers()
    wired = {n.nid for n in nodes if not n.pseudo}
    units = [(nid, nodes[nid].unit_kind) for nid in dfg.topo_order()
             if nid in wired]
    neighbours = {
        nid: [m for m in nodes[nid].input_nodes() + consumers[nid]
              if m in wired]
        for nid, _ in units
    }
    edges = [(up, n.nid, up in wired and n.nid in wired)
             for n in nodes for up in n.input_nodes()]
    return Wiring(units, neighbours, edges)


def _place_one(
    dfg: BlockDFG,
    wires: Wiring,
    fabric: Fabric,
    free: Dict[UnitKind, List[int]],
    improve_passes: int,
) -> PlacedReplica:
    unit_of: Dict[int, int] = {}
    hop = fabric.hop
    neighbours = wires.neighbours

    for nid, kind in wires.units:
        pool = free[kind]
        if not pool:
            raise CapacityError(
                f"no free {kind.value} unit for node {nid} of block "
                f"{dfg.block_name}"
            )
        # Wire cost of every unit = column sums of the placed
        # neighbours' hop rows; the cheapest free unit wins, ties to the
        # lowest unit ID.
        rows = [hop[unit_of[m]] for m in neighbours[nid] if m in unit_of]
        if not rows:
            best = min(pool)
        else:
            cost = rows[0] if len(rows) == 1 else list(map(sum, zip(*rows)))
            low = min([cost[uid] for uid in pool])
            best = min([uid for uid in pool if cost[uid] == low])
        pool.remove(best)
        unit_of[nid] = best

    # Local improvement: swap same-kind placements when it shortens wires.
    def cost_of(nid: int) -> int:
        row = hop[unit_of[nid]]
        return sum([row[unit_of[m]] for m in neighbours[nid]])

    kind_of = dict(wires.units)
    for _ in range(improve_passes):
        improved = False
        nids = list(unit_of)
        for i, a in enumerate(nids):
            for b in nids[i + 1:]:
                if kind_of[a] is not kind_of[b]:
                    continue
                before = cost_of(a) + cost_of(b)
                unit_of[a], unit_of[b] = unit_of[b], unit_of[a]
                after = cost_of(a) + cost_of(b)
                if after >= before:
                    unit_of[a], unit_of[b] = unit_of[b], unit_of[a]
                else:
                    improved = True
        if not improved:
            break

    # Edges to/from pseudo wires cost one switch hop.
    edge_hops: Dict[Tuple[int, int], int] = {
        (up, nid): hop[unit_of[up]][unit_of[nid]] if routed else 1
        for up, nid, routed in wires.edges
    }
    return PlacedReplica(unit_of=unit_of, edge_hops=edge_hops)
