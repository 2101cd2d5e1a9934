"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import List, Optional

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS, make_gate
from repro.sv.layout import permute_bits


# Families usable at a given small width, for parametrised suite tests.
SUITE_SMALL = [
    ("cat_state", 8),
    ("bv", 8),
    ("qaoa", 8),
    ("cc", 8),
    ("ising", 8),
    ("qft", 7),
    ("qnn", 8),
    ("grover", 9),
    ("qpe", 7),
    ("adder", 8),
]

#: Manifest values of a valid key but the wrong type, as ``(scope, key,
#: value)``: ``"option"`` sets a top-level runner option, ``"job"`` a
#: field of the one job.  Each was run, truncated or escaped as a bare
#: ``TypeError``; now each is a ``ValueError`` naming its key
#: (:func:`manifest_refusal`), through every path a manifest takes.
BAD_MANIFEST_VALUES = [
    ("option", "fuse", "false"),
    ("option", "max_fused_qubits", 2.5),
    ("option", "threads", 1.5),
    ("option", "max_fused_qubits", "3"),
    ("option", "threads", "2"),
    ("option", "workers", "2"),
    ("option", "strategy", ["dagP"]),
    ("option", "fuse", None),
    ("job", "shots", 2.7),
    ("job", "shots", True),
    ("job", "seed", 2.5),
    ("job", "state", "false"),
]


def bad_manifest(scope: str, key: str, value) -> dict:
    """A one-job manifest (4-qubit QFT, id ``j``) with ``key`` set to
    ``value`` at ``scope``: one :data:`BAD_MANIFEST_VALUES` case."""
    job = {"id": "j", "circuit": {"generator": "qft", "qubits": 4}}
    if scope == "job":
        return {"jobs": [{**job, key: value}]}
    return {key: value, "jobs": [job]}


def manifest_refusal(scope: str, key: str, value) -> str:
    """The start of the message refusing :func:`bad_manifest`."""
    if scope == "job":
        return f"job 'j': bad {key!r}"
    return f"manifest option {key}={value!r} refused"


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    max_arity: int = 3,
    gate_pool: Optional[List[str]] = None,
) -> QuantumCircuit:
    """Deterministic random circuit over the full gate vocabulary."""
    rng = random.Random(seed)
    if gate_pool is None:
        gate_pool = [
            name
            for name, d in GATE_DEFS.items()
            if d.num_qubits <= min(max_arity, num_qubits)
        ]
    qc = QuantumCircuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        name = rng.choice(gate_pool)
        d = GATE_DEFS[name]
        qubits = rng.sample(range(num_qubits), d.num_qubits)
        params = tuple(rng.uniform(0, 2 * math.pi) for _ in range(d.num_params))
        qc.append(make_gate(name, qubits, params))
    return qc


def part_contents(circuit: QuantumCircuit, partition) -> set:
    """What each part of ``partition`` computes, as the plan cache keys
    its structures: the ordered ``(name, qubits)`` of the part's gates
    and its working set.  One structure is built per distinct entry."""
    return {
        (
            tuple((circuit[g].name, circuit[g].qubits) for g in part.gate_indices),
            tuple(part.qubits),
        )
        for part in partition.parts
    }


def refuse_gate_matrix(monkeypatch, name: str, params: tuple) -> str:
    """Make binding ``name`` with ``params`` raise ``ValueError`` — a
    failure of one job's parameters that no plan key can prevent.
    Returns the message."""
    from repro.sv import fusion

    message = f"refused {name}{params}"
    real = fusion.shared_gate_matrix

    def matrix(gate, values):
        if gate == name and tuple(values) == params:
            raise ValueError(message)
        return real(gate, values)

    monkeypatch.setattr(fusion, "shared_gate_matrix", matrix)
    return message


class RefineReference:
    """Oracle for ``repro.partition.dagp.refine``: the refinement loop as
    first written -- every step re-scans all ``n`` nodes through
    :meth:`legal` and re-derives each candidate's cost bit position by
    bit position.  The production ``RefineState`` keeps the legal set and
    the counters incrementally and must agree move for move.
    """

    def __init__(self, sub, labels: List[int]) -> None:
        self.sub = sub
        self.labels = labels
        n = sub.num_nodes
        nq = max((m.bit_length() for m in sub.qmask), default=0)
        self.qcnt = [[0] * nq, [0] * nq]
        self.weights = [0, 0]
        self.ws = [0, 0]
        self.succ0 = [0] * n  # successors in side 0
        self.pred1 = [0] * n  # predecessors in side 1
        for v in range(n):
            s = labels[v]
            self.weights[s] += sub.weight[v]
            for q in range(nq):
                if sub.qmask[v] >> q & 1:
                    if self.qcnt[s][q] == 0:
                        self.ws[s] += 1
                    self.qcnt[s][q] += 1
        for v in range(n):
            for w in sub.succ[v]:
                if labels[w] == 0:
                    self.succ0[v] += 1
                if labels[v] == 1:
                    self.pred1[w] += 1

    def cost(self):
        return (
            max(self.ws[0], self.ws[1]),
            self.ws[0] + self.ws[1],
            abs(self.weights[0] - self.weights[1]),
        )

    def cost_after_move(self, v: int):
        """Cost if ``v`` switched sides (no mutation)."""
        s = self.labels[v]
        t = 1 - s
        ws_s, ws_t = self.ws[s], self.ws[t]
        for q in range(len(self.qcnt[0])):
            if self.sub.qmask[v] >> q & 1:
                if self.qcnt[s][q] == 1:
                    ws_s -= 1
                if self.qcnt[t][q] == 0:
                    ws_t += 1
        w_s = self.weights[s] - self.sub.weight[v]
        w_t = self.weights[t] + self.sub.weight[v]
        return (max(ws_s, ws_t), ws_s + ws_t, abs(w_s - w_t))

    def movable(self, v: int) -> bool:
        """The boundary rule alone: flipping ``v`` keeps 0 before 1."""
        return (self.pred1[v] if self.labels[v] else self.succ0[v]) == 0

    def legal(self, v: int) -> bool:
        """Movable, and the flip does not empty ``v``'s side."""
        s = self.labels[v]
        return self.weights[s] - self.sub.weight[v] > 0 and self.movable(v)

    def apply(self, v: int) -> None:
        s = self.labels[v]
        t = 1 - s
        self.labels[v] = t
        self.weights[s] -= self.sub.weight[v]
        self.weights[t] += self.sub.weight[v]
        for q in range(len(self.qcnt[0])):
            if self.sub.qmask[v] >> q & 1:
                self.qcnt[s][q] -= 1
                if self.qcnt[s][q] == 0:
                    self.ws[s] -= 1
                if self.qcnt[t][q] == 0:
                    self.ws[t] += 1
                self.qcnt[t][q] += 1
        step = 1 if s else -1  # v left side 1 / side 0
        for p in self.sub.pred[v]:
            self.succ0[p] += step
        for w in self.sub.succ[v]:
            self.pred1[w] -= step

    def best_move(self) -> Optional[int]:
        """First node, in id order, whose legal flip costs least and less
        than the current cost."""
        best_v, best_cost = None, self.cost()
        for v in range(self.sub.num_nodes):
            if self.legal(v):
                c = self.cost_after_move(v)
                if c < best_cost:
                    best_cost, best_v = c, v
        return best_v


def refine_reference(sub, labels: List[int], max_passes: int = 8) -> List[int]:
    """The reference refinement of ``labels`` on ``sub`` (mutated)."""
    state = RefineReference(sub, labels)
    for _ in range(max_passes):
        improved = False
        for _ in range(max(8, sub.num_nodes)):
            v = state.best_move()
            if v is None:
                break
            state.apply(v)
            improved = True
        if not improved:
            break
    return state.labels


# -- dagP as first written ---------------------------------------------------
#
# Oracles for ``repro.dag.gategraph`` and ``repro.partition.dagp``: each
# phase as it stood before the phases were rewritten for speed.  The
# production phases must return the same graphs (successor and
# predecessor lists in the same order), draw the same random numbers and
# give the same partitions.


def from_circuit_reference(circuit):
    """``GateGraph.from_circuit``: edges deduplicated through a global set
    of edge tuples."""
    from repro.dag import GateGraph
    from repro.dag.gategraph import gate_dependency_edges

    n = len(circuit)
    succ: List[List[int]] = [[] for _ in range(n)]
    pred: List[List[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in gate_dependency_edges(circuit):
        if (u, v) not in seen:
            seen.add((u, v))
            succ[u].append(v)
            pred[v].append(u)
    return GateGraph(
        [[g] for g in range(n)],
        [sum(1 << q for q in g.qubits) for g in circuit],
        [1] * n,
        succ,
        pred,
    )


def contract_reference(graph, cluster_of, num_clusters: int):
    """``GateGraph.contract``: edges deduplicated through a global set of
    integer keys."""
    from repro.dag import GateGraph

    qmask = [0] * num_clusters
    weight = [0] * num_clusters
    for c, m, w in zip(cluster_of, graph.qmask, graph.weight):
        qmask[c] |= m
        weight[c] += w
    members: List[List[int]] = [[] for _ in range(num_clusters)]
    for c, ids in zip(cluster_of, graph.gate_ids):
        members[c] += ids
    succ: List[List[int]] = [[] for _ in range(num_clusters)]
    pred: List[List[int]] = [[] for _ in range(num_clusters)]
    seen = set()
    for cu, vs in zip(cluster_of, graph.succ):
        for v in vs:
            cv = cluster_of[v]
            key = cu * num_clusters + cv
            if cu != cv and key not in seen:
                seen.add(key)
                succ[cu].append(cv)
                pred[cv].append(cu)
    return GateGraph(members, qmask, weight, succ, pred)


def induce_reference(graph, nodes):
    """``GateGraph.induce``: ids mapped through a dict."""
    from repro.dag import GateGraph

    local = dict(zip(nodes, range(len(nodes)))).get
    succ: List[List[int]] = []
    pred: List[List[int]] = [[] for _ in nodes]
    for i, v in enumerate(nodes):
        succ.append([j for j in map(local, graph.succ[v]) if j is not None])
        for j in succ[i]:
            pred[j].append(i)
    return GateGraph(
        [graph.gate_ids[v] for v in nodes],
        [graph.qmask[v] for v in nodes],
        [graph.weight[v] for v in nodes],
        succ,
        pred,
    )


def topological_order_reference(graph, priority=None) -> List[int]:
    """``GateGraph.topological_order``: Kahn's algorithm on a heap of
    ``(priority, id)`` pairs, ids as the default priorities."""
    import heapq

    n = graph.num_nodes
    indeg = [len(graph.pred[v]) for v in range(n)]
    if priority is None:
        priority = list(range(n))
    heap = [(priority[v], v) for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        _, v = heapq.heappop(heap)
        order.append(v)
        for w in graph.succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (priority[w], w))
    if len(order) != n:
        raise ValueError("gate graph contains a cycle")
    return order


def coarsen_once_reference(sub, rng, max_cluster_weight: int, max_cluster_qubits: int):
    """``dagp.coarsen_once``: ``rng.shuffle``, a set of sole
    predecessors, compaction through a dict, :func:`contract_reference`."""
    n = sub.num_nodes
    succ, pred, qmask, weight = sub.succ, sub.pred, sub.qmask, sub.weight
    cluster_of = list(range(n))
    merged = [False] * n
    k = n
    nodes = list(range(n))
    rng.shuffle(nodes)
    sole = {p[0] for p in pred if len(p) == 1}
    for u in [u for u in nodes if len(succ[u]) == 1 or u in sole]:
        if merged[u]:
            continue
        best = best_key = None
        only = len(succ[u]) == 1
        for v in succ[u]:
            if merged[v] or not (only or len(pred[v]) == 1):
                continue
            if weight[u] + weight[v] > max_cluster_weight:
                continue
            union = (qmask[u] | qmask[v]).bit_count()
            if union > max_cluster_qubits:
                continue
            key = (-(qmask[u] & qmask[v]).bit_count(), union)
            if best_key is None or key < best_key:
                best, best_key = v, key
        if best is not None:
            cluster_of[best] = u
            merged[u] = merged[best] = True
            k -= 1
    if k == n:
        return sub, cluster_of
    remap = {root: c for c, root in enumerate(dict.fromkeys(cluster_of))}
    compact = [remap[root] for root in cluster_of]
    return contract_reference(sub, compact, k), compact


def coarsen_reference(sub, target_nodes: int = 64, seed: int = 5):
    """``dagp.coarsen`` over :func:`coarsen_once_reference`."""
    import importlib

    module = importlib.import_module("repro.partition.dagp.coarsen")

    rng = random.Random(seed)
    graphs, maps = [sub], []
    max_w = max(2, max(1, sub.total_weight()) // max(2, target_nodes // 2))
    for _ in range(module._MAX_LEVELS):
        cur = graphs[-1]
        if cur.num_nodes <= target_nodes:
            break
        coarse, mapping = coarsen_once_reference(
            cur, rng, max_w, module._MAX_CLUSTER_QUBITS
        )
        if coarse.num_nodes >= cur.num_nodes:
            break
        graphs.append(coarse)
        maps.append(mapping)
    return graphs, maps


def bisection_cost(sub, labels: List[int]):
    """(max side working set, sum of working sets, weight imbalance) of
    a bisection: the cost ``dagp.initial_bisection`` and the refinement
    minimise, lexicographically."""
    mask = [0, 0]
    side_w = [0, 0]
    for s, m, w in zip(labels, sub.qmask, sub.weight):
        mask[s] |= m
        side_w[s] += w
    c0, c1 = mask[0].bit_count(), mask[1].bit_count()
    return (max(c0, c1), c0 + c1, abs(side_w[0] - side_w[1]))


def initial_bisection_reference(sub, seed: int = 9) -> List[int]:
    """``dagp.initial_bisection``: every candidate labelled, then costed
    by :func:`bisection_cost`."""
    n = sub.num_nodes
    orders = [topological_order_reference(sub)]
    levels = [0] * n
    for v in orders[0]:
        for w in sub.succ[v]:
            levels[w] = max(levels[w], levels[v] + 1)
    orders.append(sorted(range(n), key=levels.__getitem__))
    rng = random.Random(seed)
    for _ in range(2):
        orders.append(
            topological_order_reference(sub, [rng.random() for _ in range(n)])
        )
    total = sub.total_weight()
    best = best_cost = None
    for order in orders:
        labels = [1] * n
        acc = 0
        for i, v in enumerate(order):
            if acc >= (total + 1) // 2 and i > 0:
                break
            labels[v] = 0
            acc += sub.weight[v]
        if acc == total:
            labels[order[-1]] = 1
        cost = bisection_cost(sub, labels)
        if best_cost is None or cost < best_cost:
            best, best_cost = labels, cost
    return best


def project_reference(state, fine, mapping) -> None:
    """``RefineState.project`` for any cluster map: first members found
    through a dict, each further member counted bit by bit."""
    coarse = state.labels
    state.sub = fine
    state.labels = [coarse[c] for c in mapping]
    state.legal = None
    n = len(mapping)
    first = dict(zip(reversed(mapping), range(n - 1, -1, -1)))
    union = {}
    state.split = []
    for v in [v for v, c in enumerate(mapping) if first[c] != v]:
        c = mapping[v]
        s = coarse[c]
        seen = union.get(c, fine.qmask[first[c]])
        m = seen & fine.qmask[v]
        while m:
            b = m & -m
            m ^= b
            q = b.bit_length() - 1
            state.qcnt[s][q] += 1
            state.touched[s] |= b
            if state.qcnt[s][q] == 1:
                state.alone[s] |= b
            else:
                state.alone[s] &= ~b
        union[c] = seen | fine.qmask[v]
        state.split += (first[c], v)


def dagp_leaves_reference(partitioner, sub, limit: int, seed: int):
    """``DagPPartitioner._leaves``: both sides of every bisection induced
    as graphs, a leaf being a graph that fits ``limit``."""
    from repro.partition.base import PartitionError
    from repro.partition.dagp.refine import refine_bisection

    if sub.working_set_size() <= limit:
        yield sub
        return
    graphs, maps = coarsen_reference(sub, seed=seed)
    labels = initial_bisection_reference(graphs[-1], seed=seed)
    labels = refine_bisection(
        graphs[-1], labels, partitioner.refine_passes,
        zip(graphs[-2::-1], maps[::-1]),
    )
    sides = ([], [])
    for v, side in enumerate(labels):
        sides[side].append(v)
    if not (sides[0] and sides[1]):
        raise PartitionError("bisection produced an empty side")
    for nodes in sides:
        yield from dagp_leaves_reference(
            partitioner, induce_reference(sub, nodes), limit, seed
        )


def greedy_merge_reference(masks, edges, limit: int) -> List[int]:
    """``partition.merge.greedy_merge``: reachability recomputed from
    scratch before every merge."""
    from repro.partition.merge import _reach_masks, path_through_third

    k = len(masks)
    mask = list(masks)
    succ, pred = [0] * k, [0] * k
    for u, v in edges:
        if u != v:
            succ[u] |= 1 << v
            pred[v] |= 1 << u
    alive = [True] * k
    group = list(range(k))
    while True:
        live = [i for i in range(k) if alive[i]]
        if len(live) < 2:
            break
        reach = _reach_masks(succ, k)
        best = best_key = None
        for ia, a in enumerate(live):
            for b in live[ia + 1:]:
                union = mask[a] | mask[b]
                if union.bit_count() > limit:
                    continue
                if path_through_third(reach, succ, a, b):
                    continue
                key = (-(mask[a] & mask[b]).bit_count(), union.bit_count())
                if best_key is None or key < best_key:
                    best, best_key = (a, b), key
        if best is None:
            break
        a, b = best
        alive[b] = False
        group = [a if g == b else g for g in group]
        mask[a] |= mask[b]
        succ[a] = (succ[a] | succ[b]) & ~((1 << a) | (1 << b))
        pred[a] = (pred[a] | pred[b]) & ~((1 << a) | (1 << b))
        for i in range(k):
            if succ[i] >> b & 1:
                succ[i] = (succ[i] & ~(1 << b)) | ((1 << a) if i != a else 0)
            if pred[i] >> b & 1:
                pred[i] = (pred[i] & ~(1 << b)) | ((1 << a) if i != a else 0)
        succ[b] = pred[b] = 0
    remap = {}
    return [remap.setdefault(g, len(remap)) for g in group]


def dagp_partition_reference(partitioner, circuit, limit: int):
    """``DagPPartitioner.partition`` over the references above: every
    candidate merged and built into a ``Partition``, the first with the
    fewest parts kept."""
    from repro.partition.base import Partition
    from repro.partition.dagp.ggg import greedy_grow_assignment

    n_gates = len(circuit)
    root = from_circuit_reference(circuit)
    candidates = []
    for s in range(3 if n_gates <= 500 else 1):
        assignment = [-1] * n_gates
        leaves = dagp_leaves_reference(partitioner, root, limit, partitioner.seed + s)
        for pid, leaf in enumerate(leaves):
            for gids in leaf.gate_ids:
                for g in gids:
                    assignment[g] = pid
        candidates.append(assignment)
    if partitioner.use_ggg:
        candidates.append(greedy_grow_assignment(root, limit))
    best = None
    for assignment in candidates:
        if partitioner.do_merge:
            quotient = contract_reference(root, assignment, max(assignment) + 1)
            edges = [(u, v) for u, vs in enumerate(quotient.succ) for v in vs]
            group = greedy_merge_reference(quotient.qmask, edges, limit)
            assignment = [group[p] for p in assignment]
        cand = Partition.from_assignment(
            circuit, assignment, limit, partitioner.name, graph=root
        )
        if best is None or cand.num_parts < best.num_parts:
            best = cand
    return best


def dfs_partition_reference(partitioner, circuit, limit: int):
    """``DFSPartitioner.partition`` as first written: every trial's
    order cut and built into a ``Partition``, the first with the fewest
    parts kept."""
    import random

    from repro.dag import GateGraph
    from repro.partition.base import Partition
    from repro.partition.dfs import random_dfs_topological_order
    from repro.partition.natural import cutoff_assignment

    graph = GateGraph.from_circuit(circuit)
    best = None
    for t in range(partitioner.trials):
        rng = random.Random(partitioner.seed + t)
        order = random_dfs_topological_order(graph, rng)
        assignment = cutoff_assignment(graph.qmask, order, limit)
        cand = Partition.from_assignment(
            circuit, assignment, limit, partitioner.name, graph=graph
        )
        if best is None or cand.num_parts < best.num_parts:
            best = cand
    return best


def fuse_reference(steps, gates, operands: dict) -> np.ndarray:
    """Oracle for ``repro.sv.fusion._fuse``: one group's product matrix
    for one gate list, as first written -- ``diag(pending) @ acc`` over
    the bind program's steps, a ``2^m``-row GEMM per dense member.  The
    production ``_fuse`` builds a ``(K, d, d)`` stack for ``K`` gate
    lists in one pass, and each slice must agree with this byte for
    byte.  ``operands`` memoises ``(name, params)`` matrices across the
    groups of one part, as a bind does.
    """
    from repro.circuits.gates import shared_gate_matrix

    acc = pending = None  # None = identity
    for m, name, qubits, kind, table in steps:
        g = gates[m]
        if g.name != name or g.qubits != qubits:
            raise ValueError(
                f"gate {m} is {g.name} on {g.qubits}; the plan structure "
                f"was built for {name} on {qubits}"
            )
        if table is None:
            return shared_gate_matrix(name, g.params)
        key = (name, g.params)
        mat = operands.get(key)
        if mat is None:
            mat = shared_gate_matrix(name, g.params)
            if kind == "diag":
                mat = mat.diagonal()
            operands[key] = mat
        if kind == "diag":
            if pending is None:
                pending = mat.take(table)
            else:
                pending *= mat.take(table)
            continue
        if acc is None:
            acc = np.identity(table.shape[-1], dtype=np.complex128)
        if kind == "dense":
            if pending is not None:
                acc *= pending[:, None]
                pending = None
            acc = (
                (mat @ acc.take(table[0], axis=0).reshape(len(mat), -1))
                .reshape(acc.shape)
                .take(table[1], axis=0)
            )
        else:
            # P @ diag(d) @ M = diag(d[src]) @ (P @ M): nothing to multiply.
            acc = acc.take(table, axis=0)
            if pending is not None:
                pending = pending.take(table)
    if acc is None:
        return np.diag(pending)
    if pending is not None:
        acc *= pending[:, None]
    return acc


def to_dense_reference(state) -> np.ndarray:
    """Oracle for ``StabilizerState.to_dense``: the conversion as first
    written -- a Gray-code walk over the pivot Paulis' subsets, one Pauli
    multiply and one amplitude per step in Python.  The production
    doubling must agree with it bit for bit, signed zeros included.
    """
    from repro.sv.stabilizer import _I_POW

    def parity(x: int) -> int:
        return bin(x).count("1") & 1

    out = np.zeros(1 << state.num_qubits, dtype=np.complex128)
    pivots = state._pivot_paulis()
    out[state.ref_index] = state.ref_amp
    cx = cz = cr = 0
    for step in range(1, 1 << len(pivots)):
        j = (step & -step).bit_length() - 1
        px, pz, pr = pivots[j]
        cr = (cr + pr + 2 * parity(cz & px)) & 3
        cx ^= px
        cz ^= pz
        phase = (cr + 2 * parity(cz & state.ref_index)) & 3
        out[state.ref_index ^ cx] = _I_POW[phase] * state.ref_amp
    return out


def gather_sweep_reference(plan, state: np.ndarray, n: int, threads: int = 1):
    """Oracle for ``run_part``'s batched gather lane (mutates ``state``):
    the body as first written -- per block of the block rule at
    ``threads`` threads, gather ``state[table]``, run each local op
    through ``apply_matrix_batched`` (a transposing copy, a GEMM and a
    write-back every time), scatter.  The production body keeps the
    block in a workspace in the last dense op's axis order and must
    agree with it byte for byte.  Blocks hold whole groups of rows when
    a row gives the widest dense op fewer than ``MIN_GEMM_COLUMNS``
    GEMM columns, as the production blocks do.
    """
    from repro.sv.backend import _row_blocks
    from repro.sv.kernels import MIN_GEMM_COLUMNS, apply_matrix_batched

    table = plan.gather_table(n)
    w = len(plan.qubits)
    rows = table.shape[0]
    k = max(
        (len(op.qubits) for op in plan.ops if not op.is_diagonal), default=0
    )
    group = max(1, MIN_GEMM_COLUMNS >> (w - k))
    virtual = max(1, rows // group)
    for lo, hi in _row_blocks(virtual, table.size, threads):
        lo, hi = lo * group, rows if hi == virtual else hi * group
        inner = state[table[lo:hi]]
        for op in plan.local_ops():
            apply_matrix_batched(
                inner, op.matrix(), op.qubits, w, diagonal=op.is_diagonal
            )
        state[table[lo:hi]] = inner
    return state


def sweep_plan_reference(structure, rows: int, jobs: int = 1):
    """Oracle for ``PartPlanStructure.sweep_plan`` over a row block: the
    positional planner as first written -- axis 0 the gather row, axis
    ``i + 1`` the part's qubit ``w - 1 - i`` -- returning ``(steps,
    restore)``, ``restore`` being ``(shape, perm)`` back to natural
    order or ``None``.  For ``jobs > 1`` every dense step and the
    restore are lifted over a leading job axis.
    """
    from repro.sv.kernels import (
        _gate_axes,
        _gathered_sweep_plan,
        _order_perm,
        check_operands,
    )

    w = len(structure.qubits)
    pos = {q: i for i, q in enumerate(structure.qubits)}
    ops = []
    for grp in structure.groups:
        local = tuple(pos[q] for q in grp.qubits)
        check_operands(local, w)
        ops.append((tuple(_gate_axes(w, local, 1)), grp.diagonal))
    sizes = (rows,) + (2,) * w
    natural = tuple(range(w + 1))
    steps, end = _gathered_sweep_plan(sizes, natural, ops)
    perm = _order_perm(sizes, end, natural)
    restore = None if perm is None else (tuple(sizes[a] for a in end), perm)
    if jobs == 1:
        return steps, restore

    def lift(perm):
        return None if perm is None else (0, *[a + 1 for a in perm])

    def lift_step(step):
        shape, perm, target, gemm = step
        if gemm is None:
            return step
        return (jobs,) + shape, lift(perm), (jobs,) + target, (jobs,) + gemm

    if restore is not None:
        restore = ((jobs,) + restore[0], lift(restore[1]))
    return tuple(map(lift_step, steps)), restore


def one_pass(rows, matrix, positions, width, diagonal):
    """The one-pass formulation of one op over every row of ``rows``
    (``(B, 2^width)``, in place; ``positions`` are row-local qubits):
    the independent byte oracle every kernel entry point is held to.

    A diagonal op broadcasts ``diag`` shaped to the ``(B,) + (2,)*width``
    view; a dense op is one transposed copy and one GEMM over every row.
    """
    view = rows.reshape((rows.shape[0],) + (2,) * width)
    axes = [width - q for q in reversed(list(positions))]
    k = len(axes)
    if diagonal:
        fac = np.ascontiguousarray(np.diag(matrix)).reshape((2,) * k)
        fac = fac.transpose(tuple(np.argsort(axes)))
        shape = [1] * view.ndim
        for ax in axes:
            shape[ax] = 2
        view *= fac.reshape(shape)
    else:
        moved = np.moveaxis(view, axes, range(k))
        res = matrix @ moved.reshape(1 << k, -1)
        moved[...] = res.reshape(moved.shape)
    return rows


def same_bytes(a, b) -> bool:
    """Equal shapes and equal bytes (so ``-0.0`` differs from ``0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    )


def literal_reference(
    circuit,
    partition,
    state: np.ndarray,
    *,
    fuse: bool = True,
    backend=None,
    plan_cache=None,
    counters=None,
) -> np.ndarray:
    """Oracle for ``HierarchicalExecutor.run`` on a dense ``state``
    (mutated and returned): the paper's Algorithm 1 as written -- per
    part, per inner state vector (one row of the part's gather table),
    gather it, apply each of the part's ops to it with :func:`one_pass`
    and scatter it back.  Plans come from ``plan_cache`` (a fresh
    ``PlanCache`` by default) through ``get_or_compile``, whose events
    ``counters`` receives; ``backend`` (resolved as the executor
    resolves it) visits the rows in its blocks.
    """
    from repro.sv.backend import resolve_backend
    from repro.sv.fusion import PlanCache

    backend = resolve_backend(backend)
    if plan_cache is None:
        plan_cache = PlanCache()
    n = circuit.num_qubits
    for part in partition.parts:
        plan = plan_cache.get_or_compile(
            circuit, part.gate_indices, part.qubits, fuse=fuse,
            counters=counters,
        )
        w = len(plan.qubits)
        table = plan.gather_table(n)
        ops = plan.local_ops()

        def block(lo, hi):
            for index in table[lo:hi]:
                inner = state[index][None, :]
                for op in ops:
                    one_pass(inner, op.matrix(), op.qubits, w, op.is_diagonal)
                state[index] = inner[0]

        backend.map_blocks(block, table.shape[0], state.size)
    return state


def shard_sweep_reference(
    engine, circuit, part, inner, state, local_bits, compute
):
    """Oracle for ``HiSVSimEngine._execute_part`` (same signature, with
    the engine first): the shard loop as first written -- per gate group
    (the part, or its inner parts in order), the fused plan's ops (or the
    raw gates, unfused) each charged, then applied to every rank's shard
    row through ``state.apply_gate_local``.  The production engine runs
    each group as one ``run_plan`` and must agree with it byte for byte,
    model seconds included.
    """
    from repro.dist._cost import charge_gate
    from repro.dist.state import AMP_BYTES

    gate_indices = part.gate_indices
    shard_bytes = AMP_BYTES << local_bits
    seconds = 0.0
    if inner is None or inner.num_parts <= 1:
        groups = [(gate_indices, local_bits, part.qubits)]
    else:
        groups = [
            (
                tuple(gate_indices[j] for j in ip.gate_indices),
                ip.working_set_size,
                ip.qubits,
            )
            for ip in inner.parts
        ]
    for indices, width, qubits in groups:
        if width < local_bits:
            seconds += engine.machine.memcpy_time(2 * shard_bytes)
            working_set = AMP_BYTES << width
        else:
            working_set = shard_bytes
        if engine.options.fuse:
            ops = engine.plan_cache.get_or_compile(
                circuit,
                indices,
                qubits,
                fuse=True,
                max_fused_qubits=engine.options.max_fused_qubits,
            ).ops
        else:
            ops = [circuit[g] for g in indices]
        for op in ops:
            seconds += charge_gate(
                engine.machine, compute, op, local_bits, working_set
            )
            if not engine.dry_run:
                state.apply_gate_local(op, backend=engine.backend)
    return seconds


def iqs_reference_apply(engine, state, gate, keep_diagonal=True) -> None:
    """Oracle for how ``IQSEngine`` runs one gate on an in-process
    ``state`` under its current layout: its own kernels as first
    written, before every gate became a one-gate plan through
    ``state.run_plan``.

    * Diagonal fast path: one diagonal multiply over the flat state,
      whatever bits the operands sit on.
    * Control fast path, a control on a rank bit: the ranks whose
      control bits are all 1 apply the gate with those controls
      stripped (the rest are spectators), over a fancy-indexed copy of
      their rows written back.
    * Otherwise every operand is local: one shard-matrix sweep.

    ``keep_diagonal=False`` is the old engine exactly: its stripped gate
    lost the diagonal flag, so a diagonal gate with a control on a rank
    bit (diagonal fast path off) ran as a dense GEMM, which rounds up
    to one ulp apart from the in-place multiply ``run_plan`` makes.
    ``True`` keeps the flag, the one departure from the old kernels.
    """
    from repro.circuits.gates import controlled
    from repro.sv.backend import shared_backend
    from repro.sv.kernels import apply_matrix_batched

    layout, local_bits = state.layout, state.local_bits
    positions = [layout.position(q) for q in gate.qubits]
    if engine.diagonal_fastpath and gate.is_diagonal:
        apply_matrix_batched(
            state.shards.reshape(1, -1), np.diag(np.diag(gate.matrix())),
            positions, state.num_qubits, diagonal=True,
        )
        return
    c = gate.num_controls
    process = [i for i in range(c) if positions[i] >= local_bits]
    if not (engine.control_fastpath and process):
        state.apply_gate_local(gate)
        return
    ranks = np.arange(state.comm.num_ranks, dtype=np.int64)
    active = np.ones(ranks.size, dtype=bool)
    for i in process:
        active &= ((ranks >> (positions[i] - local_bits)) & 1) == 1
    if not np.any(active):
        return
    full, mask = gate.matrix(), (1 << c) - 1
    keep = [j for j in range(len(full)) if j & mask == mask]
    local = [i for i in range(c) if i not in process]
    matrix = controlled(full[np.ix_(keep, keep)], len(local))
    operands = local + list(range(c, gate.num_qubits))
    sub = state.shards[active]
    shared_backend("serial").apply_matrix_rows(
        sub, matrix, [positions[i] for i in operands], local_bits,
        diagonal=keep_diagonal and gate.is_diagonal,
    )
    state.shards[active] = sub


def scatter_reference(shards: np.ndarray, sigma):
    """Elementwise oracle for the bit-permutation exchange ``sigma``.

    The definition every production path (transposed view in process,
    slabs over sockets, closed-form traffic) is held to: each element of
    the ``(R, local)`` shard matrix is scattered to ``permute_bits`` of
    its packed index, and traffic is counted per (src, dst) pair.
    Returns ``(new_shards, step, per_rank)``: the step is ``(total_bytes,
    total_msgs, max_bytes_per_rank, max_msgs_per_rank)`` and
    ``per_rank[r]`` is ``(sent_bytes, sent_msgs, recv_bytes, recv_msgs)``,
    rank-to-self traffic excluded from both.
    """
    R, local = shards.shape
    packed = np.arange(shards.size, dtype=np.int64)
    dest = permute_bits(packed, sigma)
    new = np.empty(shards.size, dtype=shards.dtype)
    new[dest] = shards.reshape(-1)
    pairs = (packed // local) * R + dest // local
    counts = np.bincount(pairs, minlength=R * R).reshape(R, R)
    np.fill_diagonal(counts, 0)
    nbytes = counts * shards.dtype.itemsize
    out_b, in_b = nbytes.sum(axis=1), nbytes.sum(axis=0)
    out_m, in_m = (counts > 0).sum(axis=1), (counts > 0).sum(axis=0)
    step = (
        int(nbytes.sum()),
        int((counts > 0).sum()),
        int(np.maximum(out_b, in_b).max()),
        int(np.maximum(out_m, in_m).max()),
    )
    per_rank = [
        (int(out_b[r]), int(out_m[r]), int(in_b[r]), int(in_m[r]))
        for r in range(R)
    ]
    return new.reshape(R, local), step, per_rank


def full_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a circuit via kron expansion.

    Independent of the simulator kernels (used to validate them): builds
    each gate's full-space matrix by explicit basis-state index mapping.
    """
    n = circuit.num_qubits
    dim = 1 << n
    total = np.eye(dim, dtype=np.complex128)
    for gate in circuit:
        m = gate.matrix()
        qs = gate.qubits
        k = len(qs)
        big = np.zeros((dim, dim), dtype=np.complex128)
        for col in range(dim):
            j = 0
            for i, q in enumerate(qs):
                j |= ((col >> q) & 1) << i
            rest = col
            for q in qs:
                rest &= ~(1 << q)
            for jp in range(1 << k):
                row = rest
                for i, q in enumerate(qs):
                    row |= ((jp >> i) & 1) << q
                big[row, col] = m[jp, j]
        total = big @ total
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the block rule's ``BLOCK_ELEMENTS`` to 16 amplitudes (the
    value is returned), so toy-width states cross block boundaries and
    reach the thread pool.

    Not smaller: a 16-amplitude block still gives every 1- and 2-qubit
    op's GEMM at least four columns.  With fewer, BLAS computes the last
    columns in its edge kernel, whose last bits differ from the full-width
    kernel's, and the entry points stop agreeing bitwise with each other
    (at 4 amplitudes they do, by an ulp) — a toy-size artefact: at the real
    ``BLOCK_ELEMENTS`` such an op has ``2^12`` columns or more per block.
    The block rule never splits or groups a dense op's rows below
    ``MIN_GEMM_COLUMNS`` columns, so its virtual rows stay bitwise at
    this size too.  Diagonal ops stream from 16 amplitudes on.
    """
    import repro.sv.kernels

    monkeypatch.setattr(repro.sv.kernels, "BLOCK_ELEMENTS", 16)
    return 16
