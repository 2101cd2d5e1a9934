"""Simulation jobs, structural fingerprints and manifest I/O.

A :class:`SimJob` bundles a circuit with the outputs the caller wants
back — final state, seeded shot counts, Pauli expectation values, or any
combination.  Jobs are what :class:`~repro.serve.runner.BatchRunner`
consumes; :func:`circuit_fingerprint` is the canonical structural key
that lets the runner route structurally identical circuits (a parameter
sweep) through one shared partition and one compiled plan structure.

Manifests are plain JSON (see ``docs/serving.md`` for the schema): a
job list where each circuit is either a named generator spec, inline
OpenQASM text, or a path to a ``.qasm`` file, plus top-level runner
options.  :func:`load_manifest` parses one; :func:`results_to_manifest`
renders a list of :class:`JobResult` back to JSON-serialisable form.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import reprlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import generators, qasm
from ..circuits.circuit import QuantumCircuit
from ..config import RUN_OPTION_FIELDS
from ..sv.pauli import PauliTerm

__all__ = [
    "SimJob",
    "JobResult",
    "circuit_fingerprint",
    "structural_fingerprint",
    "fingerprints",
    "load_manifest",
    "results_to_manifest",
]

#: Manifest keys that configure the runner rather than a job: the
#: execution options plus the two dispatch knobs of ``BatchRunner``.
MANIFEST_OPTION_KEYS = RUN_OPTION_FIELDS + ("schedule", "workers")


def structural_fingerprint(circuit: QuantumCircuit) -> str:
    """Fingerprint of a circuit's *structure* (params excluded).

    Hashes the register width and the ordered ``(name, qubits)`` list;
    gate parameters are deliberately left out.  Two circuits share a
    structural fingerprint exactly when they share gate names, operands
    and order — the condition under which they partition identically
    and their fused-plan structures (groupings, gather tables) are
    interchangeable.  This is the cache key for partitions, compiled
    plan structures and schedule grouping.

    >>> from repro.circuits.generators import qaoa
    >>> a = qaoa(6, p=1, gammas=[0.1], betas=[0.2])
    >>> b = qaoa(6, p=1, gammas=[0.8], betas=[0.3])   # same graph, new angles
    >>> structural_fingerprint(a) == structural_fingerprint(b)
    True
    >>> c = qaoa(6, p=2)                              # extra round: new structure
    >>> structural_fingerprint(a) == structural_fingerprint(c)
    False
    """
    return fingerprints(circuit)[1]


def fingerprints(circuit: QuantumCircuit) -> Tuple[str, str]:
    """``(circuit_fingerprint, structural_fingerprint)`` from one pass
    over the gate list: the identity digest continues the structural
    one, so only ``cut_boundary`` tags are hashed on top.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> identity, structural = fingerprints(qc)
    >>> identity == circuit_fingerprint(qc) == structural
    True
    """
    h = hashlib.sha256(
        f"n={circuit.num_qubits}\n".encode()
        + "".join(
            f"{g.name}:{','.join(map(str, g.qubits))}\n" for g in circuit
        ).encode()
    )
    structural = h.hexdigest()
    boundary = getattr(circuit, "cut_boundary", ())
    if not boundary:
        return structural, structural
    for kind, qubit, label in boundary:
        h.update(f"cut:{kind}:{qubit}:{label}\n".encode())
    return h.hexdigest(), structural


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Canonical *identity* fingerprint of a circuit.

    Extends :func:`structural_fingerprint` with the circuit's
    ``cut_boundary`` tags (set by
    :func:`repro.cut.fragments.variant_circuit` on wire-cut fragment
    variants).  Boundary variants differ only in ``u3`` parameters —
    structurally identical on purpose, so they share one partition and
    one plan structure — but they are *different computations*, and a
    fingerprint used for result identity (serve dedup, result routing)
    must never collide them.  For circuits without boundary tags the
    two fingerprints are equal, so nothing changes for ordinary jobs.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> circuit_fingerprint(qc) == structural_fingerprint(qc)
    True
    >>> tagged = qc.copy(); tagged.cut_boundary = (("prep", 0, "plus"),)
    >>> circuit_fingerprint(tagged) == circuit_fingerprint(qc)
    False
    >>> structural_fingerprint(tagged) == structural_fingerprint(qc)
    True
    """
    return fingerprints(circuit)[0]


@dataclass(frozen=True)
class SimJob:
    """One simulation request: a circuit plus the outputs wanted back.

    Attributes
    ----------
    job_id:
        Caller-chosen identifier echoed on the result.
    circuit:
        The circuit to simulate (from ``|0...0>``).
    want_state:
        Return the final state vector on the result.
    shots:
        When positive, sample this many measurement outcomes.
    seed:
        RNG seed for sampling (``None`` = 0, so results are always
        deterministic and independent of scheduling order).
    observables:
        Pauli strings (``"ZZII"`` style or ``{qubit: op}`` maps) whose
        expectation values to return, in order.
    cut:
        When set, run the job through the wire-cutting pipeline
        (:mod:`repro.cut`) instead of simulating the full width
        directly.  A mapping with ``max_width`` (required, ``>= 2``)
        and optionally ``cuts`` (the cut budget); everything else about
        the run is the runner's.

    >>> from repro.circuits.circuit import QuantumCircuit
    >>> qc = QuantumCircuit(2).h(0).cx(0, 1)
    >>> job = SimJob("bell", qc, shots=16, observables=("ZZ",))
    >>> job.observables
    ('ZZ',)
    >>> SimJob("c", qc, shots=4, cut={"cuts": 2})
    Traceback (most recent call last):
        ...
    ValueError: cut spec needs an integer 'max_width' >= 2
    """

    job_id: str
    circuit: QuantumCircuit
    want_state: bool = False
    shots: int = 0
    seed: Optional[int] = None
    observables: Tuple[PauliTerm, ...] = ()
    cut: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        object.__setattr__(self, "observables", tuple(self.observables))
        if self.cut is not None:
            if not isinstance(self.cut, dict):
                raise ValueError("cut spec must be a mapping")
            unknown = set(self.cut) - {"max_width", "cuts"}
            if unknown:
                raise ValueError(
                    f"unknown cut spec keys: {', '.join(sorted(unknown))}"
                )
            width = self.cut.get("max_width")
            if not isinstance(width, int) or isinstance(width, bool) \
                    or width < 2:
                raise ValueError("cut spec needs an integer 'max_width' >= 2")


@dataclass
class JobResult:
    """Outputs and accounting for one completed :class:`SimJob`.

    ``state`` / ``counts`` / ``expectations`` are ``None`` unless the job
    requested them.  ``partition_cached`` records whether the job reused
    a partition computed for an earlier structurally identical job.
    ``error`` is ``None`` on success; a failed job carries the exception
    rendered as ``"TypeName: message"`` (and no outputs) — batches are
    partial rather than all-or-nothing.

    >>> r = JobResult("j0", fingerprint="ab12", num_qubits=2, num_gates=3,
    ...               num_parts=1, seconds=0.01, partition_cached=True)
    >>> r.job_id, r.state is None, r.ok
    ('j0', True, True)
    >>> JobResult("j1", "ab12", 2, 3, 0, 0.0, False,
    ...           error="ValueError: boom").ok
    False
    """

    job_id: str
    fingerprint: str
    num_qubits: int
    num_gates: int
    num_parts: int
    seconds: float
    partition_cached: bool
    state: Optional[np.ndarray] = None
    counts: Optional[Dict[int, int]] = None
    expectations: Optional[List[float]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the job completed without error."""
        return self.error is None


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


def _build_circuit(
    spec: Any, base_dir: Optional[str], job_id: str
) -> QuantumCircuit:
    """Resolve a manifest circuit spec to a :class:`QuantumCircuit`.

    ``base_dir`` is the directory of the manifest *file*, ``None`` for
    an already-parsed manifest — which may not name files at all: the
    daemon's request bodies arrive that way, and a client must not make
    the server open paths of its choosing.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job {job_id!r}: circuit spec must be an object")
    kinds = [k for k in ("generator", "qasm", "qasm_file") if k in spec]
    if len(kinds) != 1:
        raise ValueError(
            f"job {job_id!r}: circuit spec needs exactly one of "
            f"'generator', 'qasm', 'qasm_file'"
        )
    kind = kinds[0]
    if kind == "generator":
        name = spec["generator"]
        qubits = spec.get("qubits")
        if qubits is None:
            raise ValueError(f"job {job_id!r}: generator spec needs 'qubits'")
        qubits = _field(job_id, "qubits", int, qubits)
        kwargs = _field(job_id, "args", dict, spec.get("args", {}))
        try:
            return generators.build(str(name), qubits, **kwargs)
        except (TypeError, OverflowError) as exc:
            # A width or argument the generator cannot take (a float it
            # overflows, a keyword it lacks) is the spec's fault.
            raise ValueError(
                f"job {job_id!r}: generator {name!r} cannot build "
                f"'qubits' {qubits} with 'args' {reprlib.repr(kwargs)}: "
                f"{exc}"
            ) from None
    if kind == "qasm":
        if not isinstance(spec["qasm"], str):
            raise ValueError(f"job {job_id!r}: 'qasm' must be a string")
        return qasm.loads(spec["qasm"], name=job_id)
    if base_dir is None:
        raise ValueError(
            f"job {job_id!r}: 'qasm_file' is read relative to a manifest "
            f"file; a manifest passed as an object carries the text as "
            f"'qasm'"
        )
    return qasm.load(os.path.join(base_dir, spec["qasm_file"]))


def _field(job_id: str, key: str, convert, value: Any):
    """``convert(value)``, job ``job_id``'s field ``key``: a value it
    refuses, or overflows (``int(1e400)``), is a :class:`ValueError`
    naming the job and the field.

    >>> _field("j", "shots", int, 8.0)
    8
    >>> _field("j", "seed", int, 1e400)
    Traceback (most recent call last):
    ...
    ValueError: job 'j': bad 'seed' inf (cannot convert float infinity
    to integer)
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"job {job_id!r}: bad {key!r} {reprlib.repr(value)} ({exc})"
        ) from None


def _parse_observable(term: Any) -> PauliTerm:
    if isinstance(term, str):
        return term
    if isinstance(term, dict):
        return {int(q): str(c) for q, c in term.items()}
    raise ValueError(f"bad observable {term!r}")


def load_manifest(source) -> Tuple[List[SimJob], Dict[str, Any]]:
    """Parse a batch manifest into jobs and runner options.

    ``source`` is a path to a JSON file or an already-parsed dict (only
    the former may name ``qasm_file`` circuits, relative to itself).
    Returns ``(jobs, options)`` where ``options`` holds the top-level
    runner keys present in the manifest (``strategy``, ``schedule``,
    ``workers``, ...).  A job that names no outputs defaults to
    ``want_state=True``.

    Unknown top-level keys are rejected (with the nearest valid option
    named), so a typo'd option fails loudly instead of silently running
    defaults; ``limit`` must be ``null``/absent (derive per circuit) or
    an integer ``>= 1``.

    >>> jobs, options = load_manifest({
    ...     "schedule": "fifo",
    ...     "jobs": [{"id": "g",
    ...               "circuit": {"generator": "qft", "qubits": 4},
    ...               "shots": 8}],
    ... })
    >>> options, jobs[0].job_id, jobs[0].shots, jobs[0].want_state
    ({'schedule': 'fifo'}, 'g', 8, False)
    >>> load_manifest({"schedles": "fifo", "jobs": []})
    Traceback (most recent call last):
        ...
    ValueError: unknown manifest key 'schedles' (did you mean 'schedule'?)
    """
    base_dir = None
    if isinstance(source, (str, os.PathLike)):
        base_dir = os.path.dirname(os.path.abspath(source))
        with open(source, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    else:
        manifest = source
    if not isinstance(manifest, dict) or "jobs" not in manifest:
        raise ValueError("manifest must be an object with a 'jobs' list")
    valid_keys = ("jobs",) + MANIFEST_OPTION_KEYS
    for key in manifest:
        if key not in valid_keys:
            close = difflib.get_close_matches(str(key), valid_keys, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else (
                f"; valid keys: {', '.join(valid_keys)}"
            )
            raise ValueError(f"unknown manifest key {key!r}{hint}")
    options = {
        k: manifest[k] for k in MANIFEST_OPTION_KEYS if k in manifest
    }
    if "limit" in options:
        limit = options["limit"]
        if limit is None:
            del options["limit"]  # explicit null = derive per circuit
        elif not isinstance(limit, int) or isinstance(limit, bool) \
                or limit < 1:
            raise ValueError(
                f"manifest 'limit' must be an integer >= 1 or null "
                f"(got {limit!r}); omit it to derive the per-circuit "
                f"default"
            )
    if not isinstance(manifest["jobs"], list):
        raise ValueError("manifest 'jobs' must be a list")
    jobs: List[SimJob] = []
    for i, entry in enumerate(manifest["jobs"]):
        if not isinstance(entry, dict):
            raise ValueError(f"job #{i} must be an object")
        job_id = str(entry.get("id", f"job-{i}"))
        circuit = _build_circuit(entry.get("circuit"), base_dir, job_id)
        shots = _field(job_id, "shots", int, entry.get("shots", 0))
        seed = entry.get("seed")
        if seed is not None:
            seed = _field(job_id, "seed", int, seed)
        observables = _field(
            job_id,
            "observables",
            lambda terms: tuple(_parse_observable(t) for t in terms),
            entry.get("observables", ()),
        )
        want_state = bool(entry.get("state", False))
        if not (want_state or shots or observables):
            want_state = True
        cut = entry.get("cut")
        jobs.append(
            SimJob(
                job_id=job_id,
                circuit=circuit,
                want_state=want_state,
                shots=shots,
                seed=seed,
                observables=observables,
                cut=None if cut is None else _field(job_id, "cut", dict, cut),
            )
        )
    return jobs, options


def results_to_manifest(
    results: Sequence[JobResult], stats: Optional[dict] = None
) -> Dict[str, Any]:
    """Render results to a JSON-serialisable results manifest.

    States are inlined as ``[[re, im], ...]`` amplitude pairs; counts
    are keyed by the decimal basis-state index (little-endian bit
    convention, as everywhere in this package).  A failed job renders
    its ``error`` string instead of outputs, so consumers can tell a
    partial batch apart from a complete one per entry.

    >>> r = JobResult("j0", "ab12", num_qubits=1, num_gates=1, num_parts=1,
    ...               seconds=0.0, partition_cached=False, counts={2: 5})
    >>> results_to_manifest([r])["jobs"][0]["counts"]
    {'2': 5}
    >>> bad = JobResult("j1", "ab12", 1, 1, 0, 0.0, False,
    ...                 error="ValueError: boom")
    >>> results_to_manifest([bad])["jobs"][0]["error"]
    'ValueError: boom'
    """
    out_jobs = []
    for r in results:
        entry: Dict[str, Any] = {
            "id": r.job_id,
            "fingerprint": r.fingerprint,
            "qubits": r.num_qubits,
            "gates": r.num_gates,
            "parts": r.num_parts,
            "seconds": r.seconds,
            "partition_cached": r.partition_cached,
        }
        if r.error is not None:
            entry["error"] = r.error
        if r.counts is not None:
            entry["counts"] = {str(k): v for k, v in sorted(r.counts.items())}
        if r.expectations is not None:
            entry["expectations"] = list(r.expectations)
        if r.state is not None:
            entry["state"] = [
                [float(a.real), float(a.imag)] for a in r.state
            ]
        out_jobs.append(entry)
    manifest: Dict[str, Any] = {"jobs": out_jobs}
    if stats is not None:
        manifest["stats"] = stats
    return manifest
