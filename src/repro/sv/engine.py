"""Simulation-method resolution.

The simulation *method* decides which state representation a run starts
in; :class:`~repro.sv.hier.HierarchicalExecutor` then routes each part
on the representation it is handed — dense arrays go to an
:class:`~repro.sv.backend.ExecutionBackend`'s ``run_plan``, a
:class:`~repro.sv.stabilizer.StabilizerState` tableau takes Clifford
parts through ``apply_all`` and converts to dense amplitudes only at the
first non-Clifford part.

Method selection (``resolve_method``): ``auto`` (default) runs a
circuit's leading Clifford-only parts on the tableau and the rest on
the dense path — a circuit whose first part is not Clifford-only runs
dense bit-identically, and above 30 qubits only all-Clifford circuits
start on the tableau; ``stabilizer`` takes the prefix route at every
width; ``dense`` forces the dense path everywhere.  The environment
knob is ``REPRO_METHOD`` (see ``docs/configuration.md``).
"""

from __future__ import annotations

from typing import Optional

from ..config import env

__all__ = ["METHOD_NAMES", "resolve_method"]

#: Valid simulation-method names (CLI ``--method``, ``REPRO_METHOD``).
METHOD_NAMES = ("auto", "dense", "stabilizer")


def resolve_method(spec: Optional[str] = None) -> str:
    """Resolve a simulation method name: argument → env → ``"auto"``.

    ``None`` falls back to the ``REPRO_METHOD`` environment variable
    (empty string counts as unset), then to ``"auto"``.

    >>> resolve_method("dense")
    'dense'
    >>> resolve_method()                # no env set in the test run
    'auto'
    >>> resolve_method("tensor")
    Traceback (most recent call last):
        ...
    ValueError: unknown method 'tensor'; choose from ('auto', 'dense', 'stabilizer')
    """
    if spec is None:
        spec = env("REPRO_METHOD")
    if spec not in METHOD_NAMES:
        raise ValueError(
            f"unknown method {spec!r}; choose from {METHOD_NAMES}"
        )
    return spec
