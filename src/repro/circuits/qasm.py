"""OpenQASM 2.0 subset reader/writer.

Supports the gate vocabulary of :mod:`repro.circuits.gates`, quantum
registers (concatenated in declaration order), arbitrary parameter
expressions built from numbers, ``pi``, ``+ - * /`` and parentheses.
``measure``/``barrier``/classical registers are accepted on input and
ignored (the paper's simulators are measurement-free).  Round-tripping a
circuit through :func:`dumps` / :func:`loads` yields an equal circuit.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from functools import lru_cache
from typing import Dict, List, Tuple

from .circuit import QuantumCircuit
from .gates import GATE_DEFS, Gate, make_gate

__all__ = ["dumps", "loads", "dump", "load", "QasmError"]


class QasmError(ValueError):
    """Raised on malformed QASM input."""


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def dumps(circuit: QuantumCircuit) -> str:
    """Serialise ``circuit`` to OpenQASM 2.0 text."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
    ]
    for g in circuit:
        if g.params:
            par = "(" + ",".join(repr(float(p)) for p in g.params) + ")"
        else:
            par = ""
        ops = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.name}{par} {ops};")
    return "\n".join(lines) + "\n"


def dump(circuit: QuantumCircuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(circuit))


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_TOKEN_STRIP = re.compile(r"//[^\n]*")
_GATE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\s*")
_PAREN_OR_COMMA_RE = re.compile(r"[(),]")
_QARG_RE = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\[(?P<idx>\d+)\]$")

_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: math.pow,
}
_UNARY_OPS = {ast.USub: operator.neg, ast.UAdd: operator.pos}

#: Longest parameter expression parsed, in characters: a ``repr`` float
#: is at most 24, and the bound keeps ``ast.parse``'s tree small.
MAX_PARAM_CHARS = 256


def _eval_node(node: ast.AST) -> float:
    """One node of a parameter expression, on floats only."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id != "pi":
            raise QasmError(f"unknown symbol {node.id!r} in parameter")
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_node(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](
            _eval_node(node.left), _eval_node(node.right)
        )
    raise QasmError("disallowed token in parameter")


@lru_cache(maxsize=4096)  # deep circuits repeat a few hundred angle texts
def _eval_param(expr: str) -> float:
    """Evaluate a QASM parameter expression (numbers, pi, + - * / **).

    The expression is parsed, never executed: arithmetic runs on floats,
    so ``9**9**9`` overflows at once instead of computing a bigint, and
    every failure (overflow, division by zero, a complex root, nesting
    too deep to parse or walk) is a :class:`QasmError`.  A pure function
    of its text, so results are memoised; a raising expression is not.
    An expression longer than :data:`MAX_PARAM_CHARS` is refused unparsed.
    """
    expr = expr.strip().replace("^", "**")
    if len(expr) > MAX_PARAM_CHARS:
        raise QasmError(
            f"parameter expression of {len(expr)} characters (more than "
            f"{MAX_PARAM_CHARS})"
        )
    try:
        value = _eval_node(ast.parse(expr, mode="eval").body)
    except QasmError:
        raise
    except (SyntaxError, ArithmeticError, ValueError, RecursionError) as exc:
        raise QasmError(
            f"bad parameter expression {expr!r}: {type(exc).__name__}"
        ) from None
    if not math.isfinite(value):
        raise QasmError(f"parameter {expr!r} is not finite")
    return value


def _split_params(stmt: str, start: int) -> Tuple[List[str], int]:
    """The comma-separated expressions of the parameter list opening at
    ``stmt[start]`` and the index just past its *balanced* closing
    parenthesis; commas and parentheses nested inside an expression
    belong to it."""
    exprs: List[str] = []
    depth, begin = 0, start + 1
    for m in _PAREN_OR_COMMA_RE.finditer(stmt, start):
        token = m.group()
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
        if depth == 0 or (token == "," and depth == 1):
            exprs.append(stmt[begin:m.start()])
            begin = m.end()
            if depth == 0:
                return exprs, begin
    raise QasmError(f"unbalanced parentheses in {stmt!r}")


def loads(text: str, name: str = "qasm") -> QuantumCircuit:
    """Parse OpenQASM 2.0 text into a :class:`QuantumCircuit`."""
    text = _TOKEN_STRIP.sub("", text)
    # Statements are ';'-separated; normalise whitespace.
    stmts = [s.strip() for s in text.replace("\n", " ").split(";")]
    regs: Dict[str, int] = {}
    offsets: Dict[str, int] = {}
    gates: List[Gate] = []
    total = 0
    for stmt in stmts:
        if not stmt:
            continue
        low = stmt.lower()
        if low.startswith("openqasm") or low.startswith("include"):
            continue
        if low.startswith("creg") or low.startswith("barrier"):
            continue
        if low.startswith("measure") or low.startswith("reset"):
            continue
        if low.startswith("qreg"):
            m = re.match(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]", stmt)
            if not m:
                raise QasmError(f"bad qreg statement {stmt!r}")
            if m.group(1) in regs:
                raise QasmError(f"register {m.group(1)!r} declared twice")
            regs[m.group(1)] = int(m.group(2))
            offsets[m.group(1)] = total
            total += int(m.group(2))
            continue
        if low.startswith("gate ") or low.startswith("opaque"):
            raise QasmError("user-defined gates are not supported")
        m = _GATE_NAME_RE.match(stmt)
        if not m:
            raise QasmError(f"unparsable statement {stmt!r}")
        gname = m.group().strip().lower()
        if gname not in GATE_DEFS:
            raise QasmError(f"unsupported gate {gname!r}")
        params: Tuple[float, ...] = ()
        end = m.end()
        if stmt.startswith("(", end):
            exprs, end = _split_params(stmt, end)
            params = tuple(_eval_param(p) for p in exprs if p.strip())
        qubits: List[int] = []
        for arg in stmt[end:].split(","):
            arg = arg.strip()
            qm = _QARG_RE.match(arg)
            if not qm:
                raise QasmError(f"bad qubit argument {arg!r} in {stmt!r}")
            reg = qm.group("reg")
            if reg not in regs:
                raise QasmError(f"unknown register {reg!r}")
            idx = int(qm.group("idx"))
            if idx >= regs[reg]:
                raise QasmError(f"qubit {arg} out of range")
            qubits.append(offsets[reg] + idx)
        try:
            gates.append(make_gate(gname, qubits, params))
        except ValueError as exc:  # operand or parameter count
            raise QasmError(f"{exc} in {stmt!r}") from None
    if total == 0:
        raise QasmError("no qreg declared")
    qc = QuantumCircuit(total, name=name)
    for gate in gates:
        qc.append(gate)
    return qc


def load(path: str) -> QuantumCircuit:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), name=path.rsplit("/", 1)[-1])
