"""OpenQASM 2.0 subset reader/writer.

Supports the gate vocabulary of :mod:`repro.circuits.gates`, quantum
registers (concatenated in declaration order), arbitrary parameter
expressions built from reals, ``pi``, ``+ - * /``, ``^`` (or ``**``),
unary signs and parentheses.
``measure``/``barrier``/classical registers are accepted on input and
ignored (the paper's simulators are measurement-free).  Round-tripping a
circuit through :func:`dumps` / :func:`loads` yields an equal circuit.
"""

from __future__ import annotations

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
#: Statements read and ignored (the simulators are measurement-free).
_IGNORED = ("openqasm", "include", "creg", "barrier", "measure", "reset")
_QARG_RE = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\[(?P<idx>\d+)\]$")

#: A parameter token after optional blanks: a QASM real (ASCII digits),
#: a name, or an operator.
_PARAM_TOKEN = re.compile(
    r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)"
    r"|(\*\*|[-+*/^()]))",
    re.ASCII,
)
#: Operators: (binding strength, function).  A sign binds at 3, between
#: ``* /`` and the right-associative power, as in Python: ``-2^2`` is -4
#: and ``2^-1`` is 0.5.
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, operator.truediv),
           "^": (4, math.pow), "**": (4, math.pow)}
_SIGNS = {"-": (3, operator.neg), "+": (3, operator.pos)}

#: Longest parameter expression evaluated, in characters: a ``repr``
#: float is at most 24, and no literal this short overflows a float.
MAX_PARAM_CHARS = 256


def _evaluate(expr: str) -> float:
    """``expr``'s value by operator precedence on two stacks: no
    recursion, and operators apply in the order a left-to-right walk of
    the expression tree applies them."""
    values: List[float] = []
    ops: list = []  # (binding strength, function), or None for "("

    def reduce() -> None:
        strength, fn = ops.pop()
        right = values.pop()
        values.append(fn(right) if strength == 3 else fn(values.pop(), right))

    operand, pos = True, 0  # whether an operand comes next
    while pos < len(expr):
        m = _PARAM_TOKEN.match(expr, pos)
        if m is None:
            raise SyntaxError(expr)
        pos, (number, name, op) = m.end(), m.groups()
        if operand and (number or name):
            if name and name != "pi":
                raise QasmError(f"unknown symbol {name!r} in parameter")
            values.append(float(number) if number else math.pi)
            operand = False
        elif operand and op in ("(", "-", "+"):
            ops.append(_SIGNS.get(op))
        elif not operand and op == ")" and None in ops:
            while ops[-1] is not None:
                reduce()
            ops.pop()
        elif not operand and op in _BINARY:
            strength = _BINARY[op][0]
            # Left-associative but for the power.
            while ops and ops[-1] is not None and (
                ops[-1][0] > strength or ops[-1][0] == strength < 4
            ):
                reduce()
            ops.append(_BINARY[op])
            operand = True
        else:
            raise SyntaxError(expr)
    if operand or None in ops:
        raise SyntaxError(expr)
    while ops:
        reduce()
    return values[0]


@lru_cache(maxsize=4096)  # deep circuits repeat a few hundred angle texts
def _eval_param(expr: str) -> float:
    """Evaluate a QASM parameter expression: reals, ``pi``, ``+ - * /``,
    ``^`` or ``**``, unary signs and parentheses.

    The expression is parsed, never executed: arithmetic runs on floats,
    so ``9**9**9`` overflows at once instead of computing a bigint, and
    every failure (overflow, division by zero, a complex root, a token
    outside the grammar such as ``0x10`` or ``1_0``) is a
    :class:`QasmError`.  A pure function of its text, so results are
    memoised; a raising expression is not.  An expression longer than
    :data:`MAX_PARAM_CHARS` is refused unparsed.
    """
    expr = expr.strip()
    if len(expr) > MAX_PARAM_CHARS:
        raise QasmError(
            f"parameter expression of {len(expr)} characters (more than "
            f"{MAX_PARAM_CHARS})"
        )
    try:
        value = _evaluate(expr)
    except QasmError:
        raise
    except (SyntaxError, ArithmeticError, ValueError) as exc:
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
    # A gate statement's text fixes its gate (registers are never
    # redeclared), so a repeated one is parsed once.
    parsed: Dict[str, Gate] = {}
    total = 0
    for stmt in stmts:
        gate = parsed.get(stmt)
        if gate is not None:
            gates.append(gate)
            continue
        if not stmt:
            continue
        low = stmt.lower()
        if low.startswith(_IGNORED):
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
            gate = parsed[stmt] = make_gate(gname, qubits, params)
        except ValueError as exc:  # operand or parameter count
            raise QasmError(f"{exc} in {stmt!r}") from None
        gates.append(gate)
    if total == 0:
        raise QasmError("no qreg declared")
    qc = QuantumCircuit(total, name=name)
    for gate in gates:
        qc.append(gate)
    return qc


def load(path: str) -> QuantumCircuit:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), name=path.rsplit("/", 1)[-1])
