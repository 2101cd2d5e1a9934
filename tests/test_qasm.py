"""OpenQASM writer/parser tests."""

import ast
import math
import operator
import struct
import sys
import threading
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.circuits.qasm import MAX_PARAM_CHARS, QasmError, _eval_param, dumps, loads

from conftest import SUITE_SMALL, random_circuit


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,n", SUITE_SMALL + [("stabilizer_random", 8), ("syndrome", 9)]
    )
    def test_suite_roundtrip(self, name, n):
        qc = generators.build(name, n)
        back = loads(dumps(qc))
        assert back.num_qubits == qc.num_qubits
        assert len(back) == len(qc)
        for a, b in zip(qc, back):
            assert a.name == b.name
            assert a.qubits == b.qubits
            assert a.params == b.params  # bit for bit, not approximately

    def test_random_roundtrip(self):
        qc = random_circuit(6, 60, seed=3)
        assert loads(dumps(qc)) == qc


class TestParsing:
    def test_minimal_program(self):
        qc = loads(
            """
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            h q[0];
            cx q[0],q[1];
            """
        )
        assert len(qc) == 2
        assert qc[1].name == "cx"
        assert qc[1].qubits == (0, 1)

    def test_parameter_expressions(self):
        qc = loads("qreg q[1]; rx(pi/2) q[0]; rz(-pi) q[0]; u1(3*pi/4+1) q[0];")
        assert qc[0].params[0] == pytest.approx(math.pi / 2)
        assert qc[1].params[0] == pytest.approx(-math.pi)
        assert qc[2].params[0] == pytest.approx(3 * math.pi / 4 + 1)

    def test_parameter_arithmetic_is_pythons_float_arithmetic(self):
        # Evaluated on floats by a small tree walk — to the very floats
        # Python's own arithmetic gives.
        qc = loads(
            "qreg q[1]; rx(pi/2) q[0]; rx(-pi) q[0]; rx(2*pi/3) q[0]; "
            "rx(1e-3) q[0]; rx(2^3) q[0]; rx(2**-1) q[0]; rx(-1/3+pi) q[0];"
        )
        assert [g.params[0] for g in qc] == [
            math.pi / 2, -math.pi, 2 * math.pi / 3, 1e-3, 8.0, 0.5,
            -1 / 3 + math.pi,
        ]

    def test_parenthesised_parameters(self):
        """The parameter list ends at its balanced closing parenthesis,
        and only its own commas separate parameters."""
        qc = loads(
            "qreg q[1]; rz((pi)/2) q[0]; rx(2*(pi+1)) q[0]; "
            "u3((1+1)*pi, (2), -(pi/(2+2))) q[0];"
        )
        assert [g.params for g in qc] == [
            (math.pi / 2,), (2 * (math.pi + 1),),
            (2 * math.pi, 2.0, -math.pi / 4),
        ]

    def test_measure_barrier_creg_ignored(self):
        qc = loads(
            "qreg q[2]; creg c[2]; h q[0]; barrier q[0]; "
            "measure q[0] -> c[0]; reset q[1];"
        )
        assert len(qc) == 1

    def test_comments_stripped(self):
        qc = loads("qreg q[1]; // a comment\nh q[0]; // trailing")
        assert len(qc) == 1

    def test_multiple_registers_concatenate(self):
        qc = loads("qreg a[2]; qreg b[2]; cx a[1],b[0];")
        assert qc.num_qubits == 4
        assert qc[0].qubits == (1, 2)


class TestErrors:
    def test_no_qreg(self):
        with pytest.raises(QasmError):
            loads("h q[0];")

    def test_unknown_gate(self):
        with pytest.raises(QasmError):
            loads("qreg q[1]; warp q[0];")

    def test_out_of_range_qubit(self):
        with pytest.raises(QasmError):
            loads("qreg q[2]; h q[5];")

    def test_unknown_register(self):
        with pytest.raises(QasmError):
            loads("qreg q[2]; h r[0];")

    def test_redeclared_register(self):
        # Used to return 4 qubits with the gate on qubit 3.
        with pytest.raises(QasmError, match="declared twice"):
            loads("qreg q[2]; qreg q[2]; h q[1];")

    def test_unbalanced_parameter_list(self):
        with pytest.raises(QasmError, match="unbalanced"):
            loads("qreg q[1]; rz((pi q[0];")
        with pytest.raises(QasmError):
            loads("qreg q[1]; rz(pi)) q[0];")

    def test_user_defined_gate_rejected(self):
        with pytest.raises(QasmError):
            loads("qreg q[1]; gate foo a { h a; } foo q[0];")

    def test_malicious_parameter_rejected(self):
        with pytest.raises(QasmError):
            loads("qreg q[1]; rx(__import__) q[0];")
        with pytest.raises(QasmError):
            loads("qreg q[1]; rx(x) q[0];")

    @pytest.mark.parametrize(
        "expr",
        ["9**9**9", "1/0", "0**-1", "(-8)**0.5", "1e999", "1e308*10",
         "1j", "'a'", "True", "pi pi",
         pytest.param("-" * 5000 + "1", id="5000-deep-unary"),
         pytest.param("9" * 5000, id="5000-digit-int")],
    )
    def test_hostile_parameter_is_a_fast_qasm_error(self, expr):
        # Parsed, never executed: no bigint power, no ZeroDivisionError
        # or OverflowError escaping as a 500, no non-finite angle.
        # The regression this guards ran "forever"; the bound is this
        # thread's CPU time, which a loaded shared host does not move.
        t0 = time.thread_time()
        with pytest.raises(QasmError):
            loads(f"qreg q[1]; rz({expr}) q[0];")
        assert time.thread_time() - t0 < 0.1

    def test_a_long_parameter_is_refused_before_it_is_parsed(self):
        # A 5000-deep unary chain used to reach ast.parse, whose tree
        # (over 1 MiB) let a garbage-collection pause land in the bound
        # above; the length check refuses it with nothing allocated.
        text = "qreg q[1]; rz(" + "-" * 5000 + "1) q[0];"
        tracemalloc.start()
        try:
            with pytest.raises(QasmError, match="characters"):
                loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @pytest.mark.parametrize(
        "expr", ["1if 2 else 3", "1or 2", "2in 3", "0x1for", "1e-3and 2",
                 "1jor 2", r"'\d'"],
    )
    def test_what_the_python_parser_warns_about_is_refused_quietly(self, expr):
        # ast.parse writes a SyntaxWarning (a quote's bad escape: a
        # DeprecationWarning) to stderr before it fails on these.
        text = f"qreg q[1]; rz({expr}) q[0];"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(QasmError, match="SyntaxError"):
                loads(text)
        assert [str(w.message) for w in caught] == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QasmError, match="SyntaxError"):
                loads(text)
            qc = loads("qreg q[1]; rz(1.5e-3) q[0]; rx(2E3) q[0]; ry(.5e+1) q[0];")
        assert [g.params for g in qc] == [(1.5e-3,), (2e3,), (5.0,)]

    def test_raising_parameter_is_never_cached(self):
        assert _eval_param.cache_info().maxsize is not None  # bounded
        for expr in ("9**9**9", "1/0", "__import__"):
            for _ in range(3):
                with pytest.raises(QasmError):
                    loads(f"qreg q[1]; rz({expr}) q[0];")
        before = _eval_param.cache_info().hits
        # Two statements sharing an angle: a repeated statement is parsed
        # once, so the second one must differ to reach the cache.
        assert loads("qreg q[1]; rz(pi/8) q[0]; rx(pi/8) q[0];")[1].params == (
            math.pi / 8,
        )
        assert _eval_param.cache_info().hits > before

    def test_repeated_statement_is_the_same_gate(self):
        qc = loads("qreg q[2]; cx q[0],q[1]; rz(0.5) q[1]; cx q[0],q[1]; rz(0.5) q[1];")
        assert list(qc) == [
            make_gate("cx", (0, 1)),
            make_gate("rz", (1,), (0.5,)),
            make_gate("cx", (0, 1)),
            make_gate("rz", (1,), (0.5,)),
        ]

    @pytest.mark.parametrize(
        "stmt, complaint",
        [
            ("rz() q[0]", "expects 1 params, got 0"),
            ("cx q[0]", "expects 2 qubits, got 1"),
            ("cx q[0],q[0]", "duplicate operand"),
            ("u3(1,2) q[0]", "expects 3 params, got 2"),
        ],
    )
    def test_arity_mistake_names_the_statement(self, stmt, complaint):
        # Used to escape as make_gate's bare ValueError, statement-less.
        with pytest.raises(QasmError, match=complaint) as info:
            loads(f"qreg q[2]; h q[1]; {stmt};")
        assert repr(stmt) in str(info.value)

    def test_complex_root_fails_as_arithmetic_not_syntax(self):
        # The whole expression reaches the evaluator (it used to be cut
        # at the first ")" and fail to parse).
        with pytest.raises(QasmError, match=r"'\(-8\)\*\*0\.5': ValueError"):
            loads("qreg q[1]; rz((-8)**0.5) q[0];")

    def test_bad_argument_syntax(self):
        with pytest.raises(QasmError):
            loads("qreg q[2]; cx q[0] q[1];")  # missing comma


def ast_reference(expr: str) -> float:
    """The evaluator the grammar replaced, kept as the oracle: ``^`` read
    as ``**``, Python's parser, then a walk over floats only."""
    binary = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: math.pow}
    unary = {ast.USub: operator.neg, ast.UAdd: operator.pos}

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and type(node.op) in unary:
            return unary[type(node.op)](walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in binary:
            return binary[type(node.op)](walk(node.left), walk(node.right))
        raise ValueError("outside the grammar")

    expr = expr.strip().replace("^", "**")
    assert len(expr) <= MAX_PARAM_CHARS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = walk(ast.parse(expr, mode="eval").body)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def same_outcome(expr: str) -> bool:
    """The grammar and :func:`ast_reference` both refuse ``expr``, or
    both give the same float, bit for bit."""
    try:
        want = ast_reference(expr)
    except (SyntaxError, ArithmeticError, ValueError, RecursionError):
        with pytest.raises(QasmError):
            _eval_param(expr)
        return True
    return struct.pack("d", _eval_param(expr)) == struct.pack("d", want)


#: QASM reals, but for integers with a leading zero (``007``), which the
#: grammar reads and Python's parser refused.
_REALS = st.from_regex(
    r"((0|[1-9][0-9]{0,2})(\.[0-9]{0,3})?|\.[0-9]{1,3})([eE][+-]?[0-9]{1,2})?",
    fullmatch=True,
)
_OPERATORS = ["+", "-", "*", "/", "^", "**"]


def _extend(children):
    gap = st.sampled_from(["", " "])
    return st.one_of(
        st.tuples(children, gap, st.sampled_from(_OPERATORS), gap, children)
        .map("".join),
        st.tuples(st.sampled_from(["-", "+"]), children).map("".join),
        children.map(lambda c: f"({c})"),
    )


#: Well-formed expressions: reals and ``pi`` under every operator.
_EXPRESSIONS = st.recursive(
    st.one_of(_REALS, st.just("pi")), _extend, max_leaves=8
)
#: Token soup, mostly ill-formed: one blank between tokens.
_SOUP = st.lists(
    st.sampled_from(["1", "2.5", ".5e1", "3E-2", "pi", "(", ")"] + _OPERATORS),
    min_size=1,
    max_size=12,
).map(" ".join)


def _at_the_recursion_limit(fn, headroom=25):
    """``fn()`` called ``headroom`` frames below the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(n):
        return fn() if n == 0 else down(n - 1)

    return down(sys.getrecursionlimit() - depth - headroom)


class TestParameterGrammar:
    """Parameters are read by a small grammar: QASM reals, ``pi``,
    ``+ - * /``, ``^`` / ``**``, unary signs and parentheses."""

    @pytest.mark.parametrize("expr", ["0x10", "1_0", "0b11", "0o7", "0X1F"])
    def test_python_only_literals_are_refused(self, expr):
        # Each used to read as a number (16.0, 10.0, 3.0, 7.0, 31.0).
        with pytest.raises(QasmError, match="SyntaxError"):
            loads(f"qreg q[1]; rz({expr}) q[0];")

    @pytest.mark.parametrize("expr,value", [
        ("-2^2", -4.0), ("2**-1", 0.5), ("2^3^2", 512.0), ("2*-3**2", -18.0),
        ("-2*3", -6.0), ("1-2-3", -4.0), ("8/4/2", 1.0), ("--1", 1.0),
        ("2 ** 3", 8.0), ("(2^3)^2", 64.0), ("1.e1", 10.0), (".5E+1", 5.0),
    ])
    def test_precedence_and_values_are_kept(self, expr, value):
        assert struct.pack("d", _eval_param(expr)) == struct.pack("d", value)

    @pytest.mark.parametrize("expr,value", [
        ("(" * 127 + "1" + ")" * 127, 1.0),
        ("-" * 255 + "1", -1.0),
    ], ids=["127-nested-parentheses", "255-long-sign-run"])
    def test_nesting_up_to_the_length_bound_never_recurses(self, expr, value):
        assert len(expr) <= MAX_PARAM_CHARS

        def evaluate():
            _eval_param.cache_clear()  # evaluate, do not look it up
            return _eval_param(expr)

        assert evaluate() == value
        assert _at_the_recursion_limit(evaluate) == value
        seen = []
        worker = threading.Thread(
            target=lambda: seen.append(_at_the_recursion_limit(evaluate))
        )
        worker.start()
        worker.join()
        assert seen == [value]

    @settings(max_examples=300, deadline=None)
    @given(expr=_EXPRESSIONS)
    def test_property_legal_expressions_keep_their_value(self, expr):
        assert same_outcome(expr), expr

    @settings(max_examples=300, deadline=None)
    @given(expr=_SOUP)
    def test_property_token_soup_is_refused_or_kept(self, expr):
        assert same_outcome(expr), expr
