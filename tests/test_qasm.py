"""OpenQASM writer/parser tests."""

import math
import time
import tracemalloc
import warnings

import pytest

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.circuits.qasm import QasmError, dumps, loads

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
        from repro.circuits.qasm import _eval_param

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
