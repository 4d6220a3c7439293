"""Command-line interface: report shape, determinism, exit codes."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liesym.cli as cli
from liesym.cli import _build_parser, main

MINIMAL_PROB = str(Path(__file__).resolve().parent.parent / "bench" / "problems"
                   / "minimal.prob")

HEAT_PROB = """\
indep x t
dep u
system heat: u_t = u_xx
vf rot: xi[x] = -u; phi[u] = x
vf v1: xi[x] = 1
vf v5: xi[x] = 2*t; phi[u] = -x*u
vf bad: xi[x] = u
lagrangian arc: (1+u_x^2)^(1/2)
current flux: -u_x, u
current notclaw: u, 0
dimmatrix blast: 3x5 rows 2,0,-3,-1,1; 1,0,1,1,0; -2,1,0,-2,0
"""

CURVE_PROB = """\
indep x
dep u
vf rot: xi[x] = -u; phi[u] = x
lagrangian arc: (1+u_x^2)^(1/2)
"""

WAVE_PROB = """\
indep x t
dep u v
system wave: u_t = v_x; v_t = u_x
current energy: -u_t*u_x, 1/2*u_t^2 + 1/2*u_x^2
current pair: -u_t*v_t, -1/2*u_t^2 + 1/2*u_x^2 + u_t*v_x
current qchar: -u_tt, -u_xt
"""


@pytest.fixture
def heat_file(tmp_path):
    p = tmp_path / "heat.prob"
    p.write_text(HEAT_PROB)
    return str(p)


@pytest.fixture
def curve_file(tmp_path):
    p = tmp_path / "curve.prob"
    p.write_text(CURVE_PROB)
    return str(p)


@pytest.fixture
def wave_file(tmp_path):
    p = tmp_path / "wave.prob"
    p.write_text(WAVE_PROB)
    return str(p)


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, argv):
    status, out = run(capsys, argv)
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "result"}
    return status, report


class TestReports:
    def test_prolong(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "prolong", "--file", heat_file, "--vf", "rot", "--order", "2"])
        assert status == 0
        assert rep["command"] == "prolong"
        assert rep["result"]["coeffs"]["u_x"] == "1 + u_x^2"
        assert rep["result"]["coeffs"]["u_xx"] == "3*u_x*u_xx"

    def test_determine(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "determine", "--file", heat_file, "--system", "heat",
            "--xi-names", "xi,tau", "--phi-names", "phi"])
        assert status == 0
        eqs = rep["result"]["equations"]
        assert len(eqs) == 9
        assert any("tau_u" in e for e in eqs)

    def test_solve(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "solve", "--file", heat_file, "--system", "heat", "--degree", "3"])
        assert status == 0
        assert rep["result"]["dimension"] == 10

    def test_bracket(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "bracket", "--file", heat_file, "--vf", "v1", "--vf2", "v5"])
        assert status == 0
        assert rep["result"]["phi"]["u"] == "-u"

    def test_euler_lagrange(self, capsys, curve_file):
        status, rep = run_json(capsys, [
            "euler-lagrange", "--file", curve_file, "--lagrangian", "arc"])
        assert status == 0
        assert "u_xx" in rep["result"]["equations"]["u"]

    def test_varsym_defect(self, capsys, curve_file):
        status, rep = run_json(capsys, [
            "varsym-defect", "--file", curve_file,
            "--vf", "rot", "--lagrangian", "arc"])
        assert status == 0 and rep["result"]["zero"] is True

    def test_noether(self, capsys, curve_file):
        status, rep = run_json(capsys, [
            "noether", "--file", curve_file,
            "--vf", "rot", "--lagrangian", "arc"])
        assert status == 0
        assert len(rep["result"]["current"]) == 1

    def test_char_system(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "char-system", "--file", heat_file, "--vf", "rot"])
        assert status == 0
        assert rep["result"]["system"].splitlines()[0] == "dx/dt = -u"

    def test_next_invariant(self, capsys, curve_file):
        status, rep = run_json(capsys, [
            "next-invariant", "--file", curve_file,
            "--eta", "x", "--zeta", "u"])
        assert status == 0 and rep["result"]["invariant"] == "u_x"

    def test_pi_from_file(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "pi", "--file", heat_file, "--dimmatrix", "blast"])
        assert status == 0
        assert rep["result"]["rank"] == 3
        assert len(rep["result"]["pi"]) == 2

    def test_pi_from_csv(self, capsys, tmp_path):
        csv = tmp_path / "dims.csv"
        csv.write_text(",E,t,rho0,P0,R\n"
                       "M,2,0,-3,-1,1\n"
                       "L,1,0,1,1,0\n"
                       "T,-2,1,0,-2,0\n")
        status, rep = run_json(capsys, ["pi", "--csv", str(csv)])
        assert status == 0 and rep["result"]["rank"] == 3

    def test_check_char_form(self, capsys, wave_file):
        status, rep = run_json(capsys, [
            "check-char-form", "--file", wave_file, "--current", "pair",
            "--char", "qchar", "--system", "wave"])
        assert status == 0 and rep["result"]["characteristic_form"] is True


class TestExitCodes:
    def test_check_passes(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "check-symmetry", "--file", heat_file,
            "--vf", "v5", "--system", "heat"])
        assert status == 0 and rep["result"]["symmetry"] is True

    def test_check_fails(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "check-symmetry", "--file", heat_file,
            "--vf", "bad", "--system", "heat"])
        assert status == 1 and rep["result"]["symmetry"] is False

    def test_claw_fails(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "check-claw", "--file", heat_file,
            "--current", "notclaw", "--system", "heat"])
        assert status == 1

    def test_claw_passes(self, capsys, heat_file):
        status, _ = run_json(capsys, [
            "check-claw", "--file", heat_file,
            "--current", "flux", "--system", "heat"])
        assert status == 0

    def test_missing_file(self, capsys):
        status = main(["prolong", "--file", "/nonexistent.prob",
                       "--vf", "v", "--order", "1"])
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_name(self, capsys, heat_file):
        status = main(["prolong", "--file", heat_file,
                       "--vf", "nope", "--order", "1"])
        assert status == 2

    def test_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.prob"
        p.write_text("indep x\ndep u\nsystem s: u_x = +")
        status = main(["check-symmetry", "--file", str(p),
                       "--vf", "v", "--system", "s"])
        assert status == 2

    @pytest.mark.parametrize("depth,status", [(100, 0), (3000, 2)])
    def test_nested_parentheses(self, capsys, tmp_path, depth, status):
        p = tmp_path / "deep.prob"
        p.write_text(f"indep x t\ndep u\nsystem s: u_t = {'(' * depth}u_xx{')' * depth}")
        assert main(["determine", "--file", str(p), "--system", "s"]) == status
        if status == 2:
            assert "nested too deeply" in capsys.readouterr().err

    def test_overlong_integer_literal(self, capsys, tmp_path):
        p = tmp_path / "long.prob"
        p.write_text("indep x t\ndep u\nsystem s: u_t = " + "7" * 5000 + "*u_xx")
        assert main(["determine", "--file", str(p), "--system", "s"]) == 2
        assert "3:17: integer literal of 5000 digits is too long" in \
            capsys.readouterr().err

    def test_overlong_constant(self, capsys, tmp_path):
        # 3^10000 parses, but has more digits than Python prints by default
        p = tmp_path / "big.prob"
        p.write_text("indep x t\ndep u\nsystem h: u_t = u_xx + 3^(10000)*u")
        assert main(["determine", "--file", str(p), "--system", "h"]) == 2
        assert "constant of 4772 digits is too long to print" in \
            capsys.readouterr().err

    def test_next_invariant_needs_one_independent_variable(self, capsys, heat_file):
        status = main(["next-invariant", "--file", heat_file,
                       "--eta", "u_t", "--zeta", "u_x"])
        assert status == 2
        err = capsys.readouterr().err
        assert err == ("error: next-invariant needs one independent variable, "
                       "the problem declares 2\n")

    def test_log_zero(self, capsys, tmp_path):
        p = tmp_path / "log0.prob"
        p.write_text("indep x\ndep u\nvf v: xi[x] = log(0)")
        assert main(["prolong", "--file", str(p), "--vf", "v", "--order", "1"]) == 2
        assert "error: log(0) is undefined" in capsys.readouterr().err

    @pytest.mark.parametrize("exc,message", [
        (OverflowError("int too large to convert to float"),
         "error: arithmetic overflow: int too large to convert to float\n"),
        (MemoryError(), "error: out of memory\n"),
    ])
    def test_interpreter_limits(self, capsys, monkeypatch, heat_file, exc,
                                message):
        def fail(*_):
            raise exc
        monkeypatch.setitem(cli._HANDLERS, "determine", fail)
        assert main(["determine", "--file", heat_file, "--system", "heat"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", message)

    @pytest.mark.parametrize("decl,rhs,message", [
        ("", "u_xx/x", "non-polynomial exponent -1"),
        ("", "exp(u)*u_xx", "inside non-polynomial factor"),
        ("param nu\n", "nu*u_xx", "not linear homogeneous"),
        ("param nu\n", "nu*u_xx", "system parameter in the coefficients: nu"),
        ("param nu\n", "u_xx + nu*u", "system parameter in the coefficients: nu"),
        ("param a b\n", "a*b*u_xx", "system parameters in the coefficients: a, b"),
    ])
    def test_solve_not_polynomial(self, capsys, tmp_path, decl, rhs, message):
        p = tmp_path / "np.prob"
        p.write_text(f"indep x t\ndep u\n{decl}system s: u_t = {rhs}")
        assert main(["solve", "--file", str(p), "--system", "s",
                     "--degree", "2"]) == 2
        assert message in capsys.readouterr().err

    def test_not_polynomial_names_the_factor(self, capsys, tmp_path):
        # the minimal-surface equation of bench/problems/minimal.prob
        p = tmp_path / "minimal.prob"
        p.write_text("indep x y\ndep u\nsystem minimal: u_yy = "
                     "(2*u_x*u_y*u_xy - u_xx*(1 + u_y^2))/(1 + u_x^2)")
        status = main(["determine", "--file", str(p), "--system", "minimal"])
        assert status == 2
        assert capsys.readouterr().err == (
            "error: variable occurs inside non-polynomial factor "
            "(1 + u_x^2)^(-2)\n")

    def test_not_polynomial_names_the_variable(self, capsys, tmp_path):
        p = tmp_path / "np.prob"
        p.write_text("indep x t\ndep u\nsystem s: u_t = u_xx/x")
        assert main(["solve", "--file", str(p), "--system", "s",
                     "--degree", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: variable x occurs with non-polynomial exponent -1\n")

    def test_power_over_expansion_limit(self, capsys, tmp_path):
        p = tmp_path / "big.prob"
        p.write_text("indep x t\ndep u\n"
                     "system s: u_t = u_xx + (1+u)^(100000000000000000000)")
        assert main(["determine", "--file", str(p), "--system", "s"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: power of a sum with exponent "
                       "100000000000000000000 exceeds the expansion limit 64\n")
        assert "Traceback" not in err

    def test_constant_power_over_size_limit(self, capsys, tmp_path):
        p = tmp_path / "big.prob"
        p.write_text("indep x t\ndep u\nsystem s: u_t = u_xx + 3^(1000000000)*u")
        assert main(["determine", "--file", str(p), "--system", "s"]) == 2
        assert capsys.readouterr().err == (
            "error: power of a constant with exponent 1000000000 exceeds "
            "the size limit of 1048576 bits\n")

    def test_negative_prolongation_order(self, capsys, heat_file):
        assert main(["prolong", "--file", heat_file,
                     "--vf", "rot", "--order", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: prolongation order -1 is negative\n"

    def test_order_cap_names_the_jet(self, capsys):
        assert main(["check-symmetry", "--file", MINIMAL_PROB,
                     "--system", "minimal", "--vf", "rxy", "--order-cap", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: reducing u_yy needs jets beyond order 1\n"

    def test_unsolved_form_names_the_jets(self, capsys, tmp_path):
        p = tmp_path / "bad.prob"
        p.write_text("indep x t\ndep u\nsystem s: u_t = u_tx\n")
        assert main(["determine", "--file", str(p), "--system", "s"]) == 2
        assert capsys.readouterr().err == (
            "error: 3:11: right-hand side contains u_xt which does not rank "
            "below the lead u_t\n")

    def test_negative_degree(self, capsys, heat_file):
        assert main(["solve", "--file", heat_file, "--system", "heat",
                     "--degree", "-3"]) == 2
        assert capsys.readouterr().err == "error: ansatz degree is negative\n"

    def test_degree_over_column_limit(self, capsys, heat_file):
        assert main(["solve", "--file", heat_file, "--system", "heat",
                     "--degree", "99999999999999999999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ansatz parameter count ")
        assert err.endswith(" exceeds the limit 100000\n")

    @pytest.mark.parametrize("argv", [
        ["determine", "--file", "{}", "--system", "s"],
        ["pi", "--csv", "{}"],
    ], ids=["determine", "pi"])
    def test_input_not_utf8(self, capsys, tmp_path, argv):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"\xff\xfeindep x\n")
        assert main([a.format(p) for a in argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: {p}: not UTF-8 text at byte 0\n")

    @pytest.mark.parametrize("plain", [[], ["--plain"]], ids=["json", "plain"])
    def test_closed_stdout(self, capsys, monkeypatch, tmp_path, heat_file, plain):
        """A report written to a closed pipe ends in one error line, and
        the stdout descriptor then points at os.devnull."""
        with open(tmp_path / "out.txt", "wb") as fh:
            class ClosedPipe(io.StringIO):
                def write(self, _):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return fh.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            status = main([*plain, "determine", "--file", heat_file,
                           "--system", "heat"])
            os.write(fh.fileno(), b"lost")
        monkeypatch.undo()
        assert status == 2
        assert capsys.readouterr() == ("", "error: [Errno 32] Broken pipe\n")
        assert (tmp_path / "out.txt").read_bytes() == b""

    def test_noether_symmetry_exits_0(self, capsys, curve_file):
        p = curve_file
        status = main(["noether", "--file", p,
                       "--vf", "rot", "--lagrangian", "arc"])
        capsys.readouterr()
        assert status == 0


CURRENTS_PROB = """\
indep x t
dep u
system heat: u_t = u_xx
current null: u_t, -u_x
current flux: -u_x, u
"""


class TestHandlers:
    """Each handler's report and status, including its error paths."""

    @pytest.fixture
    def currents_file(self, tmp_path):
        p = tmp_path / "currents.prob"
        p.write_text(CURRENTS_PROB)
        return str(p)

    @pytest.mark.parametrize("current,ok", [("null", True), ("flux", False)])
    def test_null_div(self, capsys, currents_file, current, ok):
        status, rep = run_json(capsys, [
            "null-div", "--file", currents_file, "--current", current])
        assert rep["result"] == {"null_divergence": ok}
        assert status == (0 if ok else 1)

    @pytest.mark.parametrize("expr,ok,order", [
        ("(x*u_x - u)/(x + u*u_x)", True, 1),
        ("x", False, 0),
    ])
    def test_check_invariant(self, capsys, curve_file, expr, ok, order):
        status, rep = run_json(capsys, [
            "check-invariant", "--file", curve_file, "--vf", "rot",
            "--expr", expr])
        assert rep["result"] == {"invariant": ok, "order": order}
        assert status == (0 if ok else 1)

    def test_noether_not_a_symmetry(self, capsys, tmp_path):
        p = tmp_path / "mechanics.prob"
        p.write_text(Path(MINIMAL_PROB).with_name("mechanics.prob").read_text()
                     + "vf sx: phi[x] = x\n")
        status, rep = run_json(capsys, [
            "noether", "--file", str(p), "--vf", "sx",
            "--lagrangian", "harmonic"])
        assert status == 1
        assert rep["result"] == {
            "error": "the defect of v is not the total divergence of the given B"}

    def test_plain_solve_lists_the_fields(self, capsys, currents_file):
        status, out = run(capsys, [
            "--plain", "solve", "--file", currents_file, "--system", "heat",
            "--degree", "1"])
        assert status == 0
        lines = out.splitlines()
        assert lines[:3] == ["command: solve", "dimension: 6", "fields:"]
        assert lines[3:10] == ["    xi:", "      x: 1", "      t: 0",
                               "    phi:", "      u: 0", "    xi:", "      x: 0"]
        assert lines.count("    xi:") == lines.count("    phi:") == 6

    def test_pi_needs_a_table(self, capsys):
        assert main(["pi"]) == 2
        assert capsys.readouterr() == (
            "", "error: pi needs --csv or --file with --dimmatrix\n")


class TestDeterminism:
    def test_byte_identical(self, capsys, heat_file):
        _, out1 = run(capsys, [
            "solve", "--file", heat_file, "--system", "heat", "--degree", "2"])
        _, out2 = run(capsys, [
            "solve", "--file", heat_file, "--system", "heat", "--degree", "2"])
        assert out1 == out2

    def test_seed_accepted_and_ignored(self, capsys, heat_file):
        _, out1 = run(capsys, [
            "--seed", "1", "determine", "--file", heat_file,
            "--system", "heat"])
        _, out2 = run(capsys, [
            "--seed", "99", "determine", "--file", heat_file,
            "--system", "heat"])
        assert out1 == out2


class TestAddressIndependence:
    """Nodes hash by identity, so the order of a set of nodes follows their
    addresses; an error that names one jet of several must name the same
    one whatever the allocator and whatever was allocated before."""

    PROBS = {
        "three": "indep x t\ndep u\nsystem s: u_t = u_tt + u_tx + u_ttx\n",
        "seventh": "indep x t\ndep u\nsystem s: u_t = u_xxxxxxx + u*u_x\n",
    }
    WANT = ("error: 3:11: right-hand side contains u_xt which does not rank "
            "below the lead u_t\n"
            "error: reducing u_xxxxxxt needs jets beyond order 11\n")
    SCRIPT = (
        "import sys\n"
        "junk = [bytes(k % 97) for k in range(int(sys.argv[1]))]\n"
        "from liesym.cli import main\n"
        "for path in sys.argv[2:]:\n"
        "    status = main(['determine', '--file', path, '--system', 's'])\n"
        "    assert status == 2, status\n"
    )

    @pytest.mark.parametrize("malloc", ["malloc", None])
    @pytest.mark.parametrize("garbage", [0, 1234, 56789])
    def test_error_names_the_same_jet(self, tmp_path, malloc, garbage):
        paths = []
        for name, text in self.PROBS.items():
            paths.append(tmp_path / f"{name}.prob")
            paths[-1].write_text(text)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONMALLOC"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        if malloc:
            env["PYTHONMALLOC"] = malloc
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(garbage),
             *map(str, paths)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (out.returncode, out.stdout, out.stderr) == (0, "", self.WANT)


class TestParserOncePerProcess:
    """``main`` builds its parser once per process; a parse must leave no
    trace in it for the next call."""

    def test_defaults_reset_between_commands(self, capsys, heat_file):
        _, plain = run(capsys, ["--plain", "determine", "--file", heat_file,
                                "--system", "heat"])
        status, report = run_json(capsys, ["determine", "--file", heat_file,
                                           "--system", "heat"])
        assert status == 0 and plain.startswith("command: determine")
        assert report["inputs"] == {"file": heat_file, "system": "heat"}

    def test_built_once(self):
        assert _build_parser() is _build_parser()


class TestSolveGolden:
    """Degree-5 ``solve`` results, pinned by the SHA-256 of the compact JSON
    of ``result``, and the algebra dimension."""

    @pytest.mark.parametrize("system,dimension,digest", [
        ("heat: u_t = u_xx", 12,
         "f0762bc68c3622bef492688a7ac149f613e7825ee123fe3307ae23e9fdff46bb"),
        ("burgers: u_t = u_xx + u*u_x", 5,
         "36a2227fe09bc65c483ed63c55e53b8943f6ee017b6a70dd9060db83b46439c8"),
        ("kdv: u_t = -u_xxx - 6*u*u_x", 4,
         "732af9ebbeb85fdb1ae2e9d071206fe3c797fe199ebdf3a476d2d9e15af1210b"),
        ("wave: u_tt = u_xx", 24,
         "d52715ad9c7dd30dd60e0fe6e3c9f5ff12266d889bdf247419d2a05b31ad0ab9"),
    ])
    def test_degree_5(self, capsys, tmp_path, system, dimension, digest):
        name = system.split(":")[0]
        p = tmp_path / f"{name}.prob"
        p.write_text(f"indep x t\ndep u\nsystem {system}\n")
        status, report = run_json(capsys, [
            "solve", "--file", str(p), "--system", name, "--degree", "5"])
        assert status == 0
        assert report["result"]["dimension"] == dimension
        compact = json.dumps(report["result"], separators=(",", ":"))
        assert hashlib.sha256(compact.encode()).hexdigest() == digest


class TestLargeSolveGolden:
    """``solve`` on the largest determining matrices, pinned like
    :class:`TestSolveGolden`: 2-D heat at degree 5, the Boussinesq system
    (two dependent variables) at degree 3 and 3-D heat at degree 4; and two
    equations with non-integral coefficients, whose rows reach the
    elimination core as ``Fraction``s."""

    @pytest.mark.parametrize("prob,name,degree,dimension,digest", [
        ("indep x y t\ndep u\nsystem heat2d: u_t = u_xx + u_yy\n",
         "heat2d", "5", 30,
         "c85d5c367020ec0f542326e7e37b7715da6f40c539da95965db41b6ad2f4f652"),
        ("indep x t\ndep u v\nsystem bouss: u_t = v_x; v_t = u_x + 2*u*u_x + u_xxx\n",
         "bouss", "3", 4,
         "e4d52f6099fc9a9a948c1dc0085c687135c89ee1a16272d864d63c44adc4a957"),
        ("indep x t\ndep u\nsystem kdv: u_t = u_xxx + (3/2)*u*u_x\n",
         "kdv", "3", 4,
         "e2be35a9d3fe74285f5ccf6423765fca49a01ba3a610a3e6c4b8360299ca2f07"),
        ("indep x t\ndep u\nsystem burgers: u_t = (1/3)*u_xx + u*u_x/2\n",
         "burgers", "4", 5,
         "ae1643c9edccad245a299c4acb1093e0cefaf4297e1d4f9c1de6ca35abf1204d"),
        ("indep x y z t\ndep u\nsystem heat3d: u_t = u_xx + u_yy + u_zz\n",
         "heat3d", "4", 48,
         "65436a0923b7d0674be3984ed61a23de7f0675c6c9ada601bb5e2a0446ae6b23"),
    ])
    def test_large(self, capsys, tmp_path, prob, name, degree, dimension, digest):
        p = tmp_path / f"{name}.prob"
        p.write_text(prob)
        status, report = run_json(capsys, [
            "solve", "--file", str(p), "--system", name, "--degree", degree])
        assert status == 0
        assert report["result"]["dimension"] == dimension
        compact = json.dumps(report["result"], separators=(",", ":"))
        assert hashlib.sha256(compact.encode()).hexdigest() == digest


class TestFifthOrderGolden:
    """``determine`` (86 equations) and degree-3 ``solve`` (dimension 3) on
    a fifth-order equation, pinned like :class:`TestSolveGolden`; the
    benchmark's systems stop at order 3."""

    PROB = ("indep x t\ndep u\n"
            "system fifth: u_t = u_xxxxx + u*u_xxx + u_x*u_xx + u^2*u_x\n")

    @pytest.mark.parametrize("argv,key,size,digest", [
        (["determine"], "equations", 86,
         "8344bdd17b4b0932e0d2a82882f58e4570ccdb825e3f0a7005ab8e3f3181b211"),
        (["solve", "--degree", "3"], "dimension", 3,
         "0757ac801de546ac51cb4334a4954eee247e345054db5b2300f1aa1907361e75"),
    ])
    def test_fifth_order(self, capsys, tmp_path, argv, key, size, digest):
        p = tmp_path / "fifth.prob"
        p.write_text(self.PROB)
        status, report = run_json(capsys, [
            argv[0], "--file", str(p), "--system", "fifth", *argv[1:]])
        assert status == 0
        got = report["result"][key]
        assert (len(got) if isinstance(got, list) else got) == size
        compact = json.dumps(report["result"], separators=(",", ":"))
        assert hashlib.sha256(compact.encode()).hexdigest() == digest


class TestProlongGolden:
    """``prolong`` of the generic field of (x, t, u) at order 6, one order
    past the benchmark's, pinned like :class:`TestSolveGolden`: 27
    coefficients, u_x through u_tttttt."""

    DIGEST = "eb4f7eccc30119993bea15acf7729a48acc0afd44e13b4372cf76c1c4f06d6b8"

    def test_order_6(self, capsys):
        generic = str(Path(MINIMAL_PROB).parent / "generic.prob")
        status, report = run_json(capsys, [
            "prolong", "--file", generic, "--vf", "generic", "--order", "6"])
        assert status == 0
        assert len(report["result"]["coeffs"]) == 27
        compact = json.dumps(report["result"], separators=(",", ":"))
        assert hashlib.sha256(compact.encode()).hexdigest() == self.DIGEST


class TestPlain:
    def test_plain_output(self, capsys, heat_file):
        status, out = run(capsys, [
            "--plain", "check-symmetry", "--file", heat_file,
            "--vf", "v1", "--system", "heat"])
        assert status == 0
        assert out.splitlines()[0] == "command: check-symmetry"
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
