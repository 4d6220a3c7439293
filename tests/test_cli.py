"""Command-line interface: report shape, determinism, exit codes."""
import hashlib
import json

import pytest

from liesym.cli import main

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

    def test_rank_probe(self, capsys, heat_file):
        status, rep = run_json(capsys, [
            "rank-probe", "--file", heat_file, "--system", "heat",
            "--sample", "u_t=1,u_xx=1"])
        assert status == 0 and rep["result"]["maximal_rank"] is True

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

    def test_noether_not_symmetry(self, capsys, curve_file):
        p = curve_file
        status = main(["noether", "--file", p,
                       "--vf", "rot", "--lagrangian", "arc"])
        capsys.readouterr()
        assert status == 0


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


class TestPlain:
    def test_plain_output(self, capsys, heat_file):
        status, out = run(capsys, [
            "--plain", "check-symmetry", "--file", heat_file,
            "--vf", "v1", "--system", "heat"])
        assert status == 0
        assert out.splitlines()[0] == "command: check-symmetry"
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
