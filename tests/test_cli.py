"""Command-line interface: exit codes, formats, file handling."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from godeaux import backend, cli
from godeaux.cli import main
from godeaux.rings import DEGREVLEX, PolyRing, parse_poly
from godeaux.suite import REPORT_TAMPERINGS

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"

FIELD_FILE = """\
p = 5
vars = x0 x1 x2 x3
x0 -> x1
x1 -> x2
x2 -> x3
x3 -> 0
"""

MINORS_FILE = """\
# fixed-locus minors
vars = x0 x1 x2 x3
x1^2 - x0*x2
x1*x2 - x0*x3
x1*x3
x2^2 - x1*x3
x2*x3
x3^2
"""


@pytest.fixture()
def field_file(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text(FIELD_FILE)
    return str(path)


@pytest.fixture()
def minors_file(tmp_path):
    path = tmp_path / "minors.txt"
    path.write_text(MINORS_FILE)
    return str(path)


class TestVerify:
    def test_default_run_exits_zero(self, capsys):
        assert main(["verify", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 14

    def test_json_matches_golden(self, capsys):
        assert main(["verify", "--seed", "1", "--format", "json"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_single_check(self, capsys):
        assert main(["verify", "--only", "C3"]) == 0
        payload = capsys.readouterr().out
        assert "C3" in payload
        assert "C4" not in payload

    def test_unknown_check_id(self, capsys):
        assert main(["verify", "--only", "C99"]) == 2
        assert "unknown check id" in capsys.readouterr().err

    def test_wrong_characteristic(self, capsys):
        assert main(["verify", "--p", "7"]) == 2

    def test_nonprime_characteristic(self, capsys):
        assert main(["verify", "--p", "4"]) == 2

    def test_budget_exit_code(self, capsys):
        assert main(["verify", "--budget", "1", "--only", "C7"]) == 3
        assert "budget-exceeded" in capsys.readouterr().out


class TestReverify:
    def write(self, tmp_path, payload):
        path = tmp_path / "report.json"
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    def test_golden_report_reverifies(self, capsys):
        assert main(["reverify", str(GOLDEN)]) == 0
        assert "14 results: 14 verified, 0 rejected" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("tampering", REPORT_TAMPERINGS,
                             ids=lambda t: t.name)
    def test_tampered_report_exits_one(self, tampering, tmp_path, capsys):
        golden = json.loads(GOLDEN.read_text())
        path = self.write(tmp_path, tampering.apply(golden))
        assert main(["reverify", path]) == 1
        out = capsys.readouterr().out
        assert f"{tampering.check_id:<4} rejected" in out
        assert "13 verified, 1 rejected" in out

    def test_witness_of_the_wrong_shape_is_rejected(self, tmp_path, capsys):
        golden = json.loads(GOLDEN.read_text())
        golden[1]["witness"] = {}
        assert main(["reverify", self.write(tmp_path, golden)]) == 1

    @pytest.mark.parametrize("payload", [
        "{", "[]", "[1]", {"id": "C1"},
        [{"id": "C99", "description": "", "status": "pass", "witness": {},
          "paper_anchor": ""}],
        [{"id": "C1", "status": "pass", "witness": {}}]],
        ids=["not-json", "empty", "not-objects", "not-a-list", "unknown-id",
             "missing-fields"])
    def test_malformed_report_exits_two(self, payload, tmp_path, capsys):
        assert main(["reverify", self.write(tmp_path, payload)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["reverify", str(tmp_path / "absent.json")]) == 2

    def test_calls_no_kernel(self, monkeypatch, capsys):
        def no_kernel(*args, **kwargs):
            raise AssertionError("reverify called a Groebner kernel")

        monkeypatch.setattr(backend, "get", no_kernel)
        assert main(["reverify", str(GOLDEN)]) == 0


class TestClosedStdout:
    """A reader that stops early is not an error: the exit code is the
    command's own, with no error line and no traceback."""

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command,code", [
        ("reverify", 0), ("reverify-tampered", 1), ("verify-C3", 0)])
    def test_closed_reader(self, command, code, unbuffered, tmp_path):
        report = GOLDEN
        if command == "reverify-tampered":
            report = tmp_path / "report.json"
            golden = json.loads(GOLDEN.read_text())
            report.write_text(json.dumps(REPORT_TAMPERINGS[0].apply(golden)))
        argv = (["verify", "--only", "C3"] if command == "verify-C3"
                else ["reverify", str(report)])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC),
                                             env.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "godeaux.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, "")


class TestKernel:
    def test_degree_five_dimension(self, field_file, capsys):
        assert main(["kernel", field_file, "--degree", "5"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("dimension = 12")
        assert len(out.strip().splitlines()) == 13

    def test_degree_one(self, field_file, capsys):
        assert main(["kernel", field_file, "--degree", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["x3", "dimension = 1"]

    def test_zero_derivation_full_space(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("vars = x0 x1 x2 x3\nx0 -> 0\n")
        assert main(["kernel", str(path), "--degree", "2"]) == 0
        assert "dimension = 10" in capsys.readouterr().out

    def test_json_output(self, field_file, capsys):
        assert main(["kernel", field_file, "--degree", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"basis": ["x3"], "dimension": 1}

    def test_variables_inferred_from_lhs(self, tmp_path, capsys):
        # without a vars header the ring comes from the arrow lines
        path = tmp_path / "implicit.txt"
        path.write_text("a -> b\nb -> 0\n")
        assert main(["kernel", str(path), "--degree", "1"]) == 0
        assert "dimension = 1" in capsys.readouterr().out

    def test_negative_degree(self, field_file, capsys):
        assert main(["kernel", field_file, "--degree", "-1"]) == 2

    def test_missing_file(self, capsys):
        assert main(["kernel", "/nonexistent/f.txt", "--degree", "1"]) == 2

    def test_output_reparses(self, field_file, capsys):
        assert main(["kernel", field_file, "--degree", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[:-1]
        ring = PolyRing(("x0", "x1", "x2", "x3"), 5, DEGREVLEX)
        for line in lines:
            f = parse_poly(ring, line)
            assert str(f) == line

    def test_degree_forty_under_a_memory_cap(self):
        # n = 12341 monomials: a dense n x n matrix would need gigabytes,
        # the sparse elimination fits in a 512 MiB address space.
        cap = 512 << 20
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "godeaux.cli", "kernel",
             str(SRC / "godeaux" / "data" / "vector_field.txt"),
             "--degree", "40"],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == "dimension = 2469"
        assert hashlib.sha256("\n".join(lines[:-1]).encode()).hexdigest() == \
            "59229a69b1c40fa38d941d3d5e93cd843fc1ec3f8fa2f3c37fb980f9cc3272ea"


class TestGroebner:
    def test_reduced_basis(self, minors_file, capsys):
        assert main(["groebner", minors_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "x2^2" in lines  # reduced basis replaces x2^2 - x1*x3
        assert len(lines) == 6

    def test_unit_ideal(self, tmp_path, capsys):
        path = tmp_path / "unit.txt"
        path.write_text("vars = x y\nx\nx + 1\n")
        assert main(["groebner", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_empty_input(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        assert main(["groebner", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_repeated_header_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "twice.txt"
        path.write_text("p = 5\np = 7\nx^7 - x\n")
        assert main(["groebner", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeated key 'p'" in captured.err

    def test_budget_exceeded(self, minors_file, capsys):
        assert main(["groebner", minors_file, "--budget", "1"]) == 3
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "pairs" in err

    def test_json_output(self, minors_file, capsys):
        assert main(["groebner", minors_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["basis"]) == 6
        assert payload["pairs_processed"] > 0

    def test_output_reparses_to_same_ideal(self, minors_file, capsys):
        assert main(["groebner", minors_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ring = PolyRing(("x0", "x1", "x2", "x3"), 5, DEGREVLEX)
        for line in lines:
            assert str(parse_poly(ring, line)) == line


class TestInvariants:
    def test_hypersurface(self, capsys):
        assert main(["invariants", "hypersurface", "--d", "5"]) == 0
        out = capsys.readouterr().out
        assert "chi = 5" in out and "k2 = 5" in out

    def test_feasible(self, capsys):
        assert main(["invariants", "feasible", "--kind", "singular"]) == 0
        assert capsys.readouterr().out.strip() == "2 3 5"

    def test_feasible_supersingular_wide(self, capsys):
        assert main(["invariants", "feasible", "--kind", "supersingular",
                     "--threshold", "-6"]) == 0
        assert capsys.readouterr().out.strip() == "2 3 5 7"

    def test_torsor(self, capsys):
        assert main(["invariants", "torsor", "--chi", "1", "--k2", "1"]) == 0
        out = capsys.readouterr().out
        assert "chi = 5" in out
        assert "k2 = 5" in out
        assert "h0_omega_lower = 4" in out

    def test_torsor_at_another_characteristic(self, capsys):
        assert main(["invariants", "torsor", "--p", "3", "--chi", "1",
                     "--k2", "1"]) == 0
        out = capsys.readouterr().out
        assert "chi = 3" in out and "h0_omega_lower = 2" in out

    def test_betti(self, capsys):
        assert main(["invariants", "betti", "--chi", "1", "--k2", "1"]) == 0
        out = capsys.readouterr().out
        assert "c2 = 11" in out and "b2 = 9" in out and "b3 = 0" in out

    def test_betti_json(self, capsys):
        assert main(["invariants", "betti", "--chi", "1", "--k2", "1",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "c2": 11, "b2": 9, "b3": 0}

    def test_inconsistent_betti_is_usage_error(self, capsys):
        assert main(["invariants", "betti", "--chi", "0", "--k2", "5"]) == 2


class TestFlagPlacement:
    """Each flag belongs to the subcommands that read it.  A flag given at
    a level that does not read it is refused; it used to be parsed there
    and then overwritten by the subcommand's default, silently."""

    @pytest.mark.parametrize("argv, says", [
        (["--seed", "7", "verify"],
         "--seed goes after the subcommand: godeaux verify --seed 7"),
        (["--p", "3", "groebner", "ideal.txt"],
         "--p goes after the subcommand: godeaux groebner --p 3"),
        (["invariants", "--p", "3", "torsor", "--chi", "1", "--k2", "1"],
         "--p goes after the subcommand: godeaux invariants torsor --p 3"),
        (["invariants", "hypersurface", "--d", "5", "--p", "3"],
         "error: hypersurface takes no --p; it goes with: godeaux verify, "
         "godeaux kernel, godeaux groebner, godeaux invariants torsor\n"),
        (["reverify", "--format", "json", "report.json"],
         "error: reverify takes no --format; it goes with: godeaux verify, "
         "godeaux kernel, godeaux groebner, godeaux invariants hypersurface, "
         "godeaux invariants feasible, godeaux invariants torsor, "
         "godeaux invariants betti\n"),
        (["groebner", "ideal.txt", "--budget=9", "--p", "3", "--seed", "2"],
         "error: groebner takes no --seed; it goes with: godeaux verify\n"),
        (["groebner", "--format", "json", "ideal.txt"], None),
    ], ids=["seed-before-verify", "p-before-groebner", "p-before-torsor",
            "p-for-hypersurface", "format-for-reverify", "seed-for-groebner",
            "format-for-groebner"])
    def test_misplaced_flag_exits_two(self, argv, says, tmp_path,
                                      monkeypatch, capsys):
        # says None: the flag is where it belongs, and the command runs
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ideal.txt").write_text("x^2 - y\ny^2\n")
        if says is None:
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out) == {
                "basis": ["x^2 + 4*y", "y^2"], "pairs_processed": 0}
            return
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and says in err

    def test_verify_reads_its_seed(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_all",
                            lambda seed, budget, only: seen.append(seed) or [])
        assert main(["verify", "--seed", "7"]) == 0
        assert seen == [7]


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "godeaux.cli", "invariants",
             "hypersurface", "--d", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "chi = 2" in proc.stdout

    def test_console_script_verify_subset(self):
        proc = subprocess.run(
            ["godeaux", "verify", "--only", "C13", "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload[0]["id"] == "C13"
        assert payload[0]["status"] == "pass"
