"""Harness: exponent curves, CSV schemas, verification suite, CLI, seeds."""

import csv
import io
import json
import math
import os

import numpy as np
import pytest

from lumen.cli import main as cli_main
from lumen.core import Decomposition, Rank1Term, tensor_of_decomposition
from lumen.efficacy import (dubiner_exponent, exponent_bound, omega_rho_t2112,
                            rho_joint_matrix)
from lumen.harness import (EXPONENTS_HEADER, SUCCESS_HEADER, cmd_exponents,
                           cmd_success_curve, cmd_verify, default_jobs,
                           exponent_rows, locate_corrupt_term, wilson_interval)
from lumen.instances import gen_planted, gen_planted_p, write_instance
from lumen.zoo import matmul_tensor, strassen_decomposition, zoo_decomposition


class TestExponentCurves:
    def test_csv_header_golden(self):
        text = cmd_exponents([0.0, 0.5, 1.0])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == EXPONENTS_HEADER
        assert len(rows) == 4

    def test_reference_points(self):
        rows = exponent_rows([0.0, 1 / 3, 1.0])
        flat = exponent_bound(5, math.sqrt(6))
        r0 = rows[0]
        assert abs(r0["omega_lsh_t2112"] - flat) < 1e-9
        assert abs(r0["omega_uniform_t2112"] - flat) < 1e-9
        assert abs(r0["omega_dubiner"] - 2.0) < 1e-12
        assert abs(rows[1]["omega_lsh_t2112"] - 1.7414) < 1e-4
        assert abs(rows[2]["omega_dubiner"] - 1.0) < 1e-12

    def test_matches_formulas_on_grid(self):
        for rho in (0.1, 0.6):
            row = exponent_rows([rho])[0]
            assert abs(row["omega_lsh_t2112"] - omega_rho_t2112(rho)) < 1e-12
            assert abs(row["omega_dubiner"] - dubiner_exponent(rho)) < 1e-12


class TestSeeds:
    def test_wilson(self):
        lo, hi = wilson_interval(18, 20)
        assert 0.68 < lo < 0.9 < hi <= 1.0


class TestVerifySuite:
    def test_fresh_checkout_passes(self):
        rep = cmd_verify(fast=True)
        assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]

    def test_corrupted_term_located(self):
        d = strassen_decomposition()
        bad_terms = list(d.terms)
        t3 = bad_terms[3]
        alpha = t3.alpha.copy()
        alpha[0, 0] += 1.0
        bad_terms[3] = Rank1Term(alpha, t3.beta.copy(), t3.gamma.copy())
        bad = Decomposition(d.shape, tuple(bad_terms))
        assert locate_corrupt_term(bad, matmul_tensor(2, 2)) == 3

    def test_uncorrupted_returns_first_exact(self):
        # removing any term from a correct decomposition leaves rank-1 residue
        d = strassen_decomposition()
        idx = locate_corrupt_term(d, matmul_tensor(2, 2))
        assert idx is not None


class TestSuccessCurve:
    def test_default_jobs_reads_no_environment(self, monkeypatch):
        """--jobs is the one way to set grid parallelism."""
        monkeypatch.setenv("LUMEN_JOBS", "x")
        assert default_jobs() == max(1, min(2, os.cpu_count() or 1))

    def test_schema_and_determinism(self):
        rows, text = cmd_success_curve("strassen", [128], [1.0], seeds=2,
                                       d=256, jobs=1)
        header = text.splitlines()[0].split(",")
        assert header == SUCCESS_HEADER
        assert rows[0]["successes"] == 2
        rows2, _ = cmd_success_curve("strassen", [128], [1.0], seeds=2,
                                     d=256, jobs=1)
        assert rows[0]["successes"] == rows2[0]["successes"]
        assert rows[0]["multiply_count"] == rows2[0]["multiply_count"]


class TestCli:
    def test_zoo_list(self, capsys):
        assert cli_main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("strassen", "sw", "t2112"):
            assert name in out

    def test_zoo_dump_round_trip(self, capsys):
        assert cli_main(["zoo", "dump", "strassen"]) == 0
        out = capsys.readouterr().out
        from lumen.core import decomposition_from_text
        d = decomposition_from_text(out)
        assert d.rank == 7
        assert np.array_equal(tensor_of_decomposition(d).coeff,
                              matmul_tensor(2, 2).coeff)

    def test_eff_and_exponent(self, capsys):
        assert cli_main(["eff", "--tensor", "sw"]) == 0
        out = capsys.readouterr().out
        assert "total 2.645751" in out
        assert cli_main(["exponent", "--tensor", "strassen"]) == 0
        out = capsys.readouterr().out
        assert "1.8715" in out

    def test_exponents_csv(self, capsys):
        assert cli_main(["exponents", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(EXPONENTS_HEADER)

    def test_exponent_csv_row(self, capsys):
        assert cli_main(["exponent", "--tensor", "t2112", "--rho", "0.6",
                         "--csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "tensor,epsilon,rho,eff,gamma,exponent"
        fields = out[1].split(",")
        assert fields[0] == "t2112"
        assert abs(float(fields[5]) - omega_rho_t2112(0.6)) < 1e-5

    def test_gen_solve_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "x.bin")
        assert cli_main(["gen", path, "--n", "128", "--d", "256",
                         "--rho", "1.0", "--seed", "5"]) == 0
        capsys.readouterr()
        code = cli_main(["solve", "--path", path, "--tensor", "strassen",
                         "--seed", "1"])
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert code == 0 and rep["planted_recovered"]

    def test_solve_reports_planned_and_executed_multiplies(self, capsys):
        """The plan echo sets the paper's prod(rank_l) next to the
        multiplies the kernel executes each round: 6^L against 9^L for sw."""
        code = cli_main(["solve", "--tensor", "sw", "--n", "128", "--d", "256",
                         "--rho", "1.0", "--seed", "3"])
        rep = json.loads(capsys.readouterr().out)
        plan = rep["plan"]
        L = plan["m"].bit_length() - 1
        assert code == 0 and plan["kernel"] == "masked_matmul"
        assert plan["rank_product"] == 6 ** L
        assert plan["multiplies_per_round"] == 9 ** L
        assert rep["multiply_count"] == rep["rounds"] * 9 ** L

    @pytest.mark.parametrize("lsh", [[], ["--lsh"]])
    def test_solve_refuses_qary_file(self, tmp_path, capsys, lsh):
        path = str(tmp_path / "q4.bin")
        P = np.full((4, 4), 1 / 32)
        np.fill_diagonal(P, 1 / 32 + 1 / 8)
        write_instance(path, gen_planted_p(16, 50, 4, P / P.sum(), seed=3))
        assert cli_main(["solve", "--path", path] + lsh) == 2
        assert "q=2" in capsys.readouterr().err

    @pytest.mark.parametrize("lsh", [[], ["--lsh"]])
    def test_solve_refuses_file_without_scalar_rho(self, tmp_path, capsys,
                                                   lsh):
        path = str(tmp_path / "p2.bin")
        write_instance(path, gen_planted_p(64, 128, 2, rho_joint_matrix(0.8),
                                           seed=1))
        assert cli_main(["solve", "--path", path] + lsh) == 2
        assert "scalar rho" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "--path"],
                                      ["verify", "--decomp-file"]])
    def test_missing_file_exits_2(self, tmp_path, capsys, argv):
        path = str(tmp_path / "nope")
        assert cli_main(argv + [path]) == 2
        assert capsys.readouterr().err == f"{path}: No such file or directory\n"

    @pytest.mark.parametrize("content, why", [
        (b"garbage", "not an instance file"),
        (40, "truncated instance file")])
    def test_solve_unreadable_file_exits_2(self, tmp_path, capsys, content,
                                           why):
        path = str(tmp_path / "g.bin")
        if isinstance(content, int):
            write_instance(path, gen_planted(64, 128, 0.8, seed=2))
            with open(path, "rb") as f:
                content = f.read(content)
        with open(path, "wb") as f:
            f.write(content)
        assert cli_main(["solve", "--path", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: {why}" in err

    @pytest.mark.parametrize("argv, why", [
        (["solve", "--n", "64", "--d", "4", "--rho", "0.8"],
         "no runnable configuration"),
        (["solve", "--lsh", "--rho", "0", "--n", "64", "--d", "128"],
         "no correlated sign mapping"),
        (["solve", "--rho", "1.5"], "rho must lie in [0, 1]"),
        (["gen", "x.bin", "--n", "64", "--d", "128", "--rho", "2"],
         "rho must lie in [0, 1]"),
        (["solve", "--n", "256", "--d", "256", "--rho", "0.3"],
         "rho * d = 76.8 is below the verification threshold 106.9"),
        (["gen", "nodir/x.bin", "--n", "64", "--d", "128", "--rho", "0.5"],
         "nodir/x.bin: No such file or directory"),
        (["solve", "--n", "64", "--d", "512", "--rho", "0.8", "--tensor",
          "strassen", "--reps", "0"], "reps = 0 is below 1"),
        (["solve", "--n", "64", "--d", "512", "--rho", "0.8", "--tensor",
          "strassen", "--reps", "-3"], "reps = -3 is below 1"),
        (["solve", "--n", "64", "--d", "512", "--rho", "0.8", "--sigma",
          "-1"], "detect_sigma = -1.0 is not positive"),
        (["solve", "--lsh", "--n", "64", "--d", "512", "--rho", "0.8",
          "--sigma", "nan"], "detect_sigma = nan is not positive"),
        (["solve", "--eps", "0", "--n", "64", "--d", "128"],
         "lumen solve: eps must be positive"),
        (["eff", "--eps", "0"], "lumen eff: eps must be positive"),
        (["exponent", "--tensor", "t2112", "--eps", "-1"],
         "lumen exponent: eps must be positive"),
        (["zoo", "dump", "t2112", "--eps", "0"],
         "lumen zoo: eps must be positive"),
        (["gamma-opt", "--rho", "2"],
         "lumen gamma-opt: rho must lie in [-1, 1]"),
        (["exponent", "--tensor", "t2112", "--rho", "1.5"],
         "lumen exponent: rho must lie in [0, 1]"),
        (["design-q", "--rho", "0"], "lumen design-q: P must not be uniform"),
        (["success-curve", "--tensor", "strassen", "--n", "64", "--seeds", "1",
          "--reps", "0"], "lumen success-curve: reps = 0 is below 1"),
        (["success-curve", "--tensor", "strassen", "--n", "64", "--seeds", "1",
          "--rho", "0.8", "1.5"],
         "lumen success-curve: rho = 1.5 must lie in [0, 1]"),
        (["lemma-check", "--seed", "-1"],
         "lumen lemma-check: seed = -1 is negative"),
        (["solve", "--n", "64", "--d", "512", "--seed", "-1"],
         "lumen solve: seed = -1 is negative"),
        (["gen", "x.bin", "--n", "64", "--d", "128", "--rho", "0.5",
          "--seed", "-2"], "lumen gen: seed = -2 is negative"),
        (["success-curve", "--tensor", "strassen", "--n", "64", "--seeds", "1",
          "--rho", "0.1"], "lumen success-curve: rho * d = 6.4 is below the "
                           "verification threshold 53.5"),
        (["exponents", "--points", "3", "--out", "nodir/x.csv"],
         "nodir/x.csv: No such file or directory"),
        (["success-curve", "--tensor", "strassen", "--n", "64", "--seeds", "1",
          "--out", "nodir/x.csv"], "nodir/x.csv: No such file or directory"),
        (["solve", "--n", "64", "--d", "512", "--tensor", "strassen",
          "--json", "nodir/o.json"], "nodir/o.json: No such file or directory"),
        (["bench", "agg", "--r", "3"],
         "lumen bench: subset size r must be even and >= 2, got r = 3"),
        (["bench", "agg", "--d", "2"],
         "lumen bench: dimension too small for the subset size"),
        (["exponents", "--points", "-1"],
         "lumen exponents: Number of samples, -1, must be non-negative"),
        (["exponent", "--tensor", "sw", "--rho", "-0.5", "--csv"],
         "lumen exponent: rho must lie in [0, 1]"),
        (["exponent", "--tensor", "t2112", "--rho", "1.5", "--csv"],
         "lumen exponent: rho must lie in [0, 1]"),
        (["exponent", "--tensor", "strassen", "--rho", "-0.5"],
         "lumen exponent: rho must lie in [0, 1]"),
        (["solve", "--lsh", "--tensor", "strassen", "--n", "70000", "--d",
          "256", "--reps", "30"],
         "lumen solve: n=70000 is too large for the hashing path")])
    def test_infeasible_input_exits_2(self, tmp_path, monkeypatch, capsys,
                                      argv, why):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and why in err
        assert not (tmp_path / "x.bin").exists()

    def test_lemma_check_cli(self, capsys):
        assert cli_main(["lemma-check", "--seed", "1"]) == 0

    def test_design_q_cli(self, capsys):
        assert cli_main(["design-q", "--tensor", "sw", "--rho", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out

    def test_verify_user_decomposition(self, tmp_path, capsys):
        from lumen.core import decomposition_to_text
        path = str(tmp_path / "d.txt")
        with open(path, "w") as f:
            f.write(decomposition_to_text(strassen_decomposition()))
        assert cli_main(["verify", "--decomp-file", path,
                         "--against", "strassen"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        # corrupt one coefficient: verify fails and names a term index
        text = decomposition_to_text(strassen_decomposition())
        lines = text.splitlines()
        parts = lines[2].split(";")
        nums = parts[0].split()
        nums[0] = "5.0"
        parts[0] = " ".join(nums)
        lines[2] = ";".join(parts)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert cli_main(["verify", "--decomp-file", path,
                         "--against", "strassen"]) == 1
        out = capsys.readouterr().out
        assert "suspect term index: 1" in out

    def test_verify_malformed_decomposition_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as f:
            f.write("shape 2 2\n")
        assert cli_main(["verify", "--decomp-file", path]) == 2
        err = capsys.readouterr().err
        assert "line 1: expected `shape q_i q_j q_k`" in err
