"""Harness: exponent curves, CSV schemas, verification suite, CLI, seeds."""

import csv
import io
import json
import math

import numpy as np
import pytest

from lumen.cli import main as cli_main
from lumen.core import Decomposition, Rank1Term, tensor_of_decomposition
from lumen.efficacy import dubiner_exponent, exponent_bound, omega_rho_t2112
from lumen.harness import (EXPONENTS_HEADER, SUCCESS_HEADER, cmd_exponents,
                           cmd_success_curve, cmd_verify,
                           exponent_rows, locate_corrupt_term, wilson_interval)
from lumen.instances import gen_planted_p, write_instance
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

    @pytest.mark.parametrize("lsh", [[], ["--lsh"]])
    def test_solve_refuses_qary_file(self, tmp_path, capsys, lsh):
        path = str(tmp_path / "q4.bin")
        P = np.full((4, 4), 1 / 32)
        np.fill_diagonal(P, 1 / 32 + 1 / 8)
        write_instance(path, gen_planted_p(16, 50, 4, P / P.sum(), seed=3))
        assert cli_main(["solve", "--path", path] + lsh) == 2
        assert "q=2" in capsys.readouterr().err

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
