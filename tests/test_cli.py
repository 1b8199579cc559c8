import json
from fractions import Fraction

import numpy as np
import pytest

from sostensor import generators
from sostensor.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main
from sostensor.fileio import (
    ParseError,
    format_polynomial,
    format_tensor,
    parse_polynomial,
    parse_tensor,
    parse_value,
    read_tensor,
    to_json,
)
from sostensor.structured import classify
from sostensor.tensor import HomogeneousPolynomial, from_polynomial, identity_tensor


class TestValueParsing:
    def test_exact_kinds(self):
        assert parse_value("3") == 3
        assert parse_value("1/6") == Fraction(1, 6)
        assert parse_value("-2/5") == Fraction(-2, 5)
        assert parse_value("0.25") == 0.25

    def test_bad_literal(self):
        with pytest.raises(ParseError):
            parse_value("x")
        with pytest.raises(ParseError):
            parse_value("1/0")


class TestTensorFormat:
    def test_round_trip_exact(self):
        A = generators.example51()
        B = parse_tensor(format_tensor(A))
        assert B.entries == A.entries

    def test_idempotent_write(self):
        A = generators.example54(4)
        once = format_tensor(parse_tensor(format_tensor(A)))
        assert once == format_tensor(A)

    def test_permutation_accepted(self):
        text = "tensor 2 2\n2 1 5\n"
        A = parse_tensor(text)
        assert A.entry((0, 1)) == 5

    def test_duplicate_canonical_rejected(self):
        text = "tensor 2 2\n1 2 5\n2 1 5\n"
        with pytest.raises(ParseError):
            parse_tensor(text)

    def test_header_and_ranges(self):
        with pytest.raises(ParseError):
            parse_tensor("matrix 2 2\n")
        with pytest.raises(ParseError):
            parse_tensor("tensor 2 2\n1 3 1.0\n")
        with pytest.raises(ParseError):
            parse_tensor("tensor 2 2\n1 1\n")

    def test_comments_ignored(self):
        text = "# heading\n\ntensor 2 2\n# entry\n1 1 2\n"
        assert parse_tensor(text).entry((0, 0)) == 2


class TestPolynomialFormat:
    def test_round_trip(self):
        f = HomogeneousPolynomial(6, 2, {(3, 3): Fraction(4), (6, 0): 1})
        g = parse_polynomial(format_polynomial(f))
        assert g.terms == f.terms

    def test_degree_mismatch(self):
        with pytest.raises(ParseError):
            parse_polynomial("poly 4 2\n1 3 0\n")


class TestCliCommands:
    def test_gen_example54_exact_entries(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "example54", "--n", "4", "--out", str(out)]) == EXIT_OK
        A = parse_tensor(out.read_text())
        assert A.diagonal_entry(0) == 4
        assert A.entry((0, 1, 2, 3)) == Fraction(1, 6)

    def test_gen_example53_exact_entries(self, tmp_path):
        out = tmp_path / "t.txt"
        assert main(["gen", "example53", "--m", "10", "--out", str(out)]) == EXIT_OK
        A = parse_tensor(out.read_text())
        assert A.entry((0,) * 5 + (1,) * 5) == Fraction(1, 126)
        assert A.entry((2, 2) + (3,) * 8) == Fraction(-1, 45)

    def test_gen_procedure1_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "procedure1", "--m", "4", "--n", "8", "--s", "2", "--k",
                "4", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_gen_usage_error(self, capsys):
        assert main(["gen", "partial_all_one", "--m", "4", "--n", "3"]) == EXIT_USAGE

    def test_classify_example51(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "example51", "--out", str(path)])
        assert main(["classify", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"]["extended_z"]["holds"] is True
        assert payload["classes"]["z_tensor"]["holds"] is False

    def test_classify_identity(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "identity", "--m", "4", "--n", "3", "--out", str(path)])
        assert main(["classify", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"]["diagonally_dominated"]["holds"] is True
        assert payload["classes"]["h_tensor"]["holds"] is True

    def test_classify_all_one_b0(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "all_one", "--m", "4", "--n", "3", "--out", str(path)])
        main(["classify", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"]["b0"]["holds"] is True

    def test_classify_uses_the_api_boundary_band(self, tmp_path, capsys):
        # each diagonal entry is its row's absolute off-sum (1.6 and 1.2)
        # plus 1e-7: strictly dominated outside the API's 1e-9 band, inside
        # a 1e-6 one
        path = tmp_path / "t.txt"
        path.write_text(
            "tensor 4 2\n1 1 1 1 1.6000001\n1 1 1 2 0.3\n1 1 2 2 -0.2\n"
            "1 2 2 2 0.1\n2 2 2 2 1.2000001\n"
        )
        assert main(["classify", str(path), "--format", "json"]) == EXIT_OK
        classes = json.loads(capsys.readouterr().out)["classes"]
        api = classify(read_tensor(str(path))).to_dict()["classes"]
        assert classes == json.loads(to_json(api))
        assert classes["h_tensor_nonsingular"]["holds"] is True
        assert classes["h_tensor_nonsingular"]["boundary"] is False

    def test_classify_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("tensor 2 2\n1 5 1.0\n")
        assert main(["classify", str(path)]) == EXIT_USAGE

    def test_sos_identity(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "identity", "--m", "4", "--n", "4", "--out", str(path)])
        code = main(["sos", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "certified" in out
        assert "rank_estimate=4" in out

    def test_sos_cauchy(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "cauchy", "--m", "4", "--c", "1,2,3", "--out", str(path)])
        assert main(["sos", str(path)]) == EXIT_OK
        assert "certified" in capsys.readouterr().out

    def test_cauchy_json(self, tmp_path, capsys):
        # the file holds exact rationals, so the generator is exact
        path = tmp_path / "c.json"
        main(["gen", "cauchy", "--c", "1,2,3", "--m", "4", "--out", str(path)])
        capsys.readouterr()
        assert main(["sos", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == "certified"
        assert payload["residual"] <= 1e-12
        assert main(["classify", str(path), "--format", "json"]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)["classes"]["cauchy"]
        assert verdict["holds"] is True
        assert verdict["witness"] == {"c": ["1", "2", "3"]}

    def test_sos_blockwise_json_names_each_route(self, tmp_path, capsys):
        path = tmp_path / "e54.json"
        main(["gen", "example54", "--n", "40", "--out", str(path)])
        capsys.readouterr()
        assert main(["sos", str(path), "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "blockwise"
        assert payload["block_methods"] == ["amgm"] * 10
        assert len(payload["blocks"]) == 10

    def test_sos_indefinite(self, tmp_path, capsys):
        f = HomogeneousPolynomial(4, 2, {(4, 0): 1, (2, 2): -3, (0, 4): 1})
        path = tmp_path / "t.txt"
        path.write_text(format_tensor(from_polynomial(f)))
        code = main(["sos", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["summary"] == "not_certified"
        assert payload["witness_value"] < 0

    def test_sos_certificate_file(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        cert_path = tmp_path / "cert.json"
        main(["gen", "identity", "--m", "4", "--n", "2", "--out", str(path)])
        assert main(["sos", str(path), "--out", str(cert_path)]) == EXIT_OK
        payload = json.loads(cert_path.read_text())
        assert payload["rank_estimate"] == 2
        # x0^4 + x1^4 splits into the blocks (x0) and (x1), each with basis (x^2)
        blocks = payload["blocks"]
        assert [b["variables"] for b in blocks] == [[0], [1]]
        assert [b["basis"] for b in blocks] == [[[2]], [[2]]]

    def test_eigmin_small(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "example51", "--out", str(path)])
        code = main(["eigmin", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["lambda_min"] == pytest.approx(-1.0, abs=1e-4)
        assert payload["oracle_value"] == pytest.approx(-1.0, abs=1e-6)

    def test_eigmin_reports_route(self, tmp_path, capsys):
        path = tmp_path / "b0.json"
        main(["gen", "random_class", "--cls", "b0", "--m", "4", "--n", "3",
              "--seed", "40000", "--out", str(path)])
        capsys.readouterr()
        code = main(["eigmin", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert (payload["method"], payload["solver_status"]) == ("sdp", "optimal")
        assert abs(payload["lambda_min"] - payload["oracle_value"]) <= 1e-5
        assert main(["eigmin", str(path)]) == EXIT_OK
        assert "method: sdp" in capsys.readouterr().out

    def test_eigmin_degenerate_blockwise(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "example53", "--m", "20", "--out", str(path)])
        code = main(["eigmin", str(path), "--tol", "1e-7", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert abs(payload["lambda_min"]) <= 1e-6

    def test_pd_identity(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        main(["gen", "identity", "--m", "4", "--n", "3", "--out", str(path)])
        code = main(["pd", str(path)])
        assert code == EXIT_OK
        assert "positive_definite" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sos", "pd"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, command, bad):
        path = tmp_path / "t.txt"
        path.write_text(f"tensor 4 2\n1 1 1 1 1\n2 2 2 2 1\n1 1 2 2 {bad}\n")
        assert main([command, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sos", "eigmin", "pd"])
    def test_odd_order_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "t.txt"
        path.write_text("tensor 3 2\n1 1 1 1\n2 2 2 1\n")
        assert main([command, str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "input error" in err
        assert "even order" in err

    def test_classify_extreme_magnitudes(self, tmp_path, capsys):
        # entries 1e150 apart in magnitude: the spectral-radius checks
        # converge, so classify reports (exit 0) instead of a traceback
        path = tmp_path / "t.txt"
        path.write_text(
            "tensor 4 2\n1 1 1 1 1.0\n2 2 2 2 1.0\n1 1 2 2 -1e150\n1 2 2 2 1e-300\n"
        )
        assert main(["classify", str(path), "--format", "json"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        payload = json.loads(out)
        assert payload["classes"]["mb0"]["holds"] is False

    def test_repro_examples_exit_codes(self, capsys, monkeypatch):
        from sostensor import cli

        assert main(["repro", "--suite", "examples", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(cli._EXAMPLE_ROWS)
        wrong = (("example54 n=4, wrong truth", lambda: generators.example54(4), 2.0),)
        monkeypatch.setattr(cli, "_EXAMPLE_ROWS", wrong)
        assert main(["repro", "--suite", "examples"]) == EXIT_INCONCLUSIVE

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/tensor.txt"]) == EXIT_USAGE

    def test_bad_usage(self, capsys):
        assert main(["gen", "bogus_kind"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, flag", [
        ("classify", ["--seed", "3"]),
        ("sos", ["--tol", "1e-3"]),
        ("gen", ["--tol", "1e-3"]),
    ])
    def test_flags_a_command_ignores_are_rejected(self, tmp_path, capsys, command, flag):
        path = tmp_path / "t.txt"
        assert main(["gen", "identity", "--out", str(path)]) == EXIT_OK
        args = ["gen", "identity"] if command == "gen" else [command, str(path)]
        assert main(args + flag) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, flag", [
        ("pd-test", ["--tol", "1e-3"]),
        ("examples", ["--seed", "3"]),
        ("examples", ["--count", "5"]),
    ])
    def test_repro_rejects_the_flag_its_suite_ignores(self, capsys, suite, flag):
        assert main(["repro", "--suite", suite] + flag) == EXIT_USAGE
        assert f"does not read {flag[0]}" in capsys.readouterr().err

    def test_repro_pd_suite_small(self, capsys):
        code = main(
            ["repro", "--suite", "pd-test", "--count", "4", "--seed", "7",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["instances"] == 4
        assert payload["correctness"] == 100.0

    @pytest.mark.parametrize("verdict", [lambda v: not v, lambda v: None])
    def test_repro_pd_suite_fails_on_wrong_verdict(self, capsys, monkeypatch, verdict):
        from sostensor import spectral

        decide = spectral.is_positive_definite

        def overridden(A, options=None):
            res = decide(A, options)
            res.verdict = verdict(res.verdict)
            return res

        monkeypatch.setattr(spectral, "is_positive_definite", overridden)
        args = ["repro", "--suite", "pd-test", "--count", "2", "--seed", "7"]
        assert main(args) == EXIT_INCONCLUSIVE
        assert "correctness=0.0%" in capsys.readouterr().out

    def test_repro_pd_suite_deterministic(self, capsys):
        main(["repro", "--suite", "pd-test", "--count", "3", "--seed", "11",
              "--format", "json"])
        first = capsys.readouterr().out
        main(["repro", "--suite", "pd-test", "--count", "3", "--seed", "11",
              "--format", "json"])
        second = capsys.readouterr().out
        assert first == second
