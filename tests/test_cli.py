"""CLI tests: subcommands, output formats, and exit codes, driven through
main() directly."""

import json
import math

import pytest

from triangle_words import groups, lattice, psl2
from triangle_words.cli import (
    EXIT_ERROR,
    EXIT_FALSE,
    EXIT_INCONSISTENT,
    EXIT_TRUE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestClassify:
    def test_hyperbolic_negative(self, capsys):
        code, data, _ = run_json(
            capsys, "classify", "--k", "2", "--l", "3", "--m", "7", "--r", "5"
        )
        assert code == EXIT_FALSE
        assert data["universal"] is False
        assert data["reason"] == "NONE"

    def test_honda_rstar(self, capsys):
        code, data, _ = run_json(
            capsys, "classify", "--honda", "--k", "3", "--m", "4", "--r", "5"
        )
        assert code == EXIT_TRUE
        assert data["universal"] is True
        assert data["reason"] == "RSTAR_IS_PM1"

    def test_non_coprime_r(self, capsys):
        code, _, err = run(
            capsys, "classify", "--k", "2", "--l", "3", "--m", "7", "--r", "6"
        )
        assert code == EXIT_ERROR
        assert "error" in err

    def test_l_required_without_honda(self, capsys):
        code, _, err = run(capsys, "classify", "--k", "2", "--m", "7", "--r", "5")
        assert code == EXIT_ERROR

    def test_l_forbidden_with_honda(self, capsys):
        code, _, err = run(
            capsys, "classify", "--honda", "--k", "2", "--l", "3", "--m", "7",
            "--r", "5",
        )
        assert code == EXIT_ERROR

    def test_plain_format(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--k", "2", "--l", "3", "--m", "7", "--r", "41"
        )
        assert code == EXIT_TRUE
        assert "universal: True" in out


class TestMultiplier:
    def test_237(self, capsys):
        code, data, _ = run_json(capsys, "multiplier", "--k", "2", "--l", "3", "--m", "7")
        assert code == EXIT_TRUE
        assert data["multiplier_set"] == [1, 41]
        assert data["modulus"] == 42

    def test_235_count(self, capsys):
        _, data, _ = run_json(capsys, "multiplier", "--k", "2", "--l", "3", "--m", "5")
        assert len(data["multiplier_set"]) == 8

    def test_333(self, capsys):
        _, data, _ = run_json(capsys, "multiplier", "--k", "3", "--l", "3", "--m", "3")
        assert data["multiplier_set"] == [1, 2]

    def test_check_theorem(self, capsys):
        code, data, _ = run_json(
            capsys, "multiplier", "--k", "2", "--l", "3", "--m", "7",
            "--check-theorem",
        )
        assert code == EXIT_TRUE
        assert data["agreement"] is True

    def test_invalid_signature(self, capsys):
        code, _, _ = run(capsys, "multiplier", "--k", "1", "--l", "3", "--m", "7")
        assert code == EXIT_ERROR


class TestWitness:
    def test_dihedral_certificate(self, capsys):
        code, data, _ = run_json(
            capsys, "witness", "--k", "2", "--l", "2", "--m", "5", "--r", "3"
        )
        assert code == EXIT_TRUE
        assert data["verified"] is True
        assert data["verify_lhs"] == data["verify_rhs"]

    def test_identity_witness(self, capsys):
        code, data, _ = run_json(
            capsys, "witness", "--k", "2", "--l", "2", "--m", "3", "--r", "1"
        )
        assert code == EXIT_TRUE
        assert data["g"] == data["h"]

    def test_non_spherical(self, capsys):
        code, _, err = run(
            capsys, "witness", "--k", "2", "--l", "3", "--m", "7", "--r", "5"
        )
        assert code == EXIT_ERROR
        assert "no finite realization" in err


class TestReduceAndFiniteCheck:
    @pytest.fixture
    def s3_file(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(
            json.dumps({"permutations": [[2, 1, 3], [2, 3, 1]], "degree": 3})
        )
        return str(path)

    def test_reduce(self, capsys, s3_file):
        code, data, _ = run_json(capsys, "reduce", "--group", s3_file, "g:1 b b- g:2")
        assert code == EXIT_TRUE
        assert data["reduced"].startswith("g:")
        assert data["length"] == 0

    def test_reduce_missing_file(self, capsys):
        code, _, _ = run(capsys, "reduce", "--group", "/nonexistent.json", "g:0")
        assert code == EXIT_ERROR

    def test_reduce_bad_token(self, capsys, s3_file):
        code, _, _ = run(capsys, "reduce", "--group", s3_file, "g:1 zz")
        assert code == EXIT_ERROR

    def test_finite_check(self, capsys, s3_file):
        code, data, _ = run_json(
            capsys, "finite-check", "--group", s3_file, "--s", "5"
        )
        assert code == EXIT_TRUE
        assert data["counts_preserved"] is True
        assert data["order"] == 6

    def test_finite_check_bad_s(self, capsys, s3_file):
        code, _, _ = run(capsys, "finite-check", "--group", s3_file, "--s", "2")
        assert code == EXIT_ERROR


class TestOrevkov:
    def test_unsolvable(self, capsys):
        code, data, _ = run_json(capsys, "orevkov", "1/2", "1/2", "1/2")
        assert code == EXIT_FALSE
        assert data["solvable"] is False

    def test_solvable(self, capsys):
        code, data, _ = run_json(capsys, "orevkov", "1/2", "1/3", "1/7")
        assert code == EXIT_TRUE
        assert data["solvable"] is True
        assert data["rep_sum"] == "41/42"

    def test_numeric_flag(self, capsys):
        # (1/300)^3 needs the conjugator s = 5.25
        for angles in (("1/2", "1/3", "1/7"), ("1/300", "1/300", "1/300")):
            code, data, _ = run_json(capsys, "orevkov", *angles, "--numeric")
            assert code == EXIT_TRUE
            assert data["numeric_solvable"] is True
            assert data["numeric_agrees"] is True

    def test_numeric_conjugator_certificate(self, capsys):
        _, data, _ = run_json(capsys, "orevkov", "1/2", "1/3", "1/7", "--numeric")
        s = data["numeric_conjugator"]
        # the printed s puts sigma_a * g sigma_b g^-1 in the class of c^-1,
        # for g = diag(e^s, e^-s)
        g = ((math.exp(s), 0.0), (0.0, math.exp(-s)))
        a, b = (psl2.sigma_matrix(psl2.Angle.parse(x)) for x in ("1/2", "1/3"))
        p = psl2._matmul(a, psl2._matmul(g, psl2._matmul(b, psl2._sl2_inverse(g))))
        assert abs(psl2.class_of(psl2._sl2_inverse(p)) - 1 / 7) < psl2.TOLERANCE

        _, data, _ = run_json(capsys, "orevkov", "1/2", "1/2", "1/2", "--numeric")
        assert data["numeric_solvable"] is False
        assert data["numeric_conjugator"] is None

    def test_numeric_inconclusive_reported(self, capsys):
        code, data, _ = run_json(capsys, "orevkov", "1/3", "1/3", "1/3", "--numeric")
        assert code == EXIT_TRUE
        assert data["solvable"] is True
        assert data["numeric_solvable"] == "inconclusive"

    def test_bad_angle(self, capsys):
        code, _, _ = run(capsys, "orevkov", "1/2", "nope", "1/7")
        assert code == EXIT_ERROR


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


class TestExitCodes:
    """Failures that are not verdicts never exit 1."""

    def test_memory_error_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(lattice, "multiplier_set", _raise(MemoryError()))
        code, out, err = run(capsys, "multiplier", "--k", "2", "--l", "3", "--m", "7")
        assert code == EXIT_ERROR
        assert out == ""
        assert err.startswith("error:")

    def test_internal_inconsistency_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            groups, "universal_witness", _raise(groups.InternalInconsistencyError("no witness"))
        )
        code, out, err = run(
            capsys, "witness", "--k", "2", "--l", "2", "--m", "5", "--r", "3"
        )
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert "no witness" in err

    def test_failed_conjugator_reverification_exits_3(self, capsys, monkeypatch):
        # a kernel claiming a match at a point that is not one
        monkeypatch.setattr(psl2.backend, "grid_class_distance", lambda *args: 0.0)
        code, out, err = run(capsys, "orevkov", "1/2", "1/3", "1/7", "--numeric")
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert "conjugator" in err

    def test_numeric_disagreement_exits_3(self, capsys, monkeypatch):
        # a kernel finding no conjugator for a solvable triple off the margin
        monkeypatch.setattr(psl2.backend, "grid_class_distance", lambda *args: None)
        code, data, _ = run_json(capsys, "orevkov", "1/2", "1/3", "1/7", "--numeric")
        assert code == EXIT_INCONSISTENT
        assert data["solvable"] is True
        assert data["numeric_solvable"] is False
        assert data["numeric_agrees"] is False
