import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genmatrices import random_quasi_unipotent
import monobound

from monobound import chern_invariants, cli, errors
from monobound.chern_invariants import FamilySpec, invariants_of
from monobound.cli import (
    DEFAULT_VALUE_DIGIT_LIMIT,
    EXIT_INTERNAL,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_UNSTABLE,
    EXIT_VALIDATION,
    ScanCache,
    cert_to_json,
    factored_to_json,
    invariants_to_json,
    main,
)
from monobound.compat_bounds import DEFAULT_SCAN_DEPTH, ScanCertificate, c_d, refined_bound
from monobound.numtheory import FactoredInt, factorize
from monobound.variety_bounds import bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def call_main(argv, stdin="", cache=None):
    """main(argv) with this stdin and $MONOBOUND_CACHE (unset for None):
    the exit code and stdout.  It takes no fixture, so a hypothesis test
    can call it once per example."""
    out = io.StringIO()
    with mock.patch.dict(os.environ), mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out):
        os.environ.pop("MONOBOUND_CACHE", None)
        if cache is not None:
            os.environ["MONOBOUND_CACHE"] = cache
        code = main(argv)
    return code, out.getvalue()


def write_input(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cld(capsys):
    code, out = run_cli(capsys, "cld", "--ell", "3", "--d", "2")
    assert code == EXIT_OK
    assert out["order"] == {"factors": {"2": 4, "3": 1}, "value": "48"}

    code, out = run_cli(capsys, "cld", "--ell", "2", "--d", "1")
    assert out["order"]["value"] == "2"

    code, out = run_cli(capsys, "cld", "--ell", "7", "--d", "0")
    assert out["order"] == {"factors": {}, "value": "1"}

    # |GL_40(F_3)| from the Phi_k(3) table is the plain product
    code, out = run_cli(capsys, "cld", "--ell", "3", "--d", "40")
    assert code == EXIT_OK
    assert int(out["order"]["value"]) == \
        3 ** 780 * math.prod(3 ** i - 1 for i in range(1, 41))


def test_cld_rejects_composite(capsys):
    code, out = run_cli(capsys, "cld", "--ell", "4", "--d", "2")
    assert code == EXIT_VALIDATION
    assert out["error"] == {"type": "ValidationError", "message": "4 is not prime"}


def test_cld_undecided_cofactor_exit_code(capsys):
    # 5^43 - 1 has a prime factor >= 2^64, which is never certified
    code, out = run_cli(capsys, "cld", "--ell", "5", "--d", "47")
    assert code == EXIT_UNDECIDED
    assert out["error"]["type"] == "UndecidedCofactor"
    assert "exceeds the deterministic primality range" in out["error"]["message"]
    # the message names the cyclotomic value whose factorization stopped
    assert out["error"]["message"].startswith("Phi_43(5): cofactor ")


@pytest.mark.parametrize("argv, message", [
    (("cd", "--d", "-1"), "dimension must be >= 0, got -1"),
    (("refined", "--d", "2", "--p", "4"), "4 is not prime"),
    (("cd", "--d", "2", "--p", "-3"), "primality is defined for nonnegative integers"),
    (("cld", "--ell", "-3", "--d", "2"), "primality is defined for nonnegative integers"),
    (("refined", "--d", "2", "--p", str(2 ** 64 + 13)),
     "primality check limited to n < 2**64, got 18446744073709551629"),
    # refused before the tame set of a large d is enumerated
    (("refined", "--d", "3000000", "--p", "4"), "4 is not prime"),
    (("refined", "--d", "1000000", "--p", "5", "--scan-depth", "1"),
     "scan_depth must be >= 2, got 1"),
])
def test_out_of_domain_arguments_are_validation_errors(capsys, argv, message):
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert out["error"] == {"type": "ValidationError", "message": message}


def test_cd(capsys):
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK
    assert out["value"]["value"] == "48"
    assert out["certificate"]["stable"] is True

    code, out = run_cli(capsys, "cd", "--d", "1", "--p", "3")
    assert out["value"]["value"] == "2"

    code, out = run_cli(capsys, "cd", "--d", "0", "--p", "5")
    assert out["value"]["value"] == "1"


def decimal_digits(v):
    """Number of decimal digits of v >= 1, by bisection on powers of ten."""
    lo, hi = 1, 1
    while v >= 10 ** hi:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if v < 10 ** mid else (mid + 1, hi)
    return lo


def test_value_digit_limit_expands_exactly_the_short_values(capsys):
    # |GL_60(Z/4Z)| has 2167 digits
    for limit, expanded in (("3000", True), ("2166", False), ("2167", True)):
        code, out = run_cli(capsys, "cld", "--ell", "2", "--d", "60",
                            "--value-digit-limit", limit)
        assert code == EXIT_OK and ("value" in out["order"]) == expanded
    assert int(out["order"]["value"]) == \
        2 ** (3600 + 1770) * math.prod(2 ** i - 1 for i in range(1, 61))
    # c_d(3000, 5) has 11197 digits, more than str() converts by default
    code, out = run_cli(capsys, "cd", "--d", "3000", "--p", "5",
                        "--value-digit-limit", "100000000")
    assert code == EXIT_OK
    text = out["value"]["value"]
    value = math.prod(int(p) ** e for p, e in out["value"]["factors"].items())
    assert len(text) == decimal_digits(value) == 11197
    assert int(text[:1000]) == value // 10 ** (len(text) - 1000)
    assert int(text[-1000:]) == value % 10 ** 1000
    with cli._lifted_int_limit():
        assert int(text) == value
    code, out = run_cli(capsys, "cd", "--d", "3000", "--p", "5",
                        "--value-digit-limit", "11196")
    assert code == EXIT_OK and "value" not in out["value"]


def test_factored_value_expands_up_to_exactly_its_digits():
    # 10^k itself, its neighbours and 2^k sit on or next to a digit boundary
    cases = [{2: k, 5: k} for k in (0, 1, 2, 17, 300, 4000, 9000)]
    cases += [{2: k} for k in (1, 3, 4, 10, 332, 333, 20000)]
    cases += [factorize(10 ** k + s) for k in range(1, 20) for s in (-1, 1)]
    cases += [{2: 3600 + 1770, 3: 5, 7: 2}, {3: 5000, 11: 77, 2 ** 61 - 1: 3}]
    old = sys.get_int_max_str_digits()
    for factors in cases:
        f = FactoredInt.from_dict(factors)
        v = f.value()
        digits = decimal_digits(v)
        # written under the interpreter's int-to-str limit, read past it
        at, below = factored_to_json(f, digits), factored_to_json(f, digits - 1)
        assert sys.get_int_max_str_digits() == old
        assert "value" not in below, factors
        with cli._lifted_int_limit():
            assert int(at["value"]) == v, factors


def test_invariant_violation_exit_code(capsys, tmp_path, monkeypatch):
    # a defect, not bad input: chi = -10 would give the K3 a middle Betti
    # number of -12
    monkeypatch.setattr(chern_invariants, "euler_characteristic", lambda spec: -10)
    path = write_input(tmp_path, {"family": {"kind": "hypersurface", "n": 2,
                                             "degrees": [4]}})
    code, out = run_cli(capsys, "invariants", "--input", path)
    assert code == EXIT_INTERNAL == 6
    assert out["error"] == {"type": "InvariantViolationError",
                            "message": "middle Betti number came out negative: -12"}


# (exit code, JSON type) per exception class main may meet: every class of
# monobound.errors, the CLI's own MalformedInputError and a bare ValueError
ERROR_ANSWERS = {
    errors.ValidationError: (EXIT_VALIDATION, "ValidationError"),
    errors.NegativeBettiError: (EXIT_VALIDATION, "NegativeBettiError"),
    errors.NonGeometricInvariantsError: (EXIT_VALIDATION, "NonGeometricInvariantsError"),
    errors.DimensionTooSmallError: (EXIT_VALIDATION, "DimensionTooSmallError"),
    errors.SingularInputError: (EXIT_VALIDATION, "SingularInputError"),
    errors.PreconditionViolatedError: (EXIT_VALIDATION, "PreconditionViolatedError"),
    errors.ZeroTauError: (EXIT_VALIDATION, "ZeroTauError"),
    errors.NotUnipotentError: (EXIT_VALIDATION, "NotUnipotentError"),
    errors.NotNilpotentError: (EXIT_VALIDATION, "NotNilpotentError"),
    errors.UnstableCertificateError: (EXIT_UNSTABLE, "UnstableCertificate"),
    cli.MalformedInputError: (EXIT_MALFORMED, "MalformedInput"),
    errors.UndecidedCofactorError: (EXIT_UNDECIDED, "UndecidedCofactor"),
    errors.InvariantViolationError: (EXIT_INTERNAL, "InvariantViolationError"),
    ValueError: (EXIT_VALIDATION, "ValueError"),
}
RAISED = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", RAISED + [cli.MalformedInputError, ValueError],
                         ids=lambda cls: cls.__name__)
def test_every_error_class_reaches_stdout_typed(capsys, monkeypatch, cls):
    assert cls in ERROR_ANSWERS, f"{cls.__name__} has no expected answer"
    cert = ScanCertificate(2, None, 2, ((2, 3), (3, None)), False)
    exc = (cls(1, -2) if cls is errors.NegativeBettiError
           else cls(cert) if cls is errors.UnstableCertificateError else cls("boom"))

    def raise_exc(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_cld", raise_exc)
    code, out = run_cli(capsys, "cld", "--ell", "3", "--d", "2")
    assert (code, out["error"]["type"]) == ERROR_ANSWERS[cls]
    assert out["error"]["message"] == str(exc)
    if cls is errors.UnstableCertificateError:
        assert out["error"]["certificate"] == cert_to_json(cert)


def test_cd_unstable_exit_code(capsys):
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7",
                        "--scan-depth", "2")
    assert code == EXIT_UNSTABLE
    assert out["error"]["type"] == "UnstableCertificate"
    assert out["error"]["certificate"]["stable"] is False
    # 2, ..., 17 hold no primitive root mod 191: q = 191 has no witness
    code, out = run_cli(capsys, "cd", "--d", "190", "--scan-depth", "7")
    assert code == EXIT_UNSTABLE
    assert out["error"]["type"] == "UnstableCertificate"
    assert "191" not in out["error"]["certificate"]["witnesses"]
    assert out["error"]["certificate"]["candidate_primes"][-1] == 191


def test_variety_bound_family(capsys, tmp_path):
    path = write_input(tmp_path, {"family": {"kind": "projective_space", "n": 2}})
    code, out = run_cli(capsys, "variety-bound", "--input", path, "--p", "5")
    assert code == EXIT_OK
    assert out["d_vector"] == [0, 1]
    assert out["product"]["value"] == "2"


def test_variety_bound_k3(capsys, tmp_path):
    path = write_input(tmp_path,
                       {"family": {"kind": "hypersurface", "n": 2, "degrees": [4]}})
    code, out = run_cli(capsys, "variety-bound", "--input", path, "--p", "7")
    assert code == EXIT_OK
    assert out["d_vector"] == [6, 22]
    assert len(out["factors"]) == 2
    assert all(cert["stable"] for cert in out["certificates"])
    # product = C_6 * C_22, in factored form
    product = {int(p): e for p, e in out["product"]["factors"].items()}
    f6 = {int(p): e for p, e in out["factors"][0]["factors"].items()}
    f22 = {int(p): e for p, e in out["factors"][1]["factors"].items()}
    assert product == {p: f6.get(p, 0) + f22.get(p, 0)
                       for p in set(f6) | set(f22)}


def test_variety_bound_explicit_invariants(capsys, tmp_path):
    path = write_input(tmp_path, {"invariants": {"n": 1, "b": [2], "c": []}})
    code, out = run_cli(capsys, "variety-bound", "--input", path, "--p", "7")
    assert code == EXIT_OK
    assert out["product"]["value"] == "48"


def test_variety_bound_negative_betti_exit_code(capsys, tmp_path):
    path = write_input(tmp_path, {"invariants": {"n": 2, "b": [0, 1], "c": [5]}})
    code, out = run_cli(capsys, "variety-bound", "--input", path, "--p", "5")
    assert code == EXIT_VALIDATION
    assert out["error"]["type"] == "NegativeBettiError"


@pytest.mark.parametrize("invariants, failed", [
    ({"n": 2, "b": [0, 22], "c": [-3]}, "d_1 = 5 is odd"),
    ({"n": 2, "b": [1, 22], "c": [-4]}, "b_1 = 1 is odd"),
    ({"n": 2, "b": [0, 0], "c": [2]}, "b_0 = 1 > b_2 = 0"),
], ids=["odd-d_1", "odd-b_1", "b_2-below-b_0"])
@pytest.mark.parametrize("argv", [("variety-bound", "--p", "5"), ("descend",)],
                         ids=["variety-bound", "descend"])
def test_non_geometric_invariants_exit_code(capsys, tmp_path, invariants, failed, argv):
    path = write_input(tmp_path, {"invariants": invariants})
    code, out = run_cli(capsys, *argv, "--input", path)
    assert code == EXIT_VALIDATION
    assert out["error"]["type"] == "NonGeometricInvariantsError"
    assert out["error"]["message"].startswith(failed)


def test_malformed_input_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, "variety-bound", "--input", str(path), "--p", "5")
    assert code == EXIT_MALFORMED

    path2 = write_input(tmp_path, {"neither": 1})
    code, out = run_cli(capsys, "variety-bound", "--input", path2, "--p", "5")
    assert code == EXIT_MALFORMED


def test_deeply_nested_json_is_malformed(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text('{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    start = time.perf_counter()
    code, out = run_cli(capsys, "wd-decompose", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_MALFORMED
    assert out["error"]["type"] == "MalformedInput"


@pytest.mark.parametrize("family", [
    {"kind": "projective_space", "n": 10 ** 9},
    {"kind": "projective_space", "n": 513},
    {"kind": "hypersurface", "n": 2, "degrees": [2 ** 64]},
])
def test_families_past_the_caps_are_refused_at_once(capsys, tmp_path, family):
    path = write_input(tmp_path, {"family": family})
    start = time.perf_counter()
    code, out = run_cli(capsys, "invariants", "--input", path)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert out["error"]["type"] == "ValidationError"


def test_invariants_command(capsys, tmp_path):
    path = write_input(tmp_path,
                       {"family": {"kind": "hypersurface", "n": 2, "degrees": [4]}})
    code, out = run_cli(capsys, "invariants", "--input", path)
    assert code == EXIT_OK
    assert out["invariants"] == {"n": 2, "b": [0, 22], "c": [-4]}


def test_invariants_round_trip(capsys, tmp_path):
    # output of `invariants` feeds straight back into `variety-bound`
    path = write_input(tmp_path, {"family": {"kind": "projective_space", "n": 3}})
    _, out = run_cli(capsys, "invariants", "--input", path)
    path2 = write_input(tmp_path, out, name="roundtrip.json")
    code, out2 = run_cli(capsys, "variety-bound", "--input", path2, "--p", "5")
    assert code == EXIT_OK
    assert out2["d_vector"] == [0, 1, 0]


def test_descend_command(capsys, tmp_path):
    path = write_input(tmp_path, {"family": {"kind": "projective_space", "n": 3}})
    code, out = run_cli(capsys, "descend", "--input", path, "--steps", "2")
    assert code == EXIT_OK
    assert out["steps"] == [{"n": 2, "b": [0, 1], "c": [2]},
                            {"n": 1, "b": [0], "c": []}]

    path = write_input(tmp_path,
                       {"family": {"kind": "hypersurface", "n": 2, "degrees": [4]}})
    code, out = run_cli(capsys, "descend", "--input", path)
    assert out["steps"] == [{"n": 1, "b": [6], "c": []}]


def test_descend_curve_is_error(capsys, tmp_path):
    path = write_input(tmp_path, {"invariants": {"n": 1, "b": [2], "c": []}})
    code, out = run_cli(capsys, "descend", "--input", path)
    assert code == EXIT_VALIDATION


def test_wd_decompose(capsys, tmp_path):
    path = write_input(tmp_path, {"matrix": [["1", "1"], ["0", "1"]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", "1")
    assert code == EXIT_OK
    assert out["r"] == [["1", "0"], ["0", "1"]]
    assert out["n"] == [["0", "1"], ["0", "0"]]

    path = write_input(tmp_path, {"matrix": [["-1", "1"], ["0", "-1"]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", "1")
    assert out["r"] == [["-1", "0"], ["0", "-1"]]
    assert out["n"] == [["0", "-1"], ["0", "0"]]

    path = write_input(tmp_path, {"matrix": [["1", "2"], ["0", "1"]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", "2")
    assert out["n"] == [["0", "1"], ["0", "0"]]

    # JSON integer entries read like their strings
    path = write_input(tmp_path, {"matrix": [[1, 2], [0, 1]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", "2")
    assert code == EXIT_OK
    assert out["n"] == [["0", "1"], ["0", "0"]]


def test_wd_decompose_rational_entries(capsys, tmp_path):
    path = write_input(tmp_path, {"matrix": [["1", "1/2"], ["0", "1"]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", "1/3")
    assert code == EXIT_OK
    assert out["n"] == [["0", "3/2"], ["0", "0"]]
    assert out["tau"] == "1/3"


@pytest.mark.parametrize("matrix, tau", [
    ([["0", "-3/2"], ["2/3", "0"]], "-3/2"),
    ([["0", "5"], ["-1/5", "0"]], "5"),
    ([["0", "1/2"], ["-2", "0"]], "1"),
])
def test_wd_decompose_round_trips_rational_entries(capsys, tmp_path, matrix, tau):
    # M of order 4: r = M and N = 0
    path = write_input(tmp_path, {"matrix": matrix})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, f"--tau={tau}")
    assert code == EXIT_OK
    assert out == {"r": matrix, "n": [["0", "0"], ["0", "0"]], "tau": tau}


@pytest.mark.parametrize("tau", [["--tau", "-1/3"], ["--tau=-1/3"]])
def test_a_negative_rational_tau_is_a_value_after_a_space_too(capsys, tmp_path, tau):
    path = write_input(tmp_path, {"matrix": [["-1", "1"], ["0", "-1"]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, *tau)
    assert code == EXIT_OK
    assert out == {"r": [["-1", "0"], ["0", "-1"]], "n": [["0", "3"], ["0", "0"]],
                   "tau": "-1/3"}


def test_wd_decompose_writes_entries_past_the_int_digit_limit(capsys, tmp_path):
    # N[0][1] = 10^4000 / 10^-4000 has 8001 digits, past the 4300 that
    # str() converts by default
    big = "1" + "0" * 4000
    path = write_input(tmp_path, {"matrix": [[1, big], [0, 1]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", "1/" + big)
    assert code == EXIT_OK
    assert out == {"r": [["1", "0"], ["0", "1"]],
                   "n": [["0", "1" + "0" * 8000], ["0", "0"]], "tau": "1/" + big}


def test_matrix_shape_and_size_are_checked_before_any_entry(capsys, tmp_path):
    path = write_input(tmp_path, {"matrix": [[0] * 64] * 65})
    code, out = run_cli(capsys, "wd-decompose", "--input", path)
    assert code == EXIT_MALFORMED
    assert out["error"] == {"type": "MalformedInput", "message":
                            "bad matrix payload: matrix must be square and nonempty"}
    # "x" would be malformed input if any entry were read
    for entry in (0, "x"):
        path = write_input(tmp_path, {"matrix": [[entry] * 65] * 65})
        start = time.perf_counter()
        code, out = run_cli(capsys, "wd-decompose", "--input", path)
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_VALIDATION and out["error"]["type"] == "ValidationError"
        assert "MAX_MATRIX_DIM = 64" in out["error"]["message"]
    # at the cap the matrix is read, and refused for what it is
    path = write_input(tmp_path, {"matrix": [[0] * 64] * 64})
    code, out = run_cli(capsys, "wd-decompose", "--input", path)
    assert code == EXIT_VALIDATION and out["error"]["type"] == "SingularInputError"


def test_wd_decompose_signed_and_fraction_entries(capsys, tmp_path):
    path = write_input(tmp_path, {"matrix": [["-1", "3/2"], ["0", "-1"]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path)
    assert code == EXIT_OK
    assert out["r"] == [["-1", "0"], ["0", "-1"]]
    assert out["n"] == [["0", "-3/2"], ["0", "0"]]


@pytest.mark.parametrize("entry, tau", [
    ("1e3000000", "1"),  # Fraction(str) would expand 10^3000000
    ("1e999999999", "1"),
    ("0.5", "1"),
    ("1", "1e5"),
    ("+-1", "1"),
    (" 1", "1"),
])
def test_rational_strings_are_digits_over_digits(capsys, tmp_path, entry, tau):
    path = write_input(tmp_path, {"matrix": [[entry, "0"], ["0", "1"]]})
    start = time.perf_counter()
    code, out = run_cli(capsys, "wd-decompose", "--input", path, "--tau", tau)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_MALFORMED
    bad = entry if tau == "1" else tau
    assert out["error"]["type"] == "MalformedInput"
    assert out["error"]["message"].endswith(f"got {json.dumps(bad)}")


def test_rational_parts_obey_the_int_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    path = write_input(tmp_path, {"matrix": [["1/" + "7" * (limit + 1)]]})
    code, out = run_cli(capsys, "wd-decompose", "--input", path)
    assert code == EXIT_MALFORMED
    assert "limit" in out["error"]["message"]


@pytest.mark.parametrize("command", ["cd", "refined", "variety-bound"])
def test_scan_depth_help_names_the_library_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    assert f"number of primes per gcd scan (default {DEFAULT_SCAN_DEPTH})" in text


def test_refined_command(capsys):
    code, out = run_cli(capsys, "refined", "--d", "2", "--p", "3")
    assert code == EXIT_OK
    assert out["tame_set"] == [1, 2, 3, 4, 6]
    assert out["tame_max"] == 6
    assert out["tame_lcm"] == 12
    assert out["wild_part"]["value"] == "3"


def test_cache_transparency(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "scan.cache"
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and "cached" not in cold
    # an entry holds the certificate; a hit computes, then finds it stored
    (entry,) = json.loads(cache.read_text())["entries"].values()
    assert entry["payload"] == {"certificate": cold["certificate"]}
    code, warm = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and warm.pop("cached") is True
    assert warm == cold


@pytest.mark.parametrize("text", [
    "garbage!!", "[]", "null", '"x"', '{"entries": []}', '{"entries": "x"}',
    "[" * 100000 + "]" * 100000,
], ids=["garbage", "list", "null", "string", "entries-list", "entries-string",
        "nested"])
def test_cache_corruption_is_cold_not_fatal(capsys, tmp_path, monkeypatch, text):
    cache = tmp_path / "scan.cache"
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    run_cli(capsys, "cd", "--d", "2", "--p", "7")
    cache.write_text(text)
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK
    assert "cached" not in out


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "env.cache")
    monkeypatch.setenv("MONOBOUND_CACHE", cache)
    run_cli(capsys, "cd", "--d", "1", "--p", "5")
    code, out = run_cli(capsys, "cd", "--d", "1", "--p", "5")
    assert out.get("cached") is True


def test_cache_entries_with_an_expanded_value_still_load(capsys, tmp_path,
                                                         monkeypatch):
    # entries written by earlier versions hold a "value" too; a hit ignores
    # it, also one that is wrong or that no FactoredInt holds
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    cache = tmp_path / "scan.cache"
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    for value in ({"factors": {"2": 4, "3": 1}, "value": "48"},
                  {"factors": {"2": 9}}, {"factors": {"4": 2, "3": 1}}, "x"):
        cache_file(cache, ScanCache.key(2, 7, DEFAULT_SCAN_DEPTH),
                   {"value": value, "certificate": cold["certificate"]})
        code, warm = run_cli(capsys, "cd", "--d", "2", "--p", "7")
        assert code == EXIT_OK and warm.pop("cached") is True and warm == cold


def test_cache_key_includes_depth(tmp_path):
    assert ScanCache.key(2, 7, 100) != ScanCache.key(2, 7, 200)
    assert ScanCache.key(2, 7, 100) != ScanCache.key(3, 7, 100)


def cache_file(path, key, payload, checksum=None):
    checksum = cli._checksum(payload) if checksum is None else checksum
    path.write_text(json.dumps({"version": monobound.__version__, "entries": {
        key: {"checksum": checksum, "payload": payload}}}))


@pytest.mark.parametrize("payload", [
    {"value": {"factors": {"2": 4, "3": 1}}},
    "x",
    # the witnesses of cd --d 2 --p 7 are {"2": 3, "3": 2}
    {"witnesses": {"2": 3, "3": "2"}},
    {"witnesses": {"2": 3, "3": 2.0}},
    {"witnesses": {"2": True, "3": 2}},
    {"witnesses": {"2": 3}},
    {"witnesses": {"2": 3, "3": 2, "4": 3}},
    {"witnesses": {"-1": 2, "2": 3, "3": 2}},
    {"witnesses": {"1": 2, "2": 3, "3": 2}},
    {"witnesses": {"2": 3, "three": 2}},
    {"witnesses": {"2": 3, "03": 2}},
    {"witnesses": {"3": 2, "2": 3}},
    {"witnesses": {"2": 1, "3": 2}},
    {"witnesses": {"2": -7, "3": 2}},
], ids=["no-certificate", "string", "witness-string", "witness-float",
        "witness-bool", "witness-missing", "witness-4", "witness-minus-1",
        "witness-1", "witness-key-text", "witness-key-03", "witness-order",
        "two-witness-1", "two-witness-negative"])
def test_cache_entry_that_does_not_decode_is_a_miss(capsys, tmp_path, monkeypatch,
                                                    payload):
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    if isinstance(payload, dict) and "witnesses" in payload:
        # only the witnesses are wrong
        payload = {"certificate": dict(cold["certificate"], **payload)}
    cache = tmp_path / "scan.cache"
    key = ScanCache.key(2, 7, DEFAULT_SCAN_DEPTH)
    cache_file(cache, key, payload)
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and out == cold
    # the entry is overwritten, and the next call reads it
    (stored,) = json.loads(cache.read_text())["entries"].values()
    assert stored["payload"] == {"certificate": cold["certificate"]}
    code, warm = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and warm.pop("cached") is True and warm == cold


@pytest.mark.parametrize("where", ["missing", "directory", "under-a-file"])
def test_cache_store_that_fails_keeps_the_answer(capsys, tmp_path, monkeypatch,
                                                 where):
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    if where == "missing":
        cache = tmp_path / "missing" / "scan.cache"
    elif where == "directory":
        cache = tmp_path / "scan.cache"
        cache.mkdir()
    else:
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "scan.cache"
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    for _ in range(2):
        code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
        assert code == EXIT_OK and out == cold
    assert list(tmp_path.rglob("*.tmp")) == []  # no temporary file is left


def test_cache_from_sha256_keys_reads_cold_and_is_rewritten(capsys, tmp_path,
                                                            monkeypatch):
    # entries keyed and checked by sha256 hex digests, as written before
    # plain-text keys and CRC-32 checksums
    import hashlib
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    payload = {"value": {"factors": {"2": 4, "3": 1}},
               "certificate": cold["certificate"]}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    old_key = hashlib.sha256(
        f"{monobound.__version__}:cd:2:7:{DEFAULT_SCAN_DEPTH}".encode()).hexdigest()
    cache = tmp_path / "scan.cache"
    cache_file(cache, old_key, payload, hashlib.sha256(blob.encode()).hexdigest())
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and out == cold
    assert list(json.loads(cache.read_text())["entries"]) == [
        ScanCache.key(2, 7, DEFAULT_SCAN_DEPTH)]
    code, warm = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and warm.pop("cached") is True and warm == cold


def test_every_digit_substitution_in_a_stored_payload_reads_cold(capsys, tmp_path,
                                                                monkeypatch):
    cache = tmp_path / "scan.cache"
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    run_cli(capsys, "cd", "--d", "16", "--p", "5")
    text = cache.read_text()
    key = ScanCache.key(16, 5, DEFAULT_SCAN_DEPTH)
    assert ScanCache(str(cache)).get(key) is not None
    start = text.index('"payload"')  # the last field of the one entry
    positions = [i for i in range(start, len(text)) if text[i].isdigit()]
    assert len(positions) > 30
    for i in positions:
        for digit in "0123456789".replace(text[i], ""):
            cache.write_text(text[:i] + digit + text[i + 1:])
            assert ScanCache(str(cache)).get(key) is None, (i, digit)


cd_requests = st.tuples(st.integers(1, 40), st.sampled_from([None, 2, 3, 5, 7]),
                        st.sampled_from([100, 200]))


@given(cd_requests, cd_requests)
@example((2, 7, DEFAULT_SCAN_DEPTH), (3, 7, DEFAULT_SCAN_DEPTH))
@settings(max_examples=50, deadline=None)
def test_cache_serves_an_entry_only_to_the_request_it_names(request, stored):
    # the entry under the request's key holds the payload of another
    # request, with a matching checksum
    value, cert = c_d(*stored)
    d, p, depth = request
    argv = ["cd", "--d", str(d), "--scan-depth", str(depth)]
    argv += ["--p", str(p)] if p is not None else []
    code, computed = call_main(argv)
    assert code == EXIT_OK
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "scan.cache"
        cache_file(cache, ScanCache.key(*request), {
            "value": factored_to_json(value, 0), "certificate": cert_to_json(cert)})
        code, text = call_main(argv, cache=str(cache))
        out = json.loads(text)
        assert code == EXIT_OK
        assert ("cached" in out) == (request == stored)
        out.pop("cached", None)
        assert out == json.loads(computed)
        # a misplaced entry was overwritten with the request's own
        (entry,) = json.loads(cache.read_text())["entries"].values()
        assert entry["payload"]["certificate"] == out["certificate"]
        code, text = call_main(argv, cache=str(cache))
        warm = json.loads(text)
        assert code == EXIT_OK and warm.pop("cached") is True and warm == out


@given(cd_requests, st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]),
                                    st.integers(-3, 3), min_size=1))
@settings(max_examples=50, deadline=None)
def test_a_hit_prints_the_value_its_certificate_gives(request, shifts):
    # the entry holds the request's own certificate, but a "value" whose
    # exponents are shifted, with a matching checksum
    value, cert = c_d(*request)
    exponents = dict(value.factors)
    for q, shift in shifts.items():
        exponents[q] = exponents.get(q, 0) + shift
    d, p, depth = request
    argv = ["cd", "--d", str(d), "--scan-depth", str(depth)]
    argv += ["--p", str(p)] if p is not None else []
    code, computed = call_main(argv)
    assert code == EXIT_OK
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "scan.cache"
        cache_file(cache, ScanCache.key(*request), {
            "value": factored_to_json(FactoredInt.from_dict(exponents), 0),
            "certificate": cert_to_json(cert)})
        code, text = call_main(argv, cache=str(cache))
    out = json.loads(text)
    assert code == EXIT_OK and out.pop("cached") is True
    assert out == json.loads(computed)


def test_cached_table_is_the_computed_table_and_one_line(capsys, tmp_path,
                                                         monkeypatch):
    # a hit prints the certificate in the key order it was stored in
    monkeypatch.setenv("MONOBOUND_CACHE", str(tmp_path / "scan.cache"))
    argv = ["cd", "--d", "12", "--p", "5", "--format", "table"]
    assert main(argv) == EXIT_OK
    cold = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    warm = capsys.readouterr().out
    assert "  witnesses:\n" in cold and "cached" not in cold
    assert warm == cold + "cached: True\n"


@pytest.mark.parametrize("field, value", [
    # the order's 2-valuation is 5 at 23 and 4 at 3: read off 23, c_2 would be 96
    ("witnesses", {"2": 23, "3": 2}),
    ("stable", False),
], ids=["two-witness-23", "unstable"])
def test_a_stored_certificate_other_than_the_computed_one_is_a_miss(
        capsys, tmp_path, monkeypatch, field, value):
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert cold["value"]["value"] == "48" and cold["certificate"]["stable"] is True
    cache = tmp_path / "scan.cache"
    cache_file(cache, ScanCache.key(2, 7, DEFAULT_SCAN_DEPTH),
               {"certificate": dict(cold["certificate"], **{field: value})})
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and out == cold
    (stored,) = json.loads(cache.read_text())["entries"].values()
    assert stored["payload"] == {"certificate": cold["certificate"]}
    code, warm = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and warm.pop("cached") is True and warm == cold


@pytest.mark.parametrize("d, p, depth", [
    (-5, None, DEFAULT_SCAN_DEPTH), (2, 4, DEFAULT_SCAN_DEPTH), (2, 7, 1),
    (2, None, 3000000),
], ids=["d-negative", "p-composite", "depth-1", "depth-past-the-table"])
def test_a_request_the_library_refuses_is_refused_with_an_entry_too(
        capsys, tmp_path, monkeypatch, d, p, depth):
    # an entry under the request's key whose certificate names the request
    argv = ["cd", "--d", str(d), "--scan-depth", str(depth)]
    argv += ["--p", str(p)] if p is not None else []
    code, cold = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION and cold["error"]["type"] == "ValidationError"
    cache = tmp_path / "scan.cache"
    cache_file(cache, ScanCache.key(d, p, depth), {"certificate": {
        "d": d, "excluded_p": p, "primes_scanned": depth,
        "candidate_primes": [2, 3] if d > 0 else [],
        "witnesses": {"2": 3, "3": 2} if d > 0 else {}, "stable": True}})
    text = cache.read_text()
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION and out == cold
    assert cache.read_text() == text  # neither read as an answer nor rewritten


def test_an_entry_without_a_payload_is_a_miss(capsys, tmp_path, monkeypatch):
    # its checksum is that of {}, the payload the load assumes when none is stored
    code, cold = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    cache = tmp_path / "scan.cache"
    cache.write_text(json.dumps({"version": monobound.__version__, "entries": {
        ScanCache.key(2, 7, DEFAULT_SCAN_DEPTH): {"checksum": cli._checksum({})}}}))
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache))
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and out == cold
    code, warm = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK and warm.pop("cached") is True and warm == cold


def near_values(old):
    """JSON values equal to old in Python but not in JSON, and others close by."""
    near = [old, str(old), [old], {"0": old}, None]
    if type(old) is int:
        near += [float(old), old + 1, -old, old == 1]
    elif type(old) is bool:
        near += [int(old), not old]
    return st.sampled_from(near)


@given(cd_requests, st.data())
@settings(max_examples=100, deadline=None)
def test_a_stored_certificate_never_changes_what_cd_prints(request, data):
    # the request's own certificate with one field or one witness replaced
    # by any JSON value, under a matching checksum: cd prints its uncached
    # stdout, marked "cached" exactly when the replacement is the same JSON
    _, cert = c_d(*request)
    stored = cert_to_json(cert)
    slots = [(stored, k) for k in stored]
    slots += [(stored["witnesses"], q) for q in stored["witnesses"]]
    target, slot = data.draw(st.sampled_from(slots))
    old = target[slot]
    new = data.draw(near_values(old) | json_values(st.integers()))
    target[slot] = new
    d, p, depth = request
    argv = ["cd", "--d", str(d), "--scan-depth", str(depth)]
    argv += ["--p", str(p)] if p is not None else []
    code, computed = call_main(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "scan.cache"
        cache_file(cache, ScanCache.key(*request), {"certificate": stored})
        warm_code, text = call_main(argv, cache=str(cache))
    assert warm_code == code == EXIT_OK
    marked = computed.replace("{\n", '{\n  "cached": true,\n', 1)
    assert text == (marked if json.dumps(new) == json.dumps(old) else computed)


def test_no_value_expansion(capsys):
    code, out = run_cli(capsys, "cld", "--ell", "3", "--d", "2",
                        "--value-digit-limit", "0")
    assert code == EXIT_OK
    assert out["order"] == {"factors": {"2": 4, "3": 1}}


def test_refined_prints_a_tame_lcm_beyond_the_int_digit_limit(capsys):
    # lcm{i : phi(i) <= 10000} has 4350 digits, past the default limit of
    # 4300 on int-to-str conversion
    old = sys.get_int_max_str_digits()
    code = main(["refined", "--d", "10000", "--p", "5"])
    json_text = capsys.readouterr().out
    code_table = main(["refined", "--d", "10000", "--p", "5", "--format", "table"])
    table_text = capsys.readouterr().out
    assert code == code_table == EXIT_OK
    assert sys.get_int_max_str_digits() == old  # restored after rendering
    with cli._lifted_int_limit():
        out = json.loads(json_text)
        assert out["tame_lcm"] == math.lcm(*out["tame_set"])
        assert len(str(out["tame_lcm"])) == 4350
        assert f"tame_lcm: {out['tame_lcm']}\n" in table_text


BIG = "1" + "0" * 4000


@pytest.mark.parametrize("argv, stdin, expected", [
    (["refined", "--d", "10000", "--p", "5"], "", EXIT_OK),
    (["wd-decompose", "--tau", "1/" + BIG, "--format", "table"],
     json.dumps({"matrix": [[1, BIG], [0, 1]]}), EXIT_OK),
    (["cd", "--d", "2", "--p", "-3"], "", EXIT_VALIDATION),
    (["cd", "--d", "5", "--scan-depth", "2"], "", EXIT_UNSTABLE),
    (["wd-decompose"], json.dumps({"matrix": [["1/" + "7" * 5001]]}), EXIT_MALFORMED),
    (["cld", "--ell", "3", "--d", "two"], "", None),  # a usage error
], ids=["answer", "table-answer", "validation", "unstable", "malformed", "usage"])
def test_main_leaves_the_int_digit_limit_as_it_found_it(argv, stdin, expected):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        if expected is None:
            with pytest.raises(SystemExit) as exc:
                call_main(argv, stdin)
            assert exc.value.code == 2
        else:
            assert call_main(argv, stdin)[0] == expected
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


def test_lifted_int_limit_is_restored_when_the_writer_raises():
    old = sys.get_int_max_str_digits()
    with pytest.raises(RuntimeError):
        with cli._lifted_int_limit():
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError("a writer failed")
    assert sys.get_int_max_str_digits() == old


def table_block(text, key):
    """The indented lines under the top-level line "key:" of table text."""
    lines = text.splitlines()
    start = lines.index(f"{key}:") + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith(" ")),
               len(lines))
    return lines[start:end]


@given(st.integers(1200, 1400), st.integers(4000, 4600))
@settings(max_examples=50, deadline=None)
def test_cd_value_is_written_exactly_up_to_the_digit_limit(d, limit):
    # c_d(d, 5) has 4011 digits at d = 1200 and 4381 at d = 1300
    argv = ["cd", "--d", str(d), "--p", "5", "--value-digit-limit", str(limit)]
    code, text = call_main(argv)
    code_table, table = call_main(argv + ["--format", "table"])
    assert code == code_table == EXIT_OK
    out = json.loads(text)["value"]
    product = math.prod(int(p) ** e for p, e in out["factors"].items())
    with cli._lifted_int_limit():
        assert ("value" in out) == (len(str(product)) <= limit)
        if "value" in out:
            assert int(out["value"]) == product
    assert table_block(table, "value") == (
        ["  factors:"] + [f"    {p}: {e}" for p, e in
                          sorted(out["factors"].items(), key=lambda pe: int(pe[0]))]
        + ([f"  value: {out['value']}"] if "value" in out else []))


def test_huge_betti_number_is_refused_at_once(capsys, tmp_path):
    # d = 10^12 is past the prime table's limit: exit 2 before any scan
    path = write_input(tmp_path, {"invariants": {"n": 1, "b": [10 ** 12], "c": []}})
    start = time.perf_counter()
    code, out = run_cli(capsys, "variety-bound", "--p", "5", "--input", path)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert out["error"]["type"] == "ValidationError"
    assert "SIEVE_LIMIT" in out["error"]["message"]


def test_table_format(capsys):
    code = main(["cld", "--ell", "3", "--d", "2", "--format", "table"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "order:" in out and '"2": 4' not in out.split("order:")[0]


@pytest.mark.parametrize("n, degree, p", [(2, 4, 7), (3, 5, 2), (3, 5, 5), (6, 8, 5)])
def test_variety_bound_is_the_library_bound(capsys, tmp_path, n, degree, p):
    # K3, the quintic threefold and the octic sixfold
    inv = invariants_of(FamilySpec("hypersurface", n, (degree,)))
    report = bound(inv, p)
    path = write_input(tmp_path, {"family": {"kind": "hypersurface", "n": n,
                                             "degrees": [degree]}})
    start = time.perf_counter()
    code, out = run_cli(capsys, "variety-bound", "--input", path, "--p", str(p))
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_OK
    assert out == {
        "invariants": invariants_to_json(inv),
        "p": p,
        "h": len(report.factors),
        "d_vector": list(report.d_vector.entries),
        "factors": [factored_to_json(f, DEFAULT_VALUE_DIGIT_LIMIT)
                    for f in report.factors],
        "product": factored_to_json(report.product, DEFAULT_VALUE_DIGIT_LIMIT),
        "certificates": [cert_to_json(c) for c in report.certificates],
    }


@pytest.mark.parametrize("d, p", [(1, 5), (2, 3), (6, 2), (22, 7)])
def test_refined_is_the_library_refined_bound(capsys, d, p):
    rb = refined_bound(d, p)
    code, out = run_cli(capsys, "refined", "--d", str(d), "--p", str(p))
    assert code == EXIT_OK
    assert out == {
        "d": d, "p": p,
        "tame_set": list(rb.tame_set),
        "tame_max": rb.tame_max,
        "tame_lcm": rb.tame_lcm,
        "wild_part": factored_to_json(rb.wild_part, DEFAULT_VALUE_DIGIT_LIMIT),
        "certificate": cert_to_json(rb.certificate),
    }


def test_refined_d0_is_a_validation_error(capsys):
    code, out = run_cli(capsys, "refined", "--d", "0", "--p", "5")
    assert code == EXIT_VALIDATION
    assert out["error"] == {"type": "ValidationError",
                            "message": "refined bound needs d >= 1, got 0"}


def test_only_cd_touches_the_scan_cache(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("MONOBOUND_CACHE", str(cache_dir / "scan.cache"))
    family = write_input(tmp_path, {"family": {"kind": "hypersurface", "n": 2,
                                               "degrees": [4]}})
    matrix = write_input(tmp_path, {"matrix": [["-1", "1"], ["0", "-1"]]},
                         name="matrix.json")
    for argv in (("cld", "--ell", "3", "--d", "2"),
                 ("invariants", "--input", family),
                 ("wd-decompose", "--input", matrix),
                 ("descend", "--input", family),
                 ("variety-bound", "--input", family, "--p", "7"),
                 ("refined", "--d", "2", "--p", "3")):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK and "cached" not in out
        assert list(cache_dir.iterdir()) == []
    run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert [f.name for f in cache_dir.iterdir()] == ["scan.cache"]


@pytest.mark.parametrize("argv", [
    ("invariants", "--scan-depth", "5"),
    ("descend", "--value-digit-limit", "10"),
    ("wd-decompose", "--value-digit-limit", "10"),
    ("variety-bound", "--p", "5", "--tau", "2"),
    ("refined", "--d", "2", "--p", "3", "--steps", "2"),
    ("cld", "--ell", "3", "--d", "2", "--scan-depth", "5"),
])
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("invariants", "--scan-depth", "5"), "unrecognized arguments: --scan-depth 5"),
    (("variety-bound",), "the following arguments are required: --p"),
    (("cld", "--ell", "3", "--d", "two"), "argument --d: invalid int value: 'two'"),
    # --value-digit-limit 0 and $MONOBOUND_CACHE are the one way to say these
    (("cld", "--ell", "3", "--d", "2", "--no-value-expansion"),
     "unrecognized arguments: --no-value-expansion"),
    (("cd", "--d", "2", "--p", "7", "--cache", "scan.cache"),
     "unrecognized arguments: --cache scan.cache"),
])
def test_usage_errors_print_a_json_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert json.loads(captured.out) == {
        "error": {"type": "UsageError", "message": message}}
    assert captured.err.startswith("usage: monobound")
    assert f"error: {message}" in captured.err


def test_help_and_version_print_no_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{monobound.__version__}\n"
    with pytest.raises(SystemExit) as exc:
        main(["cld", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: monobound cld") and "error" not in out


@pytest.mark.parametrize("argv, payload, message", [
    (("variety-bound", "--p", "7"),
     {"invariants": {"n": 2, "b": [0, 22.9], "c": [-4.7]}},
     "invariants.b must be an array of integers, got [0, 22.9]"),
    (("descend",), {"invariants": {"n": 2, "b": [0, 22], "c": ["-4"]}},
     'invariants.c must be an array of integers, got ["-4"]'),
    (("invariants",), {"family": {"kind": "hypersurface", "n": 2.9, "degrees": [4]}},
     "family.n must be an integer, got 2.9"),
    (("invariants",), {"family": {"kind": "hypersurface", "n": True, "degrees": [4]}},
     "family.n must be an integer, got true"),
    (("invariants",), {"family": {"kind": "hypersurface", "n": 2, "degrees": "4"}},
     'family.degrees must be an array of integers, got "4"'),
    (("wd-decompose",), {"matrix": ["12", "34"]},
     'bad matrix payload: need an array of row arrays, got ["12", "34"]'),
    (("wd-decompose",), {"matrix": [[0.5, 0], [0, 2]]},
     "bad matrix payload: entries must be integers or strings, got 0.5"),
    (("invariants",), {"family": {"kind": 5, "n": 2}},
     "family.kind must be a string, got 5"),
])
def test_non_integer_payloads_are_malformed(capsys, tmp_path, argv, payload, message):
    path = write_input(tmp_path, payload)
    code, out = run_cli(capsys, *argv, "--input", path)
    assert code == EXIT_MALFORMED
    assert out["error"] == {"type": "MalformedInput", "message": message}


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_descend_steps_below_one_is_a_validation_error(capsys, tmp_path, steps):
    path = write_input(tmp_path, {"family": {"kind": "projective_space", "n": 3}})
    code, out = run_cli(capsys, "descend", "--input", path, "--steps", steps)
    assert code == EXIT_VALIDATION
    assert out["error"] == {"type": "ValidationError",
                            "message": f"steps must be >= 1, got {steps}"}


def test_scan_depth_below_two_is_a_validation_error(capsys):
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7", "--scan-depth", "1")
    assert code == EXIT_VALIDATION
    assert out["error"] == {"type": "ValidationError",
                            "message": "scan_depth must be >= 2, got 1"}


def test_scan_depth_beyond_the_prime_table_is_a_validation_error(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "cd", "--d", "2", "--scan-depth", "3000000")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert out["error"]["type"] == "ValidationError"
    assert out["error"]["message"].startswith("scan_depth must be <= 2063688")


def test_scan_depth_default_is_the_library_default(capsys):
    code, out = run_cli(capsys, "cd", "--d", "2", "--p", "7")
    assert code == EXIT_OK
    assert out["scan_depth"] == DEFAULT_SCAN_DEPTH
    with pytest.raises(SystemExit):
        main(["cd", "--help"])
    # the help text names the default without importing compat_bounds
    assert f"(default {DEFAULT_SCAN_DEPTH})" in " ".join(capsys.readouterr().out.split())


def cli_env():
    env = dict(os.environ)
    src = str(Path(monobound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to write_end now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monobound.cli", "cld", "--ell", "3", "--d", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


def test_large_entry_matrix_answers_in_bounded_time():
    # an 8 x 8 matrix of random 4000-digit integers is not quasi-unipotent;
    # its integer char poly says so well inside the timeout
    rng = random.Random(8)
    payload = {"matrix": [[str(rng.randrange(-10 ** 4000, 10 ** 4000)) for _ in range(8)]
                          for _ in range(8)]}
    proc = subprocess.run(
        [sys.executable, "-m", "monobound.cli", "wd-decompose"],
        input=json.dumps(payload), capture_output=True, text=True, env=cli_env(),
        timeout=60)
    assert proc.returncode == EXIT_VALIDATION
    assert json.loads(proc.stdout)["error"]["type"] == "PreconditionViolatedError"


# Every input gets an answer or a typed error: for variety-bound,
# invariants, descend and wd-decompose a well-formed or mutated payload (any
# JSON value in any slot, a slot missing, extra keys) on stdin; for cld, cd
# and refined option values in and out of their domains.  Ints stay small
# (n <= 4, degrees <= 6 and at most two of them, matrices up to 4 x 4 with
# entries <= 10^3, ell <= 13, d <= 60), so that no answer needs a long scan.

def json_values(ints):
    scalars = (st.none() | st.booleans() | ints | st.text(max_size=4)
               | st.floats(allow_nan=False, allow_infinity=False))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=2)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                        max_leaves=4)


def mostly(usual, other):
    """usual, and now and then other; shrinking leads back to usual."""
    return st.integers(0, 3).flatmap(lambda i: usual if i < 3 else other)


def mutated_object(fields, ints):
    """An object with the given field strategies, any slot holding any JSON
    value instead, now and then one slot missing, and extra keys."""
    keys = sorted(fields)
    slots = st.fixed_dictionaries({k: mostly(fields[k], json_values(ints)) for k in keys})
    extra = st.dictionaries(st.text(max_size=3), json_values(ints), max_size=2)
    missing = mostly(st.just(()), st.sampled_from(keys).map(lambda k: (k,)))
    return st.builds(lambda obj, more, gone: {k: v for k, v in {**more, **obj}.items()
                                              if k not in gone},
                     slots, extra, missing)


small = st.integers(-4, 4)
families = mutated_object({
    "kind": st.sampled_from(["projective_space", "hypersurface",
                             "complete_intersection"]),
    "n": st.integers(1, 4),
    "degrees": st.lists(st.integers(1, 6), max_size=2),
}, small)
entries = st.integers(-10 ** 3, 10 ** 3)
invariants = st.integers(1, 4).flatmap(lambda n: mutated_object({
    "n": st.just(n),
    "b": st.lists(st.integers(0, 10 ** 3), min_size=n, max_size=n),
    "c": st.lists(entries, min_size=n - 1, max_size=n - 1),
}, entries))


def squares(values):
    return st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(values, min_size=k, max_size=k), min_size=k, max_size=k))


def quasi_unipotent(seed, k):
    M, _ = random_quasi_unipotent(random.Random(seed), k)
    return [[int(x) for x in row] for row in M.rows]  # conjugated by a unimodular P


rationals = entries | st.builds(lambda a, b: f"{a}/{b}", entries, st.integers(1, 10 ** 3))
matrices = mostly(
    squares(rationals) | st.builds(quasi_unipotent, st.integers(0, 10 ** 6),
                                   st.integers(1, 4)).filter(
        lambda rows: all(abs(x) <= 10 ** 3 for row in rows for x in row)),
    squares(rationals | json_values(entries)) | json_values(entries))


def payload(key, values):
    return mostly(mutated_object({key: values}, small), json_values(small))


def command(name, options, stdin=st.none()):
    """argv: the subcommand and one pick from each option list (None
    picks nothing), each option and its value written as one token
    "--name=value" or as two; and a stdin payload."""
    def argv(picked, split):
        return [name] + [part for o in picked if o
                         for part in (o.split("=", 1) if split else [o])]
    return st.tuples(st.builds(argv, st.tuples(*map(st.sampled_from, options)),
                               st.booleans()), stdin)


formats = [None, "--format=json", "--format=table"]
digit_limits = [None] + [f"--value-digit-limit={n}"
                         for n in (-1, 0, 1, 4299, 4300, 4301, 10 ** 6)]
ps = [f"--p={p}" for p in (2, 3, 5, 7, 0, 1, 4, -3)]
scan_depths = [None] + [f"--scan-depth={s}" for s in (-1, 0, 1, 2, 5, 100, 3000000)]


sections = payload("family", families) | payload("invariants", invariants)
cli_inputs = st.one_of(
    command("variety-bound", [ps, [None] + [f"--h={h}" for h in (-1, 1, 2, 5)],
                              [None, "--scan-depth=2", "--scan-depth=5"],
                              digit_limits, formats], sections),
    command("invariants", [formats], payload("family", families)),
    command("descend", [[f"--steps={s}" for s in (0, 1, 2, 4)], formats], sections),
    command("wd-decompose", [[f"--tau={t}" for t in ("1", "2", "-1/3", "0", "x", "1e5")],
                             formats], payload("matrix", matrices)),
    command("cld", [[f"--ell={ell}" for ell in range(-2, 14)],
                    [f"--d={d}" for d in range(-2, 31)], digit_limits, formats]),
    command("cd", [[f"--d={d}" for d in range(-2, 61)], [None] + ps, scan_depths,
                   digit_limits, formats]),
    command("refined", [[f"--d={d}" for d in range(-2, 61)], ps, scan_depths,
                        digit_limits, formats]),
)


@given(cli_inputs)
@settings(max_examples=300, deadline=5000)
def test_every_payload_gets_an_answer_or_a_typed_error(cli_input):
    argv, stdin = cli_input
    code, text = call_main(argv, json.dumps(stdin))
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_UNSTABLE, EXIT_MALFORMED,
                    EXIT_UNDECIDED)
    if "table" in argv or "--format=table" in argv:
        # one "key: value" line per scalar, an error as its own block
        assert text.endswith("\n") and not text.startswith("{")
        assert text.startswith("error:\n  type: ") == (code != EXIT_OK)
        return
    out = json.loads(text)  # exactly one JSON value ...
    assert isinstance(out, dict)  # ... and an object
    if code == EXIT_OK:
        assert "error" not in out
    else:
        assert list(out) == ["error"]
        # the library refuses bad input with a ValidationError subclass, so
        # a bare ValueError reaching main is a defect
        assert isinstance(out["error"]["type"], str) and out["error"]["type"] != "ValueError"
        assert isinstance(out["error"]["message"], str)


# Input that never reaches the library: payloads the JSON reader refuses
# (an integer literal past the 4300-digit limit in any integer slot, a
# truncated payload, arrays nested in a slot, as deep as 10^5) exit 4, and
# option values argparse refuses exit 2 with a JSON UsageError.

well_formed = st.one_of(
    st.tuples(st.just(["invariants"]), st.fixed_dictionaries({"family": st.fixed_dictionaries({
        "kind": st.just("hypersurface"), "n": st.integers(1, 4),
        "degrees": st.lists(st.integers(1, 6), min_size=1, max_size=2)})})),
    st.tuples(st.sampled_from([["variety-bound", "--p", "7"], ["descend"]]),
              st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
                  "n": st.just(n),
                  "b": st.lists(st.integers(0, 10 ** 3), min_size=n, max_size=n),
                  "c": st.lists(entries, min_size=n - 1, max_size=n - 1)})).map(
                      lambda inv: {"invariants": inv})),
    st.tuples(st.just(["wd-decompose"]), squares(entries).map(lambda m: {"matrix": m})),
)


def slot_paths(obj, path=()):
    """The path to every integer, and to every array, in obj."""
    if type(obj) is int or isinstance(obj, list):
        yield path
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in children:
        yield from slot_paths(child, path + (key,))


def slot_value(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def unreadable_payloads(draw):
    argv, obj = draw(well_formed)
    text = json.dumps(obj)
    kind = draw(st.sampled_from(["long-int", "prefix", "nested"]))
    if kind == "prefix":
        return argv, text[:draw(st.integers(0, len(text) - 1))]
    paths = [path for path in slot_paths(obj) if path]
    path = draw(st.sampled_from([q for q in paths if kind == "nested"
                                 or type(slot_value(obj, q)) is int]))
    if kind == "long-int":
        digits = draw(st.integers(4301, 6000))
        token = draw(st.sampled_from(["", "-"])) + "1" * digits
        if path[0] == "matrix" and draw(st.booleans()):  # a rational string
            token = json.dumps(draw(st.sampled_from([token, f"1/{token[-digits:]}"])))
    else:
        depth = draw(mostly(st.integers(2, 50), st.integers(10 ** 4, 10 ** 5)))
        token = "[" * depth + "]" * depth
    slot_value(obj, path[:-1])[path[-1]] = "@slot@"
    return argv, json.dumps(obj).replace('"@slot@"', token)


@given(unreadable_payloads())
@settings(max_examples=150, deadline=5000)
def test_a_payload_the_reader_refuses_is_malformed_input(cli_input):
    argv, stdin = cli_input
    code, text = call_main(argv, stdin)
    assert code == EXIT_MALFORMED
    assert json.loads(text)["error"]["type"] == "MalformedInput"


def refused_value(text):
    """True when neither an int option nor --format accepts text."""
    try:
        int(text)
    except ValueError:
        return text not in ("json", "table")
    return False


int_options = [
    (["cld", "--ell", "3", "--d", "2"], ["--ell", "--d", "--value-digit-limit"]),
    (["cd", "--d", "2"], ["--d", "--p", "--scan-depth", "--value-digit-limit"]),
    (["refined", "--d", "2", "--p", "3"],
     ["--d", "--p", "--scan-depth", "--value-digit-limit"]),
    (["variety-bound", "--p", "7"], ["--p", "--h", "--scan-depth"]),
    (["descend"], ["--steps"]),
]
refused_options = st.sampled_from(int_options).flatmap(lambda command: st.tuples(
    st.just(command[0]), st.sampled_from(command[1] + ["--format"]),
    mostly(st.sampled_from(["x", "1.5", "-1.5", "1e3", "0x10", "", "two", "xml"]),
           st.text(max_size=6).filter(refused_value)),
    st.booleans()))


@given(refused_options)
@settings(max_examples=100, deadline=5000)
def test_an_option_value_argparse_refuses_is_a_json_usage_error(option):
    # the refused value is the last option; a missing value is the option alone
    argv, name, value, missing = option
    argv = argv + ([name] if missing else [f"{name}={value}"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    error = json.loads(out.getvalue())["error"]
    assert error["type"] == "UsageError" and list(error) == ["message", "type"]
