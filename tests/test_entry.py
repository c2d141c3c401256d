"""The process entry `cli.run`: the exit-time freeze, and the installed script."""

import functools
import gc
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from monobound import cli
from test_cli import cli_env
from test_compat_bounds import certificate_faults, scanned_primes
from test_package import SUBCOMMANDS

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"
sys.path.insert(0, str(ROOT / "perfbench"))  # the benchmark's queries and oracles
import oracles  # noqa: E402
import workloads  # noqa: E402


def run_in_process(monkeypatch, argv):
    """cli.run() as the process calls it; returns its code and the freeze count."""
    monkeypatch.setattr(sys, "argv", ["monobound", *argv])
    try:
        code = cli.run()
        return code, gc.get_freeze_count()
    finally:
        gc.unfreeze()


def test_run_returns_mains_code_and_freezes(monkeypatch, capsys):
    code, frozen = run_in_process(monkeypatch, ["cld", "--ell", "3", "--d", "2"])
    assert code == cli.EXIT_OK and frozen > 0
    assert json.loads(capsys.readouterr().out)["order"]["value"] == "48"
    code, frozen = run_in_process(monkeypatch, ["cld", "--ell", "4", "--d", "2"])
    assert code == cli.EXIT_VALIDATION and frozen > 0


@pytest.mark.parametrize("argv, exit_code", [
    (["cld", "--ell", "3", "--d", "2", "--scan-depth", "5"], 2),
    (["--help"], 0),
], ids=["usage-error", "help"])
def test_run_freezes_when_main_exits(monkeypatch, capsys, argv, exit_code):
    monkeypatch.setattr(sys, "argv", ["monobound", *argv])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert exc.value.code == exit_code


def test_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["cld", "--ell", "3", "--d", "2"]) == cli.EXIT_OK
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert gc.get_freeze_count() == before


CUBIC = json.dumps({"family": {"kind": "hypersurface", "n": 511, "degrees": [3]}})

# Cases beside SUBCOMMANDS, as (argv, stdin, exit code, error type).  Each
# process ends within the 10 s timeout of plain_run.
ANSWERS = [
    # one Chern series per family
    pytest.param(["invariants"], CUBIC, cli.EXIT_OK, None, id="invariants-n511"),
    # tame_lcm from prime powers, not an lcm over the whole tame set
    pytest.param(["refined", "--d", "100000", "--p", "5"], "", cli.EXIT_OK, None,
                 id="refined-d100000"),
]
ERRORS = [
    pytest.param(["cld", "--ell", "4", "--d", "2"], "", cli.EXIT_VALIDATION,
                 "ValidationError", id="exit2"),
    pytest.param(["cd", "--d", "5", "--scan-depth", "2"], "", cli.EXIT_UNSTABLE,
                 "UnstableCertificate", id="exit3"),
    pytest.param(["variety-bound", "--p", "7"],
                 json.dumps({"invariants": {"n": 2, "b": [0, 22.9], "c": [-4]}}),
                 cli.EXIT_MALFORMED, "MalformedInput", id="exit4"),
    pytest.param(["cld", "--ell", "5", "--d", "47"], "", cli.EXIT_UNDECIDED,
                 "UndecidedCofactor", id="exit5"),
    pytest.param(["wd-decompose"], json.dumps({"matrix": [[2, 1], [1, 1]]}),
                 cli.EXIT_VALIDATION, "PreconditionViolatedError",
                 id="not-quasi-unipotent"),
    pytest.param(["wd-decompose"], json.dumps({"matrix": [[0, 0], [0, 1]]}),
                 cli.EXIT_VALIDATION, "SingularInputError", id="singular"),
    # the cubic's d_25 is past the prime table: refused before the scans of
    # the 24 entries ahead of it
    pytest.param(["variety-bound", "--p", "5"], CUBIC, cli.EXIT_VALIDATION,
                 "ValidationError", id="d-vector-past-the-table"),
]


CASES = pytest.mark.parametrize(
    "argv, stdin, exit_code, error_type",
    [pytest.param(argv, stdin, cli.EXIT_OK, None, id=argv[0])
     for argv, stdin in SUBCOMMANDS] + ANSWERS + ERRORS)


@functools.lru_cache(maxsize=None)
def plain_run(argv, stdin):
    """`python -m monobound.cli` run once per (argv, stdin) and shared by the
    tests that compare against it: its exit code and stdout, with no cache
    file whatever the calling test's environment."""
    env = cli_env()
    env.pop(cli.CACHE_ENV_VAR, None)
    proc = subprocess.run([sys.executable, "-m", "monobound.cli", *argv],
                          input=stdin.encode(), capture_output=True, env=env, timeout=10)
    return proc.returncode, proc.stdout


@CASES
def test_process_output_is_mains_output(monkeypatch, capsys, argv, stdin, exit_code,
                                        error_type):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    returncode, stdout = plain_run(tuple(argv), stdin)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    assert returncode == code == exit_code
    assert stdout == capsys.readouterr().out.encode()
    if error_type:
        assert json.loads(stdout)["error"]["type"] == error_type


@CASES
def test_benchmark_tracer_keeps_output_and_exit_code(monkeypatch, tmp_path,
                                                    argv, stdin, exit_code, error_type):
    # the benchmark's tracer wraps library names; a missing one would make
    # every traced query exit 1
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "q1", *argv],
                            input=stdin.encode(), capture_output=True, env=cli_env(),
                            timeout=60)
    assert (traced.returncode, traced.stdout) == plain_run(tuple(argv), stdin)
    assert traced.returncode == exit_code
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert "cli.main" in names and (argv[0] != "cd" or "cli.cached_c_d" in names)


def test_benchmark_tracer_keeps_a_cached_cd(tmp_path):
    # the tracer also wraps ScanCache.__init__ and ScanCache.put; each side
    # runs twice on its own cache file, a store and then a hit
    argv = ["cd", "--d", "2", "--p", "7"]
    spans = tmp_path / "spans.json"
    outputs = {}
    for side, entry in (("plain", ["-m", "monobound.cli"]),
                        ("traced", [str(TRACED_CLI), str(spans), "q1"])):
        env = dict(cli_env(), **{cli.CACHE_ENV_VAR: str(tmp_path / f"{side}.cache")})
        outputs[side] = [subprocess.run([sys.executable, *entry, *argv],
                                        capture_output=True, env=env, timeout=60)
                         for _ in range(2)]
    assert [(p.returncode, p.stdout) for p in outputs["traced"]] == [
        (p.returncode, p.stdout) for p in outputs["plain"]]
    assert [b'"cached": true' in p.stdout for p in outputs["plain"]] == [False, True]
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.main", "cli.cached_c_d", "cli.cache_load", "compat_bounds.c_d"} <= names


@pytest.mark.parametrize("workload", ["families", "monodromy", "queries"])
def test_benchmark_oracles_accept_every_answer(monkeypatch, capsys, workload):
    # the benchmark's queries at seed 1 and its independent oracles, in
    # process and with no cache: a wrong answer fails here before the
    # benchmark counts it
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    for query in workloads.build(workload, 1):
        monkeypatch.setattr(sys, "stdin", io.StringIO(query.stdin))
        code = cli.main(list(query.argv))
        verdict, reason = oracles.verdict(query.expect, code, capsys.readouterr().out)
        assert verdict == "ok", f"{query.qid} {list(query.argv)}: {reason}"


def certified_parts(argv, out):
    """(certificate, factors, only) per certificate of a JSON answer."""
    if argv[0] == "cd":
        return [(out["certificate"], out["value"]["factors"], None)]
    if argv[0] == "refined":
        return [(out["certificate"], out["wild_part"]["factors"], out["p"])]
    return [(cert, f["factors"], None) for cert, f in zip(out["certificates"], out["factors"])]


@pytest.mark.parametrize("workload", ["families", "queries"])
def test_every_workload_certificate_meets_its_definition(monkeypatch, capsys, workload):
    # every JSON answer of cd, refined and variety-bound at seed 1, checked
    # against the definitions by an independent sieve, scan and primitive
    # root test; the same certificate with one witness swapped for the
    # next scanned prime is refused
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    checked = 0
    for query in workloads.build(workload, 1):
        monkeypatch.setattr(sys, "stdin", io.StringIO(query.stdin))
        code = cli.main(list(query.argv))
        text = capsys.readouterr().out
        if query.argv[0] not in ("cd", "refined", "variety-bound") or code != cli.EXIT_OK \
                or "table" in query.argv:
            continue
        for cert, factors, only in certified_parts(query.argv, json.loads(text)):
            assert certificate_faults(cert, factors, only) == [], query.qid
            odd = [q for q in cert["witnesses"] if q != "2"]
            if odd:
                scan = scanned_primes(cert["excluded_p"], cert["primes_scanned"])
                swapped = dict(cert["witnesses"])
                swapped[odd[-1]] = scan[scan.index(swapped[odd[-1]]) + 1]
                assert certificate_faults(dict(cert, witnesses=swapped), factors, only)
            checked += 1
    assert checked >= 16


def test_installed_script_is_run():
    # plain text, since tomllib is new in Python 3.11
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    target = re.search(r'^monobound\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    module, name = target.groups()
    assert module == "monobound.cli"
    assert getattr(cli, name) is cli.run
