"""Tests of the benchmark itself: seeded inputs, oracles, time limits, metric names.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def cli(argv, stdin=""):
    proc = subprocess.run([sys.executable, "-m", "monobound.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=run.child_env(),
                          timeout=60)
    return proc.returncode, proc.stdout


def canonical(queries):
    return json.dumps([asdict(q) for q in queries], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_generators_are_deterministic_per_seed(workload):
    first = canonical(workloads.build(workload, 7))
    assert first == canonical(workloads.build(workload, 7))
    assert first != canonical(workloads.build(workload, 8))


def test_queries_mix_probes_the_cofactor_defect_exactly_once():
    argvs = [q.argv for q in workloads.build("queries", 3)]
    for ell, d in workloads.CLD_DEFECT_PROBES:
        assert argvs.count(("cld", "--ell", str(ell), "--d", str(d))) == 1


def test_generated_matrices_have_their_stated_order():
    rng = random.Random(0)
    for d in (3, 5, 8):
        rows, order = workloads.quasi_unipotent(rng, d)
        m = oracles.parse_matrix(rows)
        # m^order is unipotent: (m^order - I)^d = 0
        x = oracles.mat_pow(m, order)
        x = [[a - int(i == j) for j, a in enumerate(row)] for i, row in enumerate(x)]
        assert all(a == 0 for row in oracles.mat_pow(x, d) for a in row)


def _corrupt_factor(out, path):
    obj = out
    for key in path:
        obj = obj[key]
    p = next(iter(obj["factors"]))
    obj["factors"][p] += 1
    obj.pop("value", None)


CASES = [
    # (argv, stdin, expect, corruption of the parsed JSON answer)
    (("cld", "--ell", "5", "--d", "4"), "", {"kind": "cld", "ell": 5, "d": 4},
     lambda o: _corrupt_factor(o, ["order"])),
    (("cd", "--d", "6", "--p", "7"), "", {"kind": "cd", "d": 6, "p": 7},
     lambda o: o["certificate"].update(stable=False)),
    (("refined", "--d", "4", "--p", "3"), "", {"kind": "refined", "d": 4, "p": 3},
     lambda o: o["tame_set"].pop()),
    (("variety-bound", "--p", "7"),
     json.dumps({"family": {"kind": "hypersurface", "n": 2, "degrees": [4]}}),
     {"kind": "variety_bound", "p": 7, "invariants": oracles.ci_invariants(2, (4,)),
      "d_vector": oracles.ci_d_vector(2, (4,))},
     lambda o: _corrupt_factor(o, ["factors", 1])),
    (("variety-bound", "--p", "7"),
     json.dumps({"invariants": oracles.ci_invariants(2, (4,))}),
     {"kind": "variety_bound", "p": 7, "invariants": oracles.ci_invariants(2, (4,)),
      "d_vector": oracles.ci_d_vector(2, (4,))},
     lambda o: _corrupt_factor(o, ["product"])),
    (("invariants",),
     json.dumps({"family": {"kind": "complete_intersection", "n": 3, "degrees": [2, 2]}}),
     {"kind": "invariants", "invariants": oracles.ci_invariants(3, (2, 2))},
     lambda o: o["invariants"]["c"].__setitem__(0, 7)),
    (("descend", "--steps", "2"),
     json.dumps({"family": {"kind": "hypersurface", "n": 3, "degrees": [3]}}),
     {"kind": "descend", "steps": [oracles.ci_invariants(2, (3,)),
                                   oracles.ci_invariants(1, (3,))]},
     lambda o: o["steps"].pop()),
    (("wd-decompose", "--tau", "1/3"),
     json.dumps({"matrix": [["-1", "1", "0"], ["0", "-1", "0"], ["0", "0", "1"]]}),
     {"kind": "wd", "matrix": [["-1", "1", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
      "tau": "1/3", "order": 2},
     lambda o: o["n"][0].__setitem__(1, "-1")),
    (("wd-decompose", "--tau", "2"),
     json.dumps({"matrix": [["0", "-1"], ["1", "0"]]}),
     {"kind": "wd", "matrix": [["0", "-1"], ["1", "0"]], "tau": "2", "order": 4},
     lambda o: o.update(r=[["0", "1"], ["-1", "0"]])),
    (("cd", "--d", "5", "--scan-depth", "2"), "",
     {"kind": "error", "code": 3, "type": "UnstableCertificate"},
     lambda o: o["error"].update(type="ValueError")),
]


@pytest.mark.parametrize("argv,stdin,expect,corrupt", CASES,
                         ids=[" ".join(c[0]) for c in CASES])
def test_oracle_accepts_the_answer_and_rejects_a_corrupted_one(argv, stdin, expect, corrupt):
    code, stdout = cli(argv, stdin)
    assert oracles.verdict(expect, code, stdout) == ("ok", "")
    cached = json.loads(stdout)
    cached["cached"] = True
    assert oracles.verdict(expect, code, json.dumps(cached))[0] == "ok"
    bad = copy.deepcopy(json.loads(stdout))
    corrupt(bad)
    status, reason = oracles.verdict(expect, code, json.dumps(bad))
    assert status == "wrong" and reason


def test_oracle_checks_exit_codes_and_table_output():
    expect = {"kind": "cld", "ell": 3, "d": 5, "format": "table"}
    code, stdout = cli(("cld", "--ell", "3", "--d", "5", "--format", "table"))
    assert oracles.verdict(expect, code, stdout) == ("ok", "")
    assert oracles.verdict(expect, code, stdout.replace("value: ", "value: 1"))[0] == "wrong"
    assert oracles.verdict(expect, 2, stdout)[0] == "error"
    error = {"kind": "error", "code": 4, "type": "MalformedInput"}
    code, stdout = cli(("variety-bound", "--p", "5"), "{not json")
    assert oracles.verdict(error, code, stdout) == ("ok", "")
    assert oracles.verdict(error, 2, stdout)[0] == "wrong"
    assert oracles.verdict(error, 0, "{}")[0] == "wrong"


def _single_query_workload(monkeypatch, query):
    monkeypatch.setattr(workloads, "build", lambda workload, seed: [query])


def test_query_over_its_time_limit_is_a_counted_timeout(monkeypatch):
    slow = workloads.Query("slow", ("cd", "--d", "204", "--p", "5"), "",
                           {"kind": "cd", "d": 204, "p": 5}, timeout_s=0.5)
    _single_query_workload(monkeypatch, slow)
    out = run.run_workload("families", seed=0, seconds=0.1, trace=False)
    assert [a.status for a in out["failures"]] == ["timeout"]
    assert out["result"]["attempted"] == 1 and out["result"]["failed"] == 1
    assert out["result"]["correct"] is True
    assert out["result"]["metrics"]["wall_s"]["value"] >= 0.5


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in layers.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)

    query = workloads.Query("k3", ("variety-bound", "--p", "7"),
                            json.dumps({"family": {"kind": "hypersurface", "n": 2,
                                                   "degrees": [4]}}),
                            {"kind": "variety_bound", "p": 7,
                             "invariants": oracles.ci_invariants(2, (4,)),
                             "d_vector": oracles.ci_d_vector(2, (4,))}, timeout_s=30)
    _single_query_workload(monkeypatch, query)
    traced = run.run_workload("families", seed=0, seconds=0.1, trace=True)["result"]
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] == 1
    assert list(traced["metrics"]) == [m[0] for m in layers.PER_LAYER]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["compat_bounds.c_d.calls"] == 2
    assert metrics["group_orders.c_ell_d_int.calls"] == 200
    assert metrics["wd_matrix.wd_pair.calls"] == 0
    plain = run.run_workload("families", seed=0, seconds=0.1, trace=False)["result"]
    assert list(plain["metrics"]) == list(run.E2E_UNITS)
