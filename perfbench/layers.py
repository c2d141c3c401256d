"""Per-layer metrics derived from the spans and counters of traced queries.

A span's self time is its duration minus the durations of its direct
children.  Every metric is a total over one pass of the query list,
except the `max_*` counters, which are maxima.  Each line of PER_LAYER
notes the end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

S, COUNT, BITS = "s", "count", "bits"

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # start-up and the CLI layer -> query_p50_s on queries
    ("cli.startup_s", S, "lower"),
    ("cli.self_s", S, "lower"),
    # scan cache -> wall_s on queries; zero elsewhere
    ("cli.cache_hits", COUNT, "higher"),
    ("cli.cache_misses", COUNT, "lower"),
    ("cli.cache_io_s", S, "lower"),
    # invariants and d-vector -> under 1% of wall_s on families
    ("chern_invariants.invariants_of.calls", COUNT, "lower"),
    ("chern_invariants.invariants_of.self_s", S, "lower"),
    ("variety_bounds.d_vector.calls", COUNT, "lower"),
    ("variety_bounds.d_vector.self_s", S, "lower"),
    ("variety_bounds.descend.self_s", S, "lower"),
    # certified gcd -> wall_s on families; no change on monodromy
    ("compat_bounds.c_d.calls", COUNT, "lower"),
    ("compat_bounds.c_d.self_s", S, "lower"),
    ("compat_bounds.primes_scanned", COUNT, "lower"),
    ("compat_bounds.unstable", COUNT, "lower"),
    # group orders -> wall_s on families; c_ell_d -> queries (cld)
    ("group_orders.c_ell_d_int.calls", COUNT, "lower"),
    ("group_orders.c_ell_d_int.self_s", S, "lower"),
    ("group_orders.max_order_bits", BITS, "lower"),
    ("group_orders.c_ell_d.self_s", S, "lower"),
    # number theory -> failures and wall_s on queries; phi_inverse_set ->
    # monodromy (lcm exponent) and queries (refined)
    ("numtheory.factorize.calls", COUNT, "lower"),
    ("numtheory.factorize.self_s", S, "lower"),
    ("numtheory.factorize.max_input_bits", BITS, "lower"),
    ("numtheory.factorize.failed", COUNT, "lower"),
    ("numtheory.is_prime.calls", COUNT, "lower"),
    ("numtheory.phi_inverse_set.self_s", S, "lower"),
    # exact matrix kernel -> wall_s on monodromy; none move on families
    ("wd_matrix.char_poly.calls", COUNT, "lower"),
    ("wd_matrix.char_poly.self_s", S, "lower"),
    ("wd_matrix.jordan_chevalley.calls", COUNT, "lower"),
    ("wd_matrix.jordan_chevalley.self_s", S, "lower"),
    ("wd_matrix.inverse.calls", COUNT, "lower"),
    ("wd_matrix.inverse.self_s", S, "lower"),
    ("wd_matrix.power.calls", COUNT, "lower"),
    ("wd_matrix.power.self_s", S, "lower"),
    ("wd_matrix.nilpotent_log.calls", COUNT, "lower"),
    ("wd_matrix.nilpotent_log.self_s", S, "lower"),
    ("wd_matrix.nilpotent_exp.calls", COUNT, "lower"),
    ("wd_matrix.nilpotent_exp.self_s", S, "lower"),
    ("wd_matrix.wd_pair.calls", COUNT, "lower"),
    ("wd_matrix.wd_pair.self_s", S, "lower"),
    ("wd_matrix.matmul.calls", COUNT, "lower"),
    ("wd_matrix.max_entry_bits", BITS, "lower"),
    # traced wall_s minus untraced wall_s
    ("trace.overhead_s", S, "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def pass_metrics(traces: Iterable[Tuple[float, Optional[dict]]]) -> Dict[str, float]:
    """Layer metrics of one traced pass.

    traces holds (process wall seconds, trace file contents) per query;
    the contents are None for a query killed at its time limit.
    """
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(int)
    startup = 0.0
    for wall, trace in traces:
        if trace is None:
            continue
        spans = trace["spans"]
        covered = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start - covered[i]) / 1e9
            if name == "cli.main":
                startup += wall - (end - start) / 1e9
        for name, value in trace["counters"].items():
            if ".max_" in name:
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value

    out: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name == "cli.startup_s":
            out[name] = startup
        elif name == "cli.self_s":
            out[name] = self_s["cli.main"] + self_s["cli.cached_c_d"]
        elif name == "cli.cache_io_s":
            out[name] = self_s["cli.cache_load"] + self_s["cli.cache_put"]
        elif name.endswith(".calls") and name[:-len(".calls")] in calls:
            out[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[:-len(".self_s")]]
        elif name != "trace.overhead_s":
            out[name] = counters[name]
    return out
