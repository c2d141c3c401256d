"""Run one monobound CLI query with a span around each library call.

    python perfbench/traced_cli.py SPANS_OUT QUERY_ID CLI_ARG...

Behaves like `python -m monobound.cli CLI_ARG...` (same stdout, same exit
code), but first replaces each traced library function with a wrapper
under every module-level name that refers to it, so the wrapper sits
where each caller looks the function up (`compat_bounds` calls its own
imported `c_ell_d_int`; `cli` calls its own `cached_c_d`, which reaches
`compat_bounds.c_d` through `c_d_stable`).
Methods of `RationalMatrix` and `ScanCache` are wrapped on the class.

Spans (name, start ns, end ns, parent index, query id) and counters are
kept in memory and written to SPANS_OUT as JSON when the query ends.
`RationalMatrix.__mul__` and `is_prime` are only counted: a span per
call would swamp the trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, query_id: str):
        self.query_id = query_id
        self.spans = []
        self.stack = []
        self.counters = {}

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def span(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) and after(result) observe counters."""
        clock, spans, stack = time.perf_counter_ns, self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, clock(), 0, stack[-1] if stack else -1, self.query_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".failed")
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counting

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"query": self.query_id, "spans": self.spans,
                       "counters": self.counters}, fh)


def _entry_bits(matrix) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in matrix.rows for x in row)


def install(tracer: Tracer):
    """Wrap the traced layers; returns the wrapped `cli.main`."""
    from monobound import (chern_invariants, cli, compat_bounds, group_orders,
                           numtheory, variety_bounds, wd_matrix)

    modules = (cli, chern_invariants, compat_bounds, group_orders, numtheory,
               variety_bounds, wd_matrix)

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def on_cert(result):
        cert = result[1]
        tracer.add("compat_bounds.primes_scanned", cert.primes_scanned)
        tracer.add("compat_bounds.unstable", int(not cert.stable))

    def on_hit(result):
        tracer.add("cli.cache_hits" if result[2] else "cli.cache_misses")

    def on_pair(pair):
        tracer.maximum("wd_matrix.max_entry_bits",
                       max(_entry_bits(pair.r), _entry_bits(pair.n)))

    functions = (
        ("cli.cached_c_d", cli.cached_c_d, None, on_hit),
        ("chern_invariants.invariants_of", chern_invariants.invariants_of, None, None),
        ("variety_bounds.d_vector", variety_bounds.d_vector, None, None),
        ("variety_bounds.descend", variety_bounds.descend, None, None),
        ("compat_bounds.c_d", compat_bounds.c_d, None, on_cert),
        ("group_orders.c_ell_d_int", group_orders.c_ell_d_int, None,
         lambda v: tracer.maximum("group_orders.max_order_bits", v.bit_length())),
        ("group_orders.c_ell_d", group_orders.c_ell_d, None, None),
        ("numtheory.factorize", numtheory.factorize,
         lambda args: tracer.maximum("numtheory.factorize.max_input_bits",
                                     args[0].bit_length()), None),
        ("numtheory.phi_inverse_set", numtheory.phi_inverse_set, None, None),
        ("wd_matrix.jordan_chevalley", wd_matrix.jordan_chevalley, None, None),
        ("wd_matrix.nilpotent_log", wd_matrix.nilpotent_log, None, None),
        ("wd_matrix.nilpotent_exp", wd_matrix.nilpotent_exp, None, None),
        ("wd_matrix.wd_pair", wd_matrix.wd_pair, None, on_pair),
    )
    for name, fn, before, after in functions:
        replace(fn, tracer.span(name, fn, before, after))
    replace(numtheory.is_prime, tracer.counted("numtheory.is_prime.calls",
                                               numtheory.is_prime))

    matrix = wd_matrix.RationalMatrix
    for method in ("char_poly", "inverse", "power"):
        setattr(matrix, method,
                tracer.span(f"wd_matrix.{method}", getattr(matrix, method)))
    matrix.__mul__ = tracer.counted("wd_matrix.matmul.calls", matrix.__mul__)
    cli.ScanCache.__init__ = tracer.span("cli.cache_load", cli.ScanCache.__init__)
    cli.ScanCache.put = tracer.span("cli.cache_put", cli.ScanCache.put)
    return tracer.span("cli.main", cli.main)


def main() -> int:
    spans_out, query_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(query_id)
    traced_main = install(tracer)
    try:
        return traced_main(argv)
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
