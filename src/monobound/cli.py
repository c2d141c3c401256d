"""Command-line front end: JSON in, JSON (or table) out.

Each subcommand parses its input, calls one library function and
serialises what it returns; the CLI computes nothing of its own.
`variety-bound` is `variety_bounds.bound`, `refined` is
`compat_bounds.refined_bound`, `cd` is `compat_bounds.c_d`.
Each subcommand declares only the options it reads.

Input is parsed under the interpreter's int-to-str digit limit (4300
digits by default; Python >= 3.10.7 has it), so a number too long to
read is malformed input.  Computed numbers (GL orders, gcd values,
tame_lcm, wd-decompose's entries) are written in full, with the limit
lifted by `_lifted_int_limit` only after every input has been read.

`cd` alone may keep its certificates in the scan cache file named by
$MONOBOUND_CACHE.  It always computes; an entry that holds exactly the
computed certificate only adds "cached": true to the answer, so stored
data never decides what is printed.  A cache that cannot be read or
written is never an error.  Every other subcommand ignores the cache.

Each subcommand imports the library modules it uses when it runs, so
a process loads only what its subcommand needs: `cld` loads
`group_orders`; `wd-decompose` loads `wd_matrix`; `cd` and `refined`
load `compat_bounds`; `variety-bound`, `invariants` and `descend` load
`variety_bounds` (and with it `compat_bounds`), plus `chern_invariants`
for a family input; each also loads `numtheory`.  Building the parser
imports no library module.

Exit codes: 0 success, 1 stdout closed before the answer was written,
2 validation error (mathematically inconsistent input) or usage error
(an option argparse rejects), 3 unstable scan certificate, 4 malformed
input (bad JSON or schema, including a non-integer where an integer is
expected and a rational string other than "[+-]digits[/digits]"), 5
undecided factorization (a cofactor at or above 2^64 that is neither
certified prime nor split), 6 internal error (a failed invariant: a
defect in monobound, not bad input).  Every error prints an error
object on stdout; a usage error prints it as JSON whatever --format
says, and its usage text on stderr.

`run()` is the process entry (`python -m monobound.cli` and the
installed `monobound` script): it calls `main()` and then freezes the
garbage collector, so the objects still alive at exit sit in the
permanent generation and the interpreter's exit-time collections skip
them.  `main(argv)` is the in-process API and never freezes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Optional, Tuple

from . import __version__
from .errors import (
    InvariantViolationError,
    UndecidedCofactorError,
    UnstableCertificateError,
    ValidationError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .chern_invariants import FamilySpec
    from .compat_bounds import ScanCertificate
    from .numtheory import FactoredInt
    from .variety_bounds import VarietyInvariants
    from .wd_matrix import RationalMatrix

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3
EXIT_MALFORMED = 4
EXIT_UNDECIDED = 5
EXIT_INTERNAL = 6

CACHE_ENV_VAR = "MONOBOUND_CACHE"
DEFAULT_VALUE_DIGIT_LIMIT = 1000


class MalformedInputError(Exception):
    """Unparseable or schema-violating input payload (exit code 4)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a JSON error object on stdout as well."""

    def error(self, message):
        print(json.dumps({"error": {"type": "UsageError", "message": message}},
                         indent=2, sort_keys=True))
        super().error(message)  # usage on stderr, exit 2


# ---------------------------------------------------------------- serialization

class _lifted_int_limit:
    """Lifts the interpreter's int-to-str digit limit for a with block and
    restores it on exit, also on an exception.  Only computed numbers are
    written inside; no input is parsed there."""

    def __enter__(self):
        self.old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info):
        sys.set_int_max_str_digits(self.old)


def factored_to_json(f: FactoredInt, digit_limit: int) -> dict:
    """The factors, and the expanded "value" when it has at most
    digit_limit digits (never when digit_limit <= 0).  The value is at
    least 2^low and log2(10) < 10/3, so 3 * low >= 10 * digit_limit proves
    it too long before it is built; otherwise its text decides.  Input is
    parsed under the int-to-str digit limit; this text, like every
    computed number, is written with the limit lifted."""
    out = {"factors": {str(p): e for p, e in f.factors}}
    low = sum(e * (p.bit_length() - 1) for p, e in f.factors)  # 2^low <= value
    if 3 * low < 10 * digit_limit:
        with _lifted_int_limit():
            text = str(f.value())
        if len(text) <= digit_limit:
            out["value"] = text
    return out


def cert_to_json(cert: ScanCertificate) -> dict:
    return {
        "d": cert.d,
        "excluded_p": cert.excluded_p,
        "primes_scanned": cert.primes_scanned,
        "candidate_primes": [q for q, _ in cert.witnesses],
        "witnesses": {str(q): ell for q, ell in cert.witnesses if ell is not None},
        "stable": cert.stable,
    }


def invariants_to_json(inv: VarietyInvariants) -> dict:
    return {"n": inv.n, "b": list(inv.b), "c": list(inv.c)}


def _json_int(obj: dict, key: str, what: str) -> int:
    value = obj[key]
    if type(value) is not int:  # a JSON integer; bool is a subclass of int
        raise MalformedInputError(
            f"{what}.{key} must be an integer, got {json.dumps(value)}")
    return value


def _json_int_array(obj: dict, key: str, what: str) -> Tuple[int, ...]:
    values = obj[key]
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise MalformedInputError(
            f"{what}.{key} must be an array of integers, got {json.dumps(values)}")
    return tuple(values)


def invariants_from_json(obj: dict) -> VarietyInvariants:
    from .variety_bounds import VarietyInvariants
    try:
        return VarietyInvariants(n=_json_int(obj, "n", "invariants"),
                                 b=_json_int_array(obj, "b", "invariants"),
                                 c=_json_int_array(obj, "c", "invariants"))
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad invariants object: {exc}") from exc


def family_from_json(obj: dict) -> FamilySpec:
    from .chern_invariants import FamilySpec
    try:
        kind = obj["kind"]
        if not isinstance(kind, str):
            raise MalformedInputError(
                f"family.kind must be a string, got {json.dumps(kind)}")
        return FamilySpec(kind=kind, n=_json_int(obj, "n", "family"),
                          degrees=(_json_int_array(obj, "degrees", "family")
                                   if "degrees" in obj else ()))
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad family object: {exc}") from exc


def _rational(x, what: str) -> Fraction:
    """A JSON integer, or a string "[+-]digits" or "[+-]digits/digits", as
    a Fraction.  int() reads each part under the int digit limit, where
    Fraction(str) would expand an exponent such as "1e1000000" in full."""
    from fractions import Fraction
    if type(x) is int:
        return Fraction(x)
    if not isinstance(x, str):  # floats, bools, ...
        raise MalformedInputError(f"bad {what}: entries must be integers "
                                  f"or strings, got {json.dumps(x)}")
    m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", x)
    if m is None:
        raise MalformedInputError(f'bad {what}: need "[+-]digits" or '
                                  f'"[+-]digits/digits", got {json.dumps(x)}')
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:  # past the digit limit, or n/0
        raise MalformedInputError(f"bad {what}: {exc}") from exc


def matrix_from_json(obj) -> RationalMatrix:
    """The shape is checked, and the size capped, before any entry is read."""
    from .wd_matrix import MAX_MATRIX_DIM, RationalMatrix
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise MalformedInputError("bad matrix payload: need an array of row "
                                  f"arrays, got {json.dumps(obj)}")
    if not obj or any(len(row) != len(obj) for row in obj):
        raise MalformedInputError("bad matrix payload: matrix must be square and nonempty")
    if len(obj) > MAX_MATRIX_DIM:
        raise ValidationError(f"matrix dimension {len(obj)} exceeds "
                              f"MAX_MATRIX_DIM = {MAX_MATRIX_DIM}")
    return RationalMatrix.from_rows(
        tuple(tuple(_rational(x, "matrix payload") for x in row) for row in obj))


def matrix_to_json(M: RationalMatrix):
    return [[str(x) for x in row] for row in M.rows]


# ---------------------------------------------------------------------- cache

def _checksum(payload) -> str:
    """CRC-32 of the payload's canonical JSON, as 8 hex digits.  It
    detects every error burst of at most 32 bits in that text, so every
    substituted character; binascii, unlike hashlib, loads no OpenSSL."""
    import binascii
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{binascii.crc32(blob.encode()):08x}"


class ScanCache:
    """Single-file JSON cache of prime-scan results.

    Entries are keyed by the plain text of (tool version, d, p,
    scan_depth) and carry their own checksum.  A file or entry that is
    unreadable, malformed or fails its checksum is a cold cache, and a
    store that fails leaves the answer uncached; neither is an error.
    Writes go through an atomic rename.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._entries = {}
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
                entries = data.get("entries") if isinstance(data, dict) else None
                if isinstance(entries, dict):
                    self._entries = {
                        k: v for k, v in entries.items()
                        if isinstance(v, dict)
                        and v.get("checksum") == _checksum(v.get("payload", {}))
                    }
            except (OSError, ValueError, RecursionError):
                self._entries = {}

    @staticmethod
    def key(d: int, p: Optional[int], scan_depth: int) -> str:
        return f"{__version__}:cd:{d}:{p}:{scan_depth}"

    def get(self, key: str) -> Optional[dict]:
        return self._entries.get(key, {}).get("payload")

    def put(self, key: str, payload: dict) -> None:
        self._entries[key] = {"checksum": _checksum(payload), "payload": payload}
        import tempfile
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(self.path)), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"version": __version__, "entries": self._entries}, fh)
            os.replace(tmp, self.path)
        except OSError:  # a missing or unwritable directory, a full disk, ...
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def cached_c_d(cache: ScanCache, d: int, p: Optional[int],
               scan_depth: int) -> Tuple[FactoredInt, dict, bool]:
    """Certified gcd, marked when the cache already holds it; returns
    (value, certificate JSON, was_hit).  It always computes with c_d, so
    the library checks the request first, and only then reads the entry
    under the request's key.  A hit is an entry whose stored certificate
    is this one: the same fields, and witnesses in the same order with
    the same JSON types.  Any other entry is a miss and is overwritten.
    Stored data is never decoded or printed; without a cache file it
    stores nothing."""
    from .compat_bounds import c_d
    value, cert = c_d(d, p, scan_depth)
    cert = cert_to_json(cert)
    key = ScanCache.key(d, p, scan_depth)
    payload = cache.get(key)
    stored = payload.get("certificate") if isinstance(payload, dict) else None
    # fields in any order, but witnesses in order and JSON types as they are (2.0 is not 2)
    hit = (isinstance(stored, dict)
           and json.dumps(sorted(stored.items())) == json.dumps(sorted(cert.items())))
    if not hit and cache.path:
        cache.put(key, {"certificate": cert})
    return value, cert, hit


# ------------------------------------------------------------------- commands

def _read_input(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except OSError as exc:
        raise MalformedInputError(f"cannot read input: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedInputError("top-level JSON input must be an object")
    return obj


def _invariants_from_input(obj: dict) -> VarietyInvariants:
    if "family" in obj:
        from .chern_invariants import invariants_of
        return invariants_of(family_from_json(obj["family"]))
    if "invariants" in obj:
        return invariants_from_json(obj["invariants"])
    raise MalformedInputError('input needs a "family" or "invariants" key')


def _scan_depth(args) -> int:
    """--scan-depth, or the library's default when it was not given."""
    from .compat_bounds import DEFAULT_SCAN_DEPTH
    return DEFAULT_SCAN_DEPTH if args.scan_depth is None else args.scan_depth


def cmd_cld(args) -> dict:
    from .group_orders import c_ell_d
    return {"ell": args.ell, "d": args.d,
            "order": factored_to_json(c_ell_d(args.ell, args.d), args.value_digit_limit)}


def cmd_cd(args) -> dict:
    scan_depth = _scan_depth(args)
    cache = ScanCache(os.environ.get(CACHE_ENV_VAR))
    value, cert, hit = cached_c_d(cache, args.d, args.p, scan_depth)
    out = {"d": args.d, "p": args.p, "scan_depth": scan_depth,
           "value": factored_to_json(value, args.value_digit_limit), "certificate": cert}
    if hit:
        out["cached"] = True
    return out


def cmd_variety_bound(args) -> dict:
    from .variety_bounds import bound
    inv = _invariants_from_input(_read_input(args.input))
    report = bound(inv, args.p, args.h, _scan_depth(args))
    return {
        "invariants": invariants_to_json(inv),
        "p": args.p,
        "h": len(report.factors),
        "d_vector": list(report.d_vector.entries),
        "factors": [factored_to_json(f, args.value_digit_limit) for f in report.factors],
        "product": factored_to_json(report.product, args.value_digit_limit),
        "certificates": [cert_to_json(c) for c in report.certificates],
    }


def cmd_invariants(args) -> dict:
    from .chern_invariants import invariants_of
    obj = _read_input(args.input)
    if "family" not in obj:
        raise MalformedInputError('input needs a "family" key')
    inv = invariants_of(family_from_json(obj["family"]))
    return {"invariants": invariants_to_json(inv)}


def cmd_descend(args) -> dict:
    from .variety_bounds import descend
    if args.steps < 1:
        raise ValidationError(f"steps must be >= 1, got {args.steps}")
    inv = _invariants_from_input(_read_input(args.input))
    chain = []
    for _ in range(args.steps):
        inv = descend(inv)
        chain.append(invariants_to_json(inv))
    return {"steps": chain}


def cmd_wd(args) -> dict:
    from .wd_matrix import wd_pair
    obj = _read_input(args.input)
    if "matrix" not in obj:
        raise MalformedInputError('input needs a "matrix" key')
    tau = _rational(args.tau, "tau")
    pair = wd_pair(matrix_from_json(obj["matrix"]), tau)
    with _lifted_int_limit():
        return {"r": matrix_to_json(pair.r), "n": matrix_to_json(pair.n),
                "tau": str(pair.tau)}


def cmd_refined(args) -> dict:
    from .compat_bounds import refined_bound
    rb = refined_bound(args.d, args.p, _scan_depth(args))
    return {
        "d": rb.d, "p": rb.p,
        "tame_set": list(rb.tame_set),
        "tame_max": rb.tame_max,
        "tame_lcm": rb.tame_lcm,
        "wild_part": factored_to_json(rb.wild_part, args.value_digit_limit),
        "certificate": cert_to_json(rb.certificate),
    }


# --------------------------------------------------------------------- driver

def _render_table(obj: dict, indent: str = "") -> str:
    lines = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _render(result: dict, fmt: str) -> str:
    """result as text.  A plain int such as refined's tame_lcm may pass
    the interpreter's int-to-str digit limit, so the result is rendered
    with the limit lifted; every input has been parsed under it by then."""
    with _lifted_int_limit():
        return (_render_table(result) if fmt == "table"
                else json.dumps(result, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="monobound",
        description="Exact bounds on the index of unipotent local monodromy.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups, each declared only on the subcommands that read it
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="json")
    values = argparse.ArgumentParser(add_help=False)
    values.add_argument("--value-digit-limit", type=int, default=DEFAULT_VALUE_DIGIT_LIMIT,
                        help="omit expanded values above this many digits")
    scan = argparse.ArgumentParser(add_help=False)
    # None stands for compat_bounds.DEFAULT_SCAN_DEPTH, read by _scan_depth
    # so that building the parser imports no library module
    scan.add_argument("--scan-depth", type=int, default=None,
                      help="number of primes per gcd scan (default 100)")

    p = sub.add_parser("cld", parents=[fmt, values],
                       help="order of GL_d over F_ell (Z/4Z for ell=2)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_cld)

    p = sub.add_parser("cd", parents=[fmt, values, scan],
                       help="certified gcd of orders over primes != p")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=cmd_cd)

    p = sub.add_parser("variety-bound", parents=[fmt, values, scan],
                       help="index bound from variety invariants or a family")
    p.add_argument("--input", default="-", help="JSON file or - for stdin")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--h", type=int, default=None)
    p.set_defaults(func=cmd_variety_bound)

    p = sub.add_parser("invariants", parents=[fmt],
                       help="Betti/Chern invariants of a family")
    p.add_argument("--input", default="-")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("descend", parents=[fmt],
                       help="iterated hyperplane-section invariants")
    p.add_argument("--input", default="-")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("wd-decompose", parents=[fmt],
                       help="finite-order / nilpotent split of a rational matrix")
    p.add_argument("--input", default="-")
    p.add_argument("--tau", default="1")
    p.set_defaults(func=cmd_wd)

    p = sub.add_parser("refined", parents=[fmt, values, scan],
                       help="tame/wild refinement for dimension d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_refined)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # "--tau -1/3" as "--tau=-1/3": some argparse versions read -1/3 as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--tau" and re.match(r"-[0-9]", argv[i + 1]):
            argv[i:i + 2] = [f"--tau={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        result, code = args.func(args), EXIT_OK
    except MalformedInputError as exc:
        result = {"error": {"type": "MalformedInput", "message": str(exc)}}
        code = EXIT_MALFORMED
    except UnstableCertificateError as exc:
        result = {"error": {"type": "UnstableCertificate", "message": str(exc),
                            "certificate": cert_to_json(exc.certificate)}}
        code = EXIT_UNSTABLE
    except UndecidedCofactorError as exc:
        result = {"error": {"type": "UndecidedCofactor", "message": str(exc)}}
        code = EXIT_UNDECIDED
    except InvariantViolationError as exc:
        result = {"error": {"type": "InvariantViolationError", "message": str(exc)}}
        code = EXIT_INTERNAL
    except ValueError as exc:
        # ValidationError and its subclasses keep their own type name
        result = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_VALIDATION
    text = _render(result, args.format)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so that the flush
        # at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def run() -> int:
    """main() on sys.argv, then gc.freeze(), also when main() raises
    (SystemExit from a usage error or --help).  Only for a process about
    to exit; unlike os._exit, atexit handlers, the stdout flush and
    module teardown still run."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
