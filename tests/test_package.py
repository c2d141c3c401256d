"""What the package root binds, which modules each entry point loads, and
what the library's source holds."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import monobound
from test_cli import cli_env

# runs BODY in a fresh interpreter, then prints the monobound modules it
# loaded; only monobound.* names are compared, so `site` does not matter
PROBE = """\
import contextlib, io, json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "monobound")))
"""


def loaded_modules(body, stdin=""):
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          input=stdin, capture_output=True, text=True,
                          env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr  # the probe's own assertion message
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_modules(argv, stdin=""):
    body = ("from monobound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    return loaded_modules(body, stdin)


def test_import_monobound_loads_no_submodule():
    assert loaded_modules("import monobound") == {"monobound"}


def test_import_cli_loads_only_errors():
    assert loaded_modules("import monobound.cli") == {
        "monobound", "monobound.cli", "monobound.errors"}


def test_cld_loads_no_unrelated_module():
    loaded = cli_modules(["cld", "--ell", "3", "--d", "2"])
    assert "monobound.group_orders" in loaded
    assert not loaded & {"monobound.wd_matrix", "monobound.chern_invariants",
                         "monobound.compat_bounds"}


def test_wd_decompose_loads_no_unrelated_module():
    matrix = json.dumps({"matrix": [["-1", "1"], ["0", "-1"]]})
    loaded = cli_modules(["wd-decompose"], stdin=matrix)
    assert "monobound.wd_matrix" in loaded
    assert not loaded & {"monobound.compat_bounds", "monobound.variety_bounds",
                         "monobound.chern_invariants", "monobound.group_orders"}


def test_family_invariants_loads_no_fractions():
    family = json.dumps({"family": {"kind": "hypersurface", "n": 3, "degrees": [5]}})
    body = ("from monobound.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['invariants']) == 0\n"
            "assert 'fractions' not in sys.modules, 'fractions was loaded'")
    loaded = loaded_modules(body, stdin=family)
    assert "monobound.chern_invariants" in loaded
    assert "monobound.wd_matrix" not in loaded


SUBCOMMANDS = [
    (["cld", "--ell", "3", "--d", "2"], ""),
    (["cd", "--d", "2"], ""),
    (["refined", "--d", "2", "--p", "3"], ""),
    (["variety-bound", "--p", "7"],
     json.dumps({"family": {"kind": "hypersurface", "n": 2, "degrees": [4]}})),
    (["invariants"], json.dumps({"family": {"kind": "projective_space", "n": 3}})),
    (["descend"], json.dumps({"invariants": {"n": 2, "b": [0, 22], "c": [-4]}})),
    (["wd-decompose"], json.dumps({"matrix": [["-1", "1"], ["0", "-1"]]})),
]


def test_unknown_name_is_an_attribute_error():
    # library names live in their submodules only, not on the package
    with pytest.raises(AttributeError):
        monobound.no_such_name
    with pytest.raises(AttributeError):
        monobound.RationalMatrix
    with pytest.raises(ImportError):
        from monobound import no_such_name  # noqa: F401
    with pytest.raises(ImportError):
        from monobound import c_d  # noqa: F401


@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("argv, stdin", SUBCOMMANDS,
                         ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_no_subcommand_loads_hashlib(argv, stdin, cache, tmp_path):
    # hashlib loads OpenSSL; the scan cache keys entries by plain text and
    # checks them by CRC-32.  With a cache file each command runs twice, so
    # that cd stores on a miss and then reads a hit.  Nor is dataclasses
    # loaded: the records are slotted classes.  `site` may load either
    # itself in some environments, which is not the CLI's cost.
    env = (f"os.environ['MONOBOUND_CACHE'] = {str(tmp_path / 'scan.cache')!r}"
           if cache else "os.environ.pop('MONOBOUND_CACHE', None)")
    body = ("import os\n"
            f"{env}\n"
            "preloaded = {m for m in ('hashlib', 'dataclasses') if m in sys.modules}\n"
            "from monobound.cli import main\n"
            f"for _ in range({1 + cache}):\n"
            f"    sys.stdin = io.StringIO({stdin!r})\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"        assert main({argv!r}) == 0\n"
            "    for m in ('hashlib', 'dataclasses'):\n"
            "        assert m in preloaded or m not in sys.modules, f'{m} was loaded'\n"
            f"assert ('\"cached\": true' in out.getvalue()) is {cache and argv[0] == 'cd'}")
    assert "monobound.numtheory" in loaded_modules(body)


# float() and the math functions that answer in floating point
FLOAT_NAMES = {"float", "fsum", "floor", "ceil", "sqrt", "exp"}


def test_library_source_holds_no_float():
    # every answer is exact: no float literal, and no name (call, attribute
    # or import) of a float function, math.log* included.  Nor anything
    # that python -O changes: an assert statement (stripped; invariants
    # raise typed errors), the name __debug__ or a read of sys.flags.  So
    # the library runs the same with and without -O.
    found = []
    for path in sorted(Path(monobound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else "")
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    or name in FLOAT_NAMES or name.startswith("log")
                    or name == "__debug__"):
                found.append(f"{path.name}:{node.lineno}: {name or node.value!r}")
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            if (isinstance(node, ast.Attribute) and node.attr == "flags"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"
                    or isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name == "flags" for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}: sys.flags")
    assert found == []
