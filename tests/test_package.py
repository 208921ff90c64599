"""The package's public namespace and what importing it loads."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import lctplane

# Off-curve, smooth, lambda-set and wbound queries need no algebra, and the
# closed form, the Newton polygon in adapted coordinates, the resolution, the
# classifier and the Milnor number of a reduced germ are decided by integer
# coprimality certificates and Yun's squarefree parts, so none of them may
# load sympy; only a repeated tangent part of degree >= 2 on an exceptional
# divisor is factored, which does.
_LAZY_SYMPY = textwrap.dedent(
    """
    import sys
    from lctplane import lct, parse_poly
    from lctplane.cli import main

    assert "dataclasses" not in sys.modules, "dataclasses"
    assert "sympy" not in sys.modules, "import"
    for argv in (
        ["lct", "x^2+y^3", "--point", "7,5"],
        ["lct", "y - x^2", "--format", "json"],
        ["lambda-set", "4"],
        ["wbound", "x^3+y^4", "--weights", "4,3"],
        ["lct", "x^2+y^3"],
        ["lct", "x^2+y^5"],
        ["classify", "y^3-x^2*y+x^4"],
        ["milnor", "x^3+y^7+x*y^5"],
        ["lct", "(x-y^2)^2+y^7"],
        # double roots of t^2 - 2 on the Newton edge, which resolve factors
        ["lct", "(x^2-2*y^2)^2+y^7"],
        # x times a germ: the squarefree certificate reads the cofactor
        ["lct", "x^3*y^3 - 1/2*x^2*y^4 + 3*x^5 + x^4 - 8/3*x^3*y - 11/9*x^2*y^2 + 2/3*x*y^3"],
    ):
        assert main(argv) == 0, argv
        assert "sympy" not in sys.modules, argv
    assert lct(parse_poly("x^2+y^3")).method == "highmult"
    assert lct(parse_poly("x^2+y^5")).method == "newton"
    assert lct(parse_poly("(x-y)^2+y^5")).method == "newton"
    assert "sympy" not in sys.modules, "lct"
    assert lct(parse_poly("(x-y)^2+y^7")).method == "newton"
    assert "sympy" not in sys.modules, "adapted lct"
    # x^2 divides it: refused without the gcd
    assert main(["lct", "x^2*y^2"]) == 3
    assert "sympy" not in sys.modules, "non-reduced"
    assert main(["resolve", "(x^2-2*y^2)^2+y^5"]) == 4
    assert "sympy" in sys.modules, "repeated irrational tangent"
    assert "lctplane.selftest" not in sys.modules, "selftest"
    """
)


def test_star_import_resolves_all():
    namespace = {}
    exec("from lctplane import *", namespace)
    assert set(lctplane.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(lctplane.__path__)))
def test_submodule_all_names_exist(name):
    module = importlib.import_module(f"lctplane.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _run(*args):
    """A fresh interpreter with ``args``, importing this lctplane."""
    path = (str(Path(lctplane.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cheap_routes_do_not_import_sympy():
    proc = _run("-c", _LAZY_SYMPY)
    assert proc.returncode == 0, proc.stderr


def test_cold_import_without_site_loads_no_resource_machinery():
    # under -S no site hook preloads anything, so this sees what the import
    # itself pulls in: the tables are read by path, not by importlib.resources
    code = (
        "import sys\n"
        "from lctplane.cli import main\n"
        "print(' '.join(m for m in ('importlib.resources', 'pathlib', 'zipfile', 'sympy', 'random')"
        " if m in sys.modules))"
    )
    proc = _run("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cold_well_formed_argv_loads_no_argparse():
    # a well-formed argv is read off the argument table; argparse is loaded
    # only to report a usage error, in its own words
    code = (
        "import sys\n"
        "from lctplane.cli import main\n"
        "assert main(['lct', '(x-y^2)^2+y^7', '--format', 'json']) == 0\n"
        "assert main(['resolve', 'x^2+y^3', '--point=0,0']) == 0\n"
        "print(' '.join(m for m in ('argparse', 'importlib.resources', 'sympy', 'random')"
        " if m in sys.modules))\n"
        "for argv in (['lct', 'x^2+y^3', '--bogus'], ['lct', 'x^2+y^3', '--format', 'xml']):\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit as exc:\n"
        "        print(exc.code)\n"
    )
    proc = _run("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == '{"lct": "9/14", "method": "newton"}' and lines[-4] == "lct = 5/6"
    assert lines[-3:] == ["", "2", "2"]  # no module of the list loaded; two usage errors
    # an unknown option and a bad choice are both the subcommand parser's errors
    bogus, xml = proc.stderr.split("usage: ")[1:]
    assert bogus.startswith("lctplane lct [-h]") and "unrecognized arguments: --bogus" in bogus
    assert xml.startswith("lctplane lct [-h]") and "invalid choice: 'xml'" in xml


def _spans():
    """The benchmark's span recorder, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "lctbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("lctbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_trace_targets_exist():
    """Every lctplane name the benchmark's tracer wraps still resolves."""
    spans = _spans()
    missing = []
    for module_name, attr in [target[:2] for target in spans.TARGETS] + [spans.BLOWUP_TARGET]:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):  # "Class.method" is a class attribute
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert not missing


def test_traced_resolution_counts_every_node():
    """The tracer counts one blowup per ledger node, the nodes of a run that
    the blowup loop writes in one step among them."""
    from lctplane import resolution
    from lctplane.parse import parse_poly

    tracer = _spans().Tracer()
    tracer.install()
    try:
        tree = resolution.resolve_over_origin(parse_poly("x^2+y^63"))
    finally:
        tracer.uninstall()
    assert len(tree.nodes) == 33
    assert tracer.blowups == len(tree.nodes)
    assert tracer.layer_metrics()["resolution.calls"] == 1
