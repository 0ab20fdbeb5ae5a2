"""numpy is imported only by the commands and names that compute arrays."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import trunc_centroid as tc
from trunc_centroid import sampler, verification

REF = ["--mu=1", "--sigma=2", "--lower=-1", "--upper=4", "--shift=2"]

# Runs each argv through cli.run in one fresh process and prints, per step,
# the exit code and which of numpy, numpy.random and scipy (the last two
# never needed: their import cost and memory), dataclasses and inspect
# (about 10 ms of import, which the records do not need) and json (about
# 3 ms, which only JSON output needs) have been imported by then.  The
# probe itself imports json only after the last step.
_PROBE = """
import ast, contextlib, io, sys
def loaded():
    modules = ("numpy", "numpy.random", "scipy", "dataclasses", "inspect", "json")
    return [m for m in modules if m in sys.modules]
import trunc_centroid
steps = [["import trunc_centroid", 0, loaded()]]
missing = sorted(set(trunc_centroid.__all__) - set(dir(trunc_centroid)))
steps.append([f"dir() misses {missing}", 0 if not missing else 1, loaded()])
from trunc_centroid.cli import run
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    steps.append([argv, code, loaded()])
import json
print(json.dumps(steps))
"""


def _probe(*argvs: list[str]) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_do_not_import_numpy(tmp_path):
    figure = str(tmp_path / "figure.csv")
    # The text and csv runs come first: json is imported by the first run
    # that writes JSON, and by none before it.
    steps = _probe(
        *(
            ["centroid", *REF, "--method", method, "--format", fmt]
            for fmt in ("text", "csv")
            for method in ("closed_form", "quadrature")
        ),
        ["compare", *REF, "--format", "text"],
        ["figure"],
        ["figure", "--output", figure],
        ["--help"],
        *(
            ["centroid", *REF, "--method", method, "--format", "json"]
            for method in ("closed_form", "quadrature")
        ),
        ["compare", *REF, "--format", "json"],
        ["figure", "--output", figure, "--format", "json"],
    )
    wrote_json = False
    for step, code, loaded in steps:
        wrote_json = wrote_json or "json" in step
        assert code == 0, step
        assert loaded == (["json"] if wrote_json else []), step
    assert wrote_json


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", *REF, "--n=100", "--seed=1"],
        ["verify", "--check", "monotonicity"],
        ["centroid", *REF, "--method", "all", "--n=100", "--seed=1"],
    ],
    ids=["sample", "verify", "method_all"],
)
def test_array_commands_import_numpy(argv):
    _, code, loaded = _probe(argv)[-1]
    assert code == 0
    # numpy may import inspect and dataclasses for itself.
    assert set(loaded) - {"dataclasses", "inspect"} == {"numpy"}


def test_lazy_names_resolve():
    for name in tc.__all__:
        assert getattr(tc, name) is not None, name
    assert tc.sample_exterior is sampler.sample_exterior
    assert tc.MonteCarloEstimate is sampler.MonteCarloEstimate
    assert tc.SweepSpec is verification.SweepSpec
    assert tc.verify_bounds is verification.verify_bounds
    namespace = {}
    exec("from trunc_centroid import *", namespace)
    assert set(tc.__all__) <= namespace.keys()
    assert set(tc.__all__) <= set(dir(tc))
    with pytest.raises(AttributeError):
        tc.no_such_name
    with pytest.raises(ImportError):
        exec("from trunc_centroid import no_such_name", {})


def _numpy_imports(tree: ast.Module):
    """(top level, line) of every import of numpy or a numpy submodule."""
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            yield id(node) in top, node.lineno


def test_numpy_is_imported_at_the_top_of_three_modules_only():
    # An import inside a function, an if block (TYPE_CHECKING included) or
    # a try block counts as not at the top.
    package = pathlib.Path(tc.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        for at_top, line in _numpy_imports(ast.parse(path.read_text(), str(path))):
            found.setdefault(path.name, []).append((at_top, line))
    assert sorted(found) == ["philox.py", "sampler.py", "verification.py"]
    for name, imports in found.items():
        assert all(at_top for at_top, _ in imports), (name, imports)
