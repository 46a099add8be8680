"""Package layout: modules use only each other's public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pspinlab

PACKAGE = Path(pspinlab.__file__).parent
REPO = PACKAGE.parent.parent


def private_imports(path: Path) -> list:
    """(module, name) for every underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "pspinlab"
        if sibling:
            found += [(node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = {p.name: private_imports(p) for p in modules}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def used_names(path: Path) -> set:
    """Every name a file reads or imports.

    A def, a class, an assignment, a docstring or an ``__all__`` entry is no use.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_export_has_a_caller():
    # a public name that only the unit tests reach belongs in tests/, not in the package
    init = PACKAGE / "__init__.py"
    exported = {a.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p != init]
    callers += sorted(REPO.glob("demos/*.py")) + sorted(REPO.glob("perfbench/*.py"))
    callers.append(REPO / "tests" / "test_acceptance.py")
    assert len(callers) >= 20 and len(exported) >= 50
    used = set().union(*(used_names(p) for p in callers))
    assert sorted(exported - used) == []


def blas_reductions(source: str) -> list:
    """(line, call) for every reduction a BLAS may split by thread count."""
    numpy_names = {"dot", "matmul", "inner", "vdot", "tensordot"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            from_numpy = isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")
            if f.attr == "dot" or (from_numpy and f.attr in numpy_names):
                found.append((node.lineno, ast.unparse(f)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return sorted(found)


def test_blas_reduction_check_sees_each_form():
    source = "np.dot(a, b)\nnumpy.tensordot(a, b)\nx.dot(y)\nc = a @ b\nc @= b\nnp.einsum('i,i->', a, b)\n"
    assert blas_reductions(source) == [(1, "np.dot"), (2, "numpy.tensordot"), (3, "x.dot"),
                                       (4, "@"), (5, "@")]


def test_no_blas_threaded_reductions():
    # a BLAS dot or gemv splits its sum by thread count, so its bits would follow it
    offenders = {p.name: blas_reductions(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def scipy_solver_imports(path: Path) -> list:
    """Every import of scipy.optimize or scipy.integrate in one module."""
    solvers = {"scipy.optimize", "scipy.integrate"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [n for n in names if any(n == s or n.startswith(s + ".") for s in solvers)]
    return found


def test_no_scipy_solvers_at_run_time():
    # scipy.optimize and scipy.integrate are test oracles, not run-time code
    offenders = {p.name: scipy_solver_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def int_checks(source: str) -> list:
    """Lines of every ``isinstance(x, int)`` call, ``int`` alone or in a tuple."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                found.add(node.lineno)
    return sorted(found)


def test_integer_arguments_checked_only_in_errors():
    # errors.check_count and check_sizes are the one rule; a hand-written copy
    # drifts, and several let a float or a bool through
    assert int_checks("isinstance(a, int)\nisinstance(b, (bool, int))\nisinstance(c, float)\n") == [1, 2]
    offenders = {p.name: int_checks(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
                 if p.name != "errors.py"}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def silenced_errors(source: str) -> list:
    """(line, keyword) for every ``errstate`` setting other than over- or underflow."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "errstate"):
            found += [(node.lineno, kw.arg) for kw in node.keywords if kw.arg not in ("over", "under")]
    return found


def test_errstate_sets_only_over_and_underflow():
    # an ignored overflow is retried or tested for inf; a NaN from bad
    # arithmetic (invalid, divide) must never be hidden
    source = ("np.errstate(over='ignore', under='ignore')\nnp.errstate(all='ignore')\n"
              "np.errstate(invalid='ignore', divide='ignore')\nnp.errstate(**kw)\n")
    assert silenced_errors(source) == [(2, "all"), (3, "invalid"), (3, "divide"), (4, None)]
    offenders = {p.name: silenced_errors(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def test_runs_load_no_scipy_solvers(tmp_path):
    script = """
import sys
from pspinlab.cli import main
assert main(["run", "--mode", "theorem1", "--n", "8", "--p", "3", "--beta", "0.4",
             "--replicas", "4", "--seed", "2", "--out", sys.argv[1]]) == 0
assert main(["constants", "--p", "5", "--beta", "0.3"]) == 0
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "run.csv")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"
