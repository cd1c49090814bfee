"""The integer kernel stands alone.

``relaydiff/kernel.py`` imports only the standard library, numpy and
``relaydiff.errors``; ``relaydiff.scheduler`` calls it and neither defines
nor re-exports any of its names; and the kernel's own tests reach it
without the scheduler module.
"""

import ast
import sys
from pathlib import Path

import relaydiff
from relaydiff import scheduler

KERNEL = Path(relaydiff.__file__).resolve().parent / "kernel.py"
KERNEL_TESTS = Path(__file__).resolve().parent / "test_dp_kernel.py"


def imports(path: Path):
    """(module, names) of each import in ``path``; a relative module is resolved within relaydiff."""

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["relaydiff" if node.level else "", node.module]))
            yield module, tuple(alias.name for alias in node.names)


def test_kernel_imports_only_the_stdlib_numpy_and_errors():
    found = list(imports(KERNEL))
    assert ("relaydiff.errors", ("ConfigurationError",)) in found
    for module, names in found:
        top = module.split(".")[0]
        allowed = (top in sys.stdlib_module_names or top == "numpy" or module == "relaydiff.errors"
                   or (module == "relaydiff" and set(names) <= {"errors"}))
        assert allowed, f"kernel.py imports {names or ''} from {module}"


def test_scheduler_neither_defines_nor_re_exports_a_kernel_name():
    tree = ast.parse(KERNEL.read_text())
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets]
    assert {"knapsack_2d", "reduce_knapsack", "MAX_DP_BYTES", "_BITS_MAX", "_BY_RATIO"} <= set(defined)
    assert [name for name in defined if hasattr(scheduler, name)] == []


def test_kernel_tests_import_no_scheduler_name():
    found = list(imports(KERNEL_TESTS))
    assert "relaydiff.kernel" in [module for module, _ in found]
    for module, names in found:
        assert not module.startswith("relaydiff.scheduler"), f"test_dp_kernel.py imports {module}"
        assert not (module == "relaydiff" and "scheduler" in names), "test_dp_kernel.py imports scheduler"
