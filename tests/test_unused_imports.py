"""No library module imports a name it never uses, bar the tracer's sites.

No linter ships with the project, so this is the check a ``noqa: F401``
comment would otherwise answer to.  Each ``src/spingate`` module except the
package ``__init__`` (which re-exports) is parsed with ``ast``; an imported
name counts as used when any ``Name`` node in the module names it.  The
names kept only so the benchmark tracer can wrap them are listed here, not
read from the tracer, so they leave this list with their imports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spingate"

# imported only for the benchmark tracer to wrap at these module paths
TRACER_ONLY = {"sweep.run_gate", "sweep.pulse_etas", "sweep.tensor", "cluster.permute"}


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.stem}.{name}" for name in imported - used}


def test_only_the_tracer_sites_are_imported_unused():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 1
    unused = set().union(*(unused_imports(p) for p in modules))
    assert unused == TRACER_ONLY
