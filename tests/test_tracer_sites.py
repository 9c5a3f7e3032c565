"""Every library name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` replaces each module-level name in its ``SITES``
table with ``getattr``/``setattr``, so a library change that drops one
(say ``spingate.sweep.run_gate``) makes every traced benchmark run fail
with ``AttributeError``.  The tracer module is loaded from its file and
left as it is: no bytecode is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_library_site_names_an_existing_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(site, attr) for site, attr, _, _ in tracing.SITES if site != "bench"]
    assert sites
    missing = [f"{site}.{attr}" for site, attr in sites
               if not hasattr(importlib.import_module(site), attr)]
    assert missing == []
