"""Every library name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` replaces each module-level name in its ``SITES``
table with ``getattr``/``setattr``, so a library change that drops one
(say ``spingate.sweep.run_gate``) makes every traced benchmark run fail
with ``AttributeError``.  The tracer module is loaded from its file by
``laws.perfbench_module`` and left as it is: no bytecode is written next
to it.
"""

import importlib

from laws import perfbench_module


def test_every_library_site_names_an_existing_attribute():
    tracing = perfbench_module("tracing")
    sites = [(site, attr) for site, attr, _, _ in tracing.SITES if site != "bench"]
    assert sites
    missing = [f"{site}.{attr}" for site, attr in sites
               if not hasattr(importlib.import_module(site), attr)]
    assert missing == []
