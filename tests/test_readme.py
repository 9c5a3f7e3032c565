"""The README's Quick start block runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run(source: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    return out.getvalue().splitlines()


def test_quick_start_prints_its_comments():
    lines = run(quick_start())
    assert lines[0].startswith("0.559")
    assert lines[-1] == "1.0"


def test_chain_loop_stays_small_for_every_seed():
    # stale spins left in the register once overflowed it on some seeds
    source = quick_start()
    assert source.count("default_rng(2)") == 1
    for seed in range(200):
        lines = run(source.replace("default_rng(2)", f"default_rng({seed})"))
        assert lines[-1] == "1.0", seed
