"""The README's Quick start block runs as written and prints what it says,
its command lines run and write output, and its lists of config keys,
axes and output columns are the code's."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from spingate import cli
from spingate.sweep import OUTPUT_COLUMNS, SweepAxis

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


def backticked_names(text: str) -> list[str]:
    return re.findall(r"`([A-Za-z_]+)`", text)


def test_key_lists_match_the_code():
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    value_types = text.split("Value types:", 1)[1].strip().split("\n\n", 1)[0]
    assert set(backticked_names(value_types)) - {"true", "false"} == cli._CONFIG_KEYS
    axes = text.split("Axes:", 1)[1].split("\n", 1)[0]
    assert backticked_names(axes) == [axis.value for axis in SweepAxis]
    columns = text.split("Output columns", 1)[1].split(".", 1)[0]
    assert backticked_names(columns) == list(OUTPUT_COLUMNS)
    # every config key but the one the README names has a flag
    assert "Only `pulse_center` has no flag" in text
    destinations = {action.dest for action in cli.build_parser()._actions}
    assert destinations - {"help", "config"} == cli._CONFIG_KEYS - {"pulse_center"}


def command_line_block(lang: str) -> str:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    # each `spingate` line, continuations joined, with the JSON block as sweep.json
    (tmp_path / "sweep.json").write_text(command_line_block("json"))
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line)
             for line in command_line_block("sh").replace("\\\n", " ").splitlines()]
    assert len(lines) == 4
    for words in lines:
        assert words[0] == "spingate"
        assert cli.main(words[1:]) == 0, words
        out = words[words.index("--out") + 1]
        printed = capsys.readouterr().out
        assert (printed if out == "-" else (tmp_path / out).read_text()), words
