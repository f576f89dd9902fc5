"""The README code blocks must actually run and say true things."""

import re
import shlex
import warnings
from pathlib import Path

from exocalc.cli import main

README = Path(__file__).parents[1] / "README.md"


def python_blocks():
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_python_blocks_execute():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the quick tour's fitted rate matches its stated value
    assert abs(abs(namespace["rate"]) - 0.01) / 0.01 < 0.02
    assert namespace["u_plus"] == 0.99


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Every runnable ``exocalc`` line of the sh blocks exits 0 without a warning,
    next to the README's JSON example saved as ``cfg.json``."""
    text = README.read_text()
    (config,) = re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)
    (tmp_path / "cfg.json").write_text(config)
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
        for line in block.splitlines()
        if line.startswith("exocalc ") and "<" not in line
    ]
    assert len(lines) >= 5
    monkeypatch.chdir(tmp_path)  # ``--out results`` and ``cfg.json`` resolve here
    for line in lines:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(shlex.split(line)[1:]) == 0, line


def test_readme_layout_lists_every_module():
    """The Layout block names every library module, and every module of
    ``tests/`` that is not a ``test_*.py`` file."""
    text = README.read_text()
    layout = text[text.index("## Layout") :]
    match = re.search(r"```\nsrc/exocalc/\n(.*?)\n(tests/.*?)```", layout, flags=re.DOTALL)
    listed = {line.split()[0] for line in match.group(1).splitlines()}
    package = README.parent / "src" / "exocalc"
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert listed == modules
    named = {line.split()[0].removeprefix("tests/") for line in match.group(2).splitlines()}
    support = {p.name for p in (README.parent / "tests").glob("*.py") if not p.name.startswith("test_")}
    assert {name for name in named if name.endswith(".py")} == support
