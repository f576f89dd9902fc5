"""The README code blocks must actually run and say true things."""

import re
from pathlib import Path

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


def test_readme_layout_lists_every_module():
    text = README.read_text()
    layout = text[text.index("## Layout") :]
    block = re.search(r"```\nsrc/exocalc/\n(.*?)\ntests/", layout, flags=re.DOTALL).group(1)
    listed = {line.split()[0] for line in block.splitlines()}
    package = README.parent / "src" / "exocalc"
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert listed == modules
