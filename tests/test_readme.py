"""The Python examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = python_blocks()
    assert blocks, "README.md has no python code block"
    monkeypatch.chdir(tmp_path)
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
