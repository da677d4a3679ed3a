"""Every ``python`` code block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})
