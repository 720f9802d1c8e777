"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = list(re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S))


def test_the_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    # padded so that a traceback names the block's own README lines
    source = "\n" * TEXT.count("\n", 0, block.start(1)) + block.group(1)
    namespace = {"__name__": "readme"}
    try:
        exec(compile(source, str(README), "exec"), namespace)
    finally:
        # a block may leave a live service running; the next block starts afresh
        if "mirror" in namespace:
            namespace["mirror"].close()
        if "node" in namespace:
            namespace["node"].stop()
