"""The README's Library example runs as written, so the API it shows cannot
drift from the code."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def python_block(heading):
    """The first ```python block under the README's ``## heading``."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(python_block("Library"), namespace)
    result, meshes = namespace["result"], namespace["meshes"]
    assert result.termination.kind == "converged"
    assert len(meshes) == len(result.series)
    assert meshes[-1] is result.final_state.mesh
    assert namespace["summary"]["max_residuals"]["h_ode"] is not None
