"""The CI workflow names only tests that exist.

The workflow's floor job runs a hand-written list of test ids at the oldest
numpy and scipy that pyproject.toml declares, which are not what a local run
has installed; a renamed or deleted test would fail there unseen.  The
workflow is read as text, so no yaml package is needed.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_id_in_the_workflow_exists():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    ids = sorted(set(re.findall(r"tests/[\w/]+\.py(?:::\w+)*", workflow)))
    assert len(ids) > 20, ids  # the floor job's list is read
    for test_id in ids:
        path, *names = test_id.split("::")
        assert (ROOT / path).is_file(), test_id
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:  # a class, then a method; or a function
            found = [node for node in scope
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
            assert found, test_id
            scope = found[0].body
