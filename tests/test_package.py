"""Properties of the library source as a whole."""

import pathlib
import re

import regracut

ENV_READ = re.compile(r"\benviron\b|\bgetenv\b")


def test_library_reads_no_environment_variable():
    # results depend on arguments only; no variable may change what or how
    # the library computes
    root = pathlib.Path(regracut.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    readers = [
        f"{path.relative_to(root)}:{number}"
        for path in modules
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ENV_READ.search(line)
    ]
    assert readers == []
