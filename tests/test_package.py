"""Package-wide source checks."""

import warnings
from pathlib import Path

import garside


def test_sources_compile_without_warnings():
    # compile() re-emits invalid-escape warnings whatever the bytecode cache
    # holds, so stale __pycache__ files cannot hide them
    sources = sorted(Path(garside.__file__).parent.rglob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
