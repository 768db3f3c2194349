"""The package's export list matches what its __init__ imports."""

import ast
from pathlib import Path

import prefix_global


def test_every_exported_name_resolves():
    assert len(set(prefix_global.__all__)) == len(prefix_global.__all__)
    for name in prefix_global.__all__:
        assert hasattr(prefix_global, name), name


def test_every_public_import_is_exported():
    tree = ast.parse(Path(prefix_global.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public
    assert sorted(public - set(prefix_global.__all__)) == []
