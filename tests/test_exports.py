import ast
import pathlib

import quatheta


def test_every_exported_name_resolves():
    # a name deleted from a module but left in __all__ would break
    # `from quatheta import *`
    missing = [n for n in quatheta.__all__ if not hasattr(quatheta, n)]
    assert missing == []
    assert len(set(quatheta.__all__)) == len(quatheta.__all__)


def test_every_exported_name_is_used_inside_the_package():
    # a public name that only tests call belongs in the tests: each
    # exported name must be read (as a Name or an Attribute) by some
    # module of the package other than __init__.py
    pkg = pathlib.Path(quatheta.__file__).parent
    used = set()
    for path in pkg.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [n for n in quatheta.__all__ if n not in used] == []
