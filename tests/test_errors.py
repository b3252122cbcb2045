import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metaretrain"


def _base_name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_one_exception_class_per_exit_code():
    """`errors.py` defines exactly ValidationError (exit 2) and NonFiniteError
    (exit 3), each straight from Exception, and no other module defines an
    exception class: a subclass no caller tells apart is one more name for
    the same exit code."""
    classes = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        classes += [(path.relative_to(PACKAGE).as_posix(), node.name, [_base_name(b) for b in node.bases])
                    for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type) and issubclass(getattr(builtins, name), BaseException)}
    found = {}
    while True:  # a class deriving from a package exception class is one too
        for module, name, bases in classes:
            if exceptions.intersection(bases):
                found[(module, name)] = bases
        if exceptions >= {name for _, name in found}:
            break
        exceptions |= {name for _, name in found}
    assert found == {("errors.py", "NonFiniteError"): ["Exception"],
                     ("errors.py", "ValidationError"): ["Exception"]}
