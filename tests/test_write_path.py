import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metaretrain"


def test_whole_files_are_written_only_through_write_atomic():
    """A `.write_text(` or `.write_bytes(` call outside `write_atomic` writes a
    file in place, where a killed run leaves it half-written."""
    offenders, definitions = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        atomic = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "write_atomic"]
        definitions += [path.relative_to(PACKAGE).as_posix() for _ in atomic]
        allowed = {id(node) for fn in atomic for node in ast.walk(fn)}
        offenders += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("write_text", "write_bytes") and id(node) not in allowed]
    assert offenders == []
    assert definitions == ["nn/checkpoint.py"]
