"""Module layering, read from the import statements: the tensor core stands
alone, and only the CLI reaches the oracles in ``verify``, so oracle-only code
cannot creep back into the product modules. No module holds a catch-all
``except``, so an internal bug cannot be reported as bad input."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "visionflow"


def package_imports(module: str) -> set[str]:
    """The visionflow modules that ``module`` imports, by their bare names."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["visionflow" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(d.split(".")[1] for d in dotted if d.startswith("visionflow."))
    return names


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def test_the_import_reader_sees_relative_imports():
    assert {"rng", "sampling"} <= package_imports("encoders")
    assert "verify" in package_imports("cli")


def test_tensor_core_imports_no_other_visionflow_module():
    assert package_imports("tensor") == set()


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("cli", "verify")])
def test_only_the_cli_imports_verify(module):
    assert "verify" not in package_imports(module)



def catch_alls(source: str) -> list[int]:
    """Lines of ``source`` whose except clause is bare or names Exception or BaseException."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                                    for t in caught):
            lines.append(node.lineno)
    return lines


def test_the_catch_all_reader_sees_bare_and_broad_handlers():
    source = ("try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept (KeyError, Exception):\n    pass\n"
              "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert catch_alls(source) == [3, 7]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_catches_everything(module):
    # a catch-all reports an internal bug as whatever its handler says
    assert catch_alls((PACKAGE / f"{module}.py").read_text()) == []
