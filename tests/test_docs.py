"""Every name the docs point at exists: the package names in README.md's
backticks, and the module-qualified names in the package's docstrings."""

import ast
import importlib
import pathlib
import re

import pytest

import recsplit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(recsplit.__file__).resolve().parent
MODULES = "scheme|revir|chan|producer|consumer|harness|cli|record"
# a file name, such as scheme.txt, names no attribute
FILE_SUFFIXES = {"json", "jsonl", "md", "py", "toml", "txt"}


def resolve(dotted: str):
    """The object dotted names: a module of recsplit, then attributes of it in turn."""
    first, *attributes = dotted.removeprefix("recsplit.").split(".")
    found = importlib.import_module(f"recsplit.{first}")
    for attribute in attributes:
        found = getattr(found, attribute)
    return found


def readme_names(text: str) -> list:
    """Each backticked package name outside the fenced code blocks, once, in order."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    names = re.findall(rf"`((?:recsplit\.)?(?:{MODULES})(?:\.\w+)*)(?:\(\))?`", prose)
    return list(dict.fromkeys(name for name in names if name.rsplit(".", 1)[-1] not in FILE_SUFFIXES))


def docstring_names(source: str) -> list:
    """Each module-qualified name in source's docstrings, once, in order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names += re.findall(rf"\b(?:{MODULES})(?:\.[A-Za-z_]\w*)+", ast.get_docstring(node) or "")
    return list(dict.fromkeys(name for name in names if name.rsplit(".", 1)[-1] not in FILE_SUFFIXES))


README_NAMES = readme_names(README.read_text(encoding="utf-8"))
DOCSTRING_NAMES = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
                   for name in docstring_names(path.read_text(encoding="utf-8"))]


def test_the_scans_find_the_pointers():
    assert {"chan.publish", "harness._SplitRunner", "recsplit.record.Record"} <= set(README_NAMES)
    assert ("revir.py", "record.Record") in DOCSTRING_NAMES
    assert readme_names("`chan.publish` `scheme.txt` `harness`\n```\n`cli.main`\n```") == ["chan.publish", "harness"]


@pytest.mark.parametrize("name", README_NAMES)
def test_each_package_name_in_the_readme_resolves(name):
    resolve(name)


@pytest.mark.parametrize("path, name", DOCSTRING_NAMES)
def test_each_qualified_name_in_a_docstring_resolves(path, name):
    resolve(name)
