"""Inventory of environment-variable options read by the package.

Each environment variable the code reads is a settable option that every
test and benchmark configuration would have to cover.  The package reads
exactly one: ``REPRO_SOLVER``, which selects the reference solver the fast
path is validated against.  A new read fails this test until the inventory
is changed on purpose.
"""

import ast
import os

import repro

ALLOWED = {"REPRO_SOLVER"}


def _is_environ(node):
    """``os.environ`` or a bare ``environ``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _key(node, constants):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id, f"<unresolved {node.id}>")
    return "<unresolved expression>"


def environment_reads(tree):
    """The variable names one module reads from the environment."""
    constants = {
        target.id: stmt.value.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            is_get = (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "pop", "setdefault")
                and _is_environ(func.value)
            )
            is_getenv = (
                isinstance(func, ast.Attribute) and func.attr == "getenv"
            ) or (isinstance(func, ast.Name) and func.id == "getenv")
            if is_get or is_getenv:
                reads.append(_key(node.args[0], constants))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            reads.append(_key(node.slice, constants))
    return reads


def test_environment_reads_only_the_solver_selector():
    root = os.path.dirname(repro.__file__)
    found = {}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for variable in environment_reads(tree):
                found.setdefault(variable, []).append(
                    os.path.relpath(path, root)
                )
    assert set(found) == ALLOWED, found


def test_scanner_sees_each_read_form():
    tree = ast.parse(
        "import os\n"
        "from os import environ, getenv\n"
        "NAME = 'A'\n"
        "os.environ.get(NAME)\n"
        "os.getenv('B')\n"
        "environ['C']\n"
        "getenv('D', '1')\n"
    )
    assert environment_reads(tree) == ["A", "B", "C", "D"]
