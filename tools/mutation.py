#!/usr/bin/env python3
"""Single-operator mutation testing of chosen functions against a test gate.

Each mutant changes one site in the named functions of one module:

- a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
- ``+`` and ``-`` swapped (also in ``+=`` and ``-=``), or ``and`` and ``or``;
- an int constant from 0 to 64 raised by 1.

For every mutant the module is rewritten (from its syntax tree, so its
comments and layout are not kept) into a copy of ``src/`` and the gate, a
list of pytest node ids, runs against that copy under ``pytest -x``.  A
mutant the gate passes survives; one that runs ten times as long as the
gate on the unmutated module, plus 10 s, is counted as caught.  The
script prints every survivor with the text of its line and ends with the
counts; its exit code is 1 when a mutant survived.  The gate must first
pass on the unmutated module, rewritten the same way.  Run from the
repository root:

    python tools/mutation.py flawsim.stk500 _xor FrameReader._fill --gate tests/test_stk500.py
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}


def _functions(tree: ast.Module, names: list[str]) -> list[ast.AST]:
    """The definitions named ``func`` or ``Class.method`` in tree."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + node.name] = node
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")

    visit(tree.body, "")
    missing = [name for name in names if name not in found]
    if missing:
        raise SystemExit(f"no function {', '.join(missing)} in the module")
    return [found[name] for name in names]


def _sites(tree: ast.Module, names: list[str]) -> list[tuple[ast.AST, int | None, str]]:
    """Every mutable site of the named functions, in a fixed order:
    (node, index of the operator in a comparison or None, description)."""
    sites = []
    for func in _functions(tree, names):
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _FLIPS:
                        sites.append((node, i, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_FLIPS[type(op)]]}"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _FLIPS:
                old, new = _SYMBOLS[type(node.op)], _SYMBOLS[_FLIPS[type(node.op)]]
                if isinstance(node, ast.AugAssign):
                    old, new = old + "=", new + "="
                sites.append((node, None, f"{old} -> {new}"))
            elif (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and 0 <= node.value <= 64
            ):
                sites.append((node, None, f"{node.value} -> {node.value + 1}"))
    return sites


def _mutant_source(tree: ast.Module, names: list[str], k: int) -> str:
    """The module with only its k-th site mutated."""
    tree = copy.deepcopy(tree)
    node, i, _ = _sites(tree, names)[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = _FLIPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _FLIPS[type(node.op)]()
    return ast.unparse(tree) + "\n"


def _run_gate(src: Path, gate: list[str], timeout: float | None) -> bool:
    """Whether the gate passes against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *gate]
    try:
        done = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the gate is caught by it
    return done.returncode == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("module", help="dotted module name under src/, e.g. flawsim.stk500")
    p.add_argument("functions", nargs="+", help="function names, Class.method for a method")
    p.add_argument("--gate", nargs="+", required=True, help="pytest node ids")
    args = p.parse_args(argv)

    rel = Path(*args.module.split(".")).with_suffix(".py")
    source = (REPO / "src" / rel).read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    sites = _sites(tree, args.functions)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / rel
        target.write_text(ast.unparse(tree) + "\n")  # rewritten as every mutant is
        start = time.perf_counter()
        if not _run_gate(src, args.gate, timeout=None):
            raise SystemExit("the gate fails on the unmutated module")
        timeout = 10 * (time.perf_counter() - start) + 10
        survivors = []
        for k, (node, _, change) in enumerate(sites):
            target.write_text(_mutant_source(tree, args.functions, k))
            if _run_gate(src, args.gate, timeout):
                survivors.append(f"{rel}:{node.lineno}: {change}\n    {lines[node.lineno - 1].strip()}")
                print(survivors[-1], flush=True)
    print(f"{len(sites)} mutants of {', '.join(args.functions)}: "
          f"{len(sites) - len(survivors)} caught, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
