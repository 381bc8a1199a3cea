"""Harness self-test.

    python3 perfbench/selftest.py

Runs every workload for one op (one round for `cli-readme`) at the warm-up
grid sizes, untraced and traced, and checks that:

- each run exits 0, every op passes its gate, and the last line is the
  result object with every metric BENCHMARK.json names, with its unit;
- the benchmark reaches spintorus only through the functions and classes in
  `spintorus.__all__` (and the `spintorus.cli` entry point), never through a
  private `_name` or a submodule;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(ROOT, "--workload", workload["name"], "--seed", "7",
                         "--seconds", "0", "--trace", str(trace), "--tiny")
            where = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                raise AssertionError(f"{where}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise AssertionError(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{where}: ops failed\n{done.stdout}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                raise AssertionError(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                raise AssertionError(f"{where}: non-numeric values for {bad}")
            print(f"ok  {where}: {len(got)} metrics, {result['attempted']} ops")


def check_public_api() -> None:
    """Every use of spintorus is `<alias>.<name>` with <name> an exported function or class.

    `spintorus.__all__` also lists the submodules, so a module name is rejected
    (`st.solver._pack` would otherwise pass), as is any other use of the alias
    itself, such as `getattr(st, "_x")` or `vars(st)`.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import inspect

    import spintorus

    public = {name for name in spintorus.__all__ if not inspect.ismodule(getattr(spintorus, name))}
    public |= {"__file__", "__version__"}
    for path in sorted(set(HERE.glob("*.py")) - {Path(__file__).resolve()}):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "spintorus"}
                if any(a.name.startswith("spintorus.") for a in node.names):
                    raise AssertionError(f"{path.name}:{node.lineno} imports a spintorus submodule")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spintorus":
                raise AssertionError(f"{path.name}:{node.lineno} imports from {node.module}")
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                if node.attr not in public:
                    raise AssertionError(f"{path.name}:{node.lineno} uses spintorus.{node.attr}")
                allowed.add(id(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in aliases and id(node) not in allowed:
                raise AssertionError(f"{path.name}:{node.lineno} uses the spintorus module itself")
    print("ok  benchmark uses only the functions and classes in spintorus.__all__")


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "--workload", "newton-polish", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print("ok  without the program: exit", done.returncode, "and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_public_api()
    check_refuses_without_program()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
