"""Line trace of the CLI: which statements of src/loraeh no run reaches.

Run from the repository root:

    PYTHONPATH=src python tests/reachability.py

It makes 30 in-process `loraeh.cli.main` runs under `sys.settrace`: 14
subcommand runs at the default config, the same 14 at
perfbench/slow_mixing.ini, and two `--help`. One run of each 14 reads a
temporary file that adds `[capacitor] mode = literal` to the pass's keys,
since no flag selects the literal reduction. It counts the statements inside
function bodies, other than definitions, imports, docstrings and `except`
clauses; a compound statement counts by its header. Module and class bodies
run at import and are not counted. A statement ran if a line event fell on
one of its lines (a compound statement's: its header's). It prints each
module's unreached statements and the totals.
"""

import ast
import configparser
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import loraeh
from loraeh import cli

PACKAGE = Path(loraeh.__file__).resolve().parent
SLOW_MIXING = Path(__file__).resolve().parents[1] / "perfbench" / "slow_mixing.ini"
RUNS = [
    ["capacitor-trace"],
    ["steady-state"],
    ["steady-state", "--bins", "200"],
    ["outage-sweep"],
    ["coverage", "--scheme", "ud"],
    ["coverage", "--scheme", "wd"],
    *(["act-plan", "--act", act, "--scheme", scheme, "--bins", "600"] for act in ("cdc", "cve") for scheme in ("ud", "wd")),
    ["simulate", "--scheme", "ud"],
    ["simulate", "--scheme", "wd"],
    ["simulate", "--per-device", "--devices", "50", "--warmup", "100"],
]
HELP = [["--help"], ["steady-state", "--help"]]


def counted(tree):
    """{statement node: the lines on which a line event means it ran}, per the rules above."""
    out = {}

    def definitions(body):  # a module or class body: only the functions it defines count
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(node)
            elif isinstance(node, ast.ClassDef):
                definitions(node.body)

    def function(fn):
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            body = body[1:]
        statements(body)

    def statements(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                definitions([node])
                continue
            blocks = [getattr(node, f) for f in ("body", "orelse", "finalbody") if getattr(node, f, None)]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            header_end = blocks[0][0].lineno if blocks else node.end_lineno + 1
            out[node] = range(node.lineno, max(header_end, node.lineno + 1))
            for block in blocks:
                statements(block)

    definitions(tree.body)
    return out


def trace_runs():
    """{file name: set of lines with a line event} over the 30 runs."""
    hit = {}
    root = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hit.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for config in ([], ["--config", str(SLOW_MIXING)]):
            literal = configparser.ConfigParser()  # the pass's keys and mode = literal
            literal.read(config[1:])
            literal.read_dict({"capacitor": {"mode": "literal"}})
            path = Path(tmp) / f"literal-{len(jobs)}.ini"
            with open(path, "w", encoding="utf-8") as fh:
                literal.write(fh)
            jobs += [args + config for args in RUNS]
            jobs.append(["steady-state", "--config", str(path)])
        jobs += HELP
        for i, args in enumerate(jobs):
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(args + (["--out", f"{tmp}/{i}"] if "--help" not in args else []))
            finally:
                sys.settrace(None)
            if code != 0:
                raise SystemExit(f"{' '.join(args)} exited {code}")
    return hit


def main():
    hit = trace_runs()
    ran = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        events = hit.get(str(path), set())
        statements = counted(ast.parse(source, filename=str(path)))
        missed = sorted(node.lineno for node, span in statements.items() if not events.intersection(span))
        ran += len(statements) - len(missed)
        total += len(statements)
        print(f"{path.name}: {len(statements) - len(missed)} of {len(statements)} ran")
        for lineno in missed:
            print(f"  {lineno:4d}  {lines[lineno - 1].strip()}")
    print(f"total: {ran} of {total} statements ran, {total - ran} did not")


if __name__ == "__main__":
    main()
