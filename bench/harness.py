"""Run a workload's items through the relred CLI in this process.

One closed-loop client: each CLI invocation starts only after the previous
one returns.  Invocations go through ``relred.cli.main`` with stdout and
stderr captured, exactly as the ``relred`` entry point runs them except
that the exit code is returned instead of ending the process.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import traceback

import gen

clock = time.perf_counter


def load_cli(root: str):
    """Import ``relred.cli`` from ``root/src`` and return its click group."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from relred.cli import main

    return main


def invoke(main, argv) -> tuple[int, str, str]:
    """One CLI invocation: (exit code, stdout, stderr)."""
    from click import ClickException

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="relred", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else int(e.code is not None)
        except ClickException as e:
            e.show()
            code = e.exit_code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_item(call, item) -> list[tuple[int, str, str]]:
    """Run an item's steps in order, stopping at the first that fails."""
    results = []
    for argv in item["steps"]:
        results.append(call(argv))
        if results[-1][0] != 0:
            break
    return results


def warm_up(call, items) -> None:
    """Run, untimed, the first item that uses each command."""
    seen: set[str] = set()
    for item in items:
        commands = {argv[0] for argv in item["steps"]}
        if not commands <= seen:
            run_item(call, item)
            seen |= commands


def run_pass(call, items) -> tuple[list[float], list[list[tuple[int, str, str]]]]:
    """Time one pass over the items: (per-item s, results).

    Bundle directories are overwritten in place, not removed between
    passes: deleting and recreating them put file-system journal stalls of
    up to twice the item's time into the certify latencies.  Every run
    starts from an empty directory, so each bundle is first written by the
    run's own invocations."""
    latencies, results = [], []
    for item in items:
        t0 = clock()
        results.append(run_item(call, item))
        latencies.append(clock() - t0)
    return latencies, results


# ---------------------------------------------------------------------------
# Checks against the references gen.py wrote
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _check_relation(text: str, check: dict) -> str | None:
    attrs, rows = gen.parse_rel(text)
    if attrs != check["attrs"]:
        return f"attributes {attrs} != {check['attrs']}"
    if gen.rows_digest(rows) != check["digest"]:
        return "rows differ from the reference"
    return None


def check_item(item, results) -> str | None:
    """None when the item's output matches its reference, else why not."""
    check = item["check"]
    for argv, (code, _, err) in zip(item["steps"], results):
        if code != 0:
            return f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}"
    if len(results) != len(item["steps"]):
        return "not every step ran"
    kind = check["kind"]
    outs = [out for _, out, _ in results]
    if kind == "certify":
        if outs[:3] != check["stdout"]:
            return f"bundle paths {outs[:3]}"
        if not outs[3].startswith("valid "):
            return f"verify said {outs[3].strip()!r}"
        return _check_relation(_read(check["target"]), check)
    if kind == "relation":
        return _check_relation(outs[0], check)
    if kind == "text":
        return None if outs[0] == check["expect"] else f"got {outs[0]!r}"
    if kind == "degenerate":
        text = outs[0].strip().removeprefix("degenerate: ")
        if not check["degenerate"]:
            return None if text == "no" else f"got {outs[0]!r}, expected no"
        if text == "no":
            return "said no, expected a witness"
        _, rows = gen.parse_rel(_read(check["rel"]))
        blocks = [tuple(int(a) - 1 for a in b.split(",")) for b in text.split("|")]
        if sorted(i for b in blocks for i in b) != list(range(len(next(iter(rows))))):
            return f"witness {text} is not a bipartition"
        return None if gen.is_product(rows, blocks) else f"witness {text} is not a product"
    if kind == "census":
        lines = outs[0].splitlines()
        fields = lines[1].split(",") if len(lines) == 2 else []
        if (len(fields) < 8 or [int(x) for x in fields[2:5]] != check["counts"]
                or fields[7] != check["mode"]):
            return f"census row {lines}"
        return None
    return f"unknown check {kind!r}"
