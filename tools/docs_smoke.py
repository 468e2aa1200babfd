#!/usr/bin/env python3
"""Execute every fenced ``bash`` and ``python`` block of the docs as a
smoke test.

Documentation that is not executed rots; this runner keeps every example
in ``docs/*.md`` and ``README.md`` honest by actually running it:

* blocks fenced as ```` ```bash ```` are executed with
  ``bash -euo pipefail`` — any failing command fails the run;
* blocks fenced as ```` ```python ```` run after the page's bash blocks,
  in document order, in one interpreter whose namespace they share (so a
  block can use the names an earlier one defined) — an exception fails
  the run;
* all blocks of one page share a scratch working directory (so a page can
  build on files created by its earlier blocks) and pages are isolated
  from each other and from the repository checkout;
* ``PYTHONPATH`` points at the checkout's ``src`` and the repetition knobs
  (``RUNS``, ``REPRO_RUNS``) default to 1 so paper-scale commands written
  as ``--runs "${RUNS:-50}"`` complete in seconds;
* a block whose first line is ``# docs-smoke: skip`` is reported but not
  run (escape hatch for genuinely non-executable snippets — currently
  none).

Usage::

    python tools/docs_smoke.py            # docs/*.md and README.md
    python tools/docs_smoke.py docs/cli.md  # one page
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SKIP_MARKER = "# docs-smoke: skip"

_FENCE = r"^```{}\s*$(.*?)^```\s*$"

#: Runs a page's python blocks (a JSON list on stdin) in one namespace and
#: prints one JSON status per block, the last line of its stdout.
_PYTHON_RUNNER = """
import contextlib, io, json, sys, time, traceback
namespace, statuses = {"__name__": "__main__"}, []
for index, block in enumerate(json.load(sys.stdin), start=1):
    output, started = io.StringIO(), time.monotonic()
    try:
        with contextlib.redirect_stdout(output), \\
                contextlib.redirect_stderr(output):
            exec(compile(block, f"<python block {index}>", "exec"), namespace)
    except BaseException:
        statuses.append({"output": output.getvalue() + traceback.format_exc()})
        break
    statuses.append({"elapsed": time.monotonic() - started})
print(json.dumps(statuses))
"""


def extract_blocks(page: Path, language: str = "bash") -> List[str]:
    """The page's ``language`` fenced blocks, in document order."""
    fence = re.compile(_FENCE.format(language), re.MULTILINE | re.DOTALL)
    return [match.group(1).strip() for match in fence.finditer(page.read_text())]


def _fail(label: str, block: str, stdout: str, stderr: str = "") -> None:
    print(f"FAIL {label}")
    print("--- block " + "-" * 52)
    print(block)
    print("--- stdout " + "-" * 51)
    print(stdout)
    print("--- stderr " + "-" * 51)
    print(stderr)
    sys.exit(1)


def run_python_blocks(page: Path, blocks: List[str], scratch: str,
                      env: dict) -> Tuple[int, int]:
    """Run a page's python blocks in one interpreter; (ran, skipped)."""
    runnable = []
    for index, block in enumerate(blocks, start=1):
        lines = block.splitlines()
        if not lines or lines[0].strip() == SKIP_MARKER:
            print(f"SKIP {page}#py{index}")
        else:
            runnable.append((index, block))
    if not runnable:
        return 0, len(blocks)
    result = subprocess.run(
        [sys.executable, "-c", _PYTHON_RUNNER], cwd=scratch, env=env,
        input=json.dumps([block for _, block in runnable]),
        capture_output=True, text=True,
    )
    lines = result.stdout.splitlines()
    statuses = json.loads(lines[-1]) if result.returncode == 0 else []
    for (index, block), status in zip(runnable, statuses):
        if "output" in status:
            _fail(f"{page}#py{index}", block, status["output"])
        print(f"ok   {page}#py{index} ({status['elapsed']:.1f}s)")
    if len(statuses) != len(runnable):
        _fail(f"{page}#py (interpreter exit {result.returncode})",
              "\n\n".join(block for _, block in runnable),
              result.stdout, result.stderr)
    return len(runnable), len(blocks) - len(runnable)


def run_page(page: Path) -> Tuple[int, int]:
    """Run one page's blocks in a shared scratch dir; (ran, skipped)."""
    blocks = extract_blocks(page)
    python_blocks = extract_blocks(page, "python")
    if not blocks and not python_blocks:
        print(f"{page}: no bash or python blocks")
        return 0, 0
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.setdefault("RUNS", "1")
    env.setdefault("REPRO_RUNS", "1")
    ran = skipped = 0
    with tempfile.TemporaryDirectory(prefix="docs-smoke-") as scratch:
        for index, block in enumerate(blocks, start=1):
            label = f"{page}#{index}"
            lines = block.splitlines()
            if not lines or lines[0].strip() == SKIP_MARKER:
                print(f"SKIP {label}")
                skipped += 1
                continue
            started = time.monotonic()
            result = subprocess.run(
                ["bash", "-euo", "pipefail", "-c", block],
                cwd=scratch, env=env, capture_output=True, text=True,
            )
            elapsed = time.monotonic() - started
            if result.returncode != 0:
                _fail(f"{label} (exit {result.returncode})", block,
                      result.stdout, result.stderr)
            print(f"ok   {label} ({elapsed:.1f}s)")
            ran += 1
        python_ran, python_skipped = run_python_blocks(
            page, python_blocks, scratch, env)
    return ran + python_ran, skipped + python_skipped


def main(argv: List[str]) -> int:
    pages = ([Path(arg) for arg in argv]
             or [*sorted((REPO_ROOT / "docs").glob("*.md")),
                 REPO_ROOT / "README.md"])
    total_ran = total_skipped = 0
    for page in pages:
        ran, skipped = run_page(page)
        total_ran += ran
        total_skipped += skipped
    print(f"docs smoke: {total_ran} block(s) ran, {total_skipped} skipped, "
          f"{len(pages)} page(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
