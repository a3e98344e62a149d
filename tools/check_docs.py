"""Docs health check: links resolve, snippets and examples run.

Three guarantees, enforced by the CI ``docs`` job
(``.github/workflows/tests.yml``) so the guides cannot rot:

1. Every relative markdown link in ``docs/*.md`` and ``README.md``
   points at a file that exists (anchors are stripped; absolute URLs
   are skipped).
2. Every ```` ```python ```` fence in ``docs/ARCHITECTURE.md`` executes
   cleanly, doctest-style. Blocks run in order in one shared namespace
   — the guide builds its example refresh incrementally — and the
   asserts inside them are real: a drifted SQL rendering or a changed
   grouping breaks the build.
3. The tutorial examples listed in ``EXAMPLE_FILES`` run to completion
   (their internal asserts are real identity checks), at a small
   dataset size so the job stays fast.

Run locally::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
SNIPPET_FILES = [REPO / "docs" / "ARCHITECTURE.md"]
#: Tutorial examples executed end to end (kept fast via env knobs).
EXAMPLE_FILES = [
    REPO / "examples" / "multiplan_render.py",
    REPO / "examples" / "policy_quickstart.py",
    REPO / "examples" / "generated_workload.py",
    REPO / "examples" / "traced_refresh.py",
    REPO / "examples" / "process_shards.py",
    REPO / "examples" / "serving_quickstart.py",
    REPO / "examples" / "quickstart.py",
    REPO / "examples" / "custom_dashboard.py",
    REPO / "examples" / "call_center_goals.py",
    REPO / "examples" / "concurrent_refresh.py",
    REPO / "examples" / "idebench_vs_simba.py",
    REPO / "examples" / "session_logs_replay.py",
    REPO / "examples" / "sharded_refresh.py",
    REPO / "examples" / "star_schema_ablation.py",
    REPO / "examples" / "approximate_dashboard.py",
    # compare_engines.py is left out: ~2 minutes at its 10k rows x 4 engines.
]

#: Markdown inline links: [text](target). Reference-style links are
#: not used in this repo's docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # same-file anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )
    return errors


def run_snippets() -> list[str]:
    errors = []
    for doc in SNIPPET_FILES:
        text = doc.read_text(encoding="utf-8")
        namespace: dict[str, object] = {"__name__": "__docs__"}
        for index, block in enumerate(_FENCE.findall(text)):
            try:
                exec(compile(block, f"{doc.name}[snippet {index}]", "exec"),
                     namespace)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                errors.append(
                    f"{doc.relative_to(REPO)} snippet {index}: "
                    f"{type(exc).__name__}: {exc}"
                )
                break  # later blocks depend on earlier state
        print(
            f"{doc.relative_to(REPO)}: "
            f"{len(_FENCE.findall(text))} snippets executed"
        )
    return errors


def run_examples() -> list[str]:
    errors = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("SIMBA_EXAMPLE_ROWS", "2000")
    for example in EXAMPLE_FILES:
        proc = subprocess.run(
            [sys.executable, str(example)],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            errors.append(
                f"{example.relative_to(REPO)}: exit {proc.returncode}: "
                + " | ".join(tail)
            )
        else:
            print(f"{example.relative_to(REPO)}: executed OK")
    return errors


def main() -> int:
    errors = check_links() + run_snippets() + run_examples()
    checked = sum(
        len(_LINK.findall(doc.read_text(encoding='utf-8')))
        for doc in DOC_FILES
    )
    print(f"checked {checked} links across {len(DOC_FILES)} files")
    if errors:
        for error in errors:
            print(f"ERROR: {error}", file=sys.stderr)
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
