"""Run the project's static invariant suite over the source tree.

The rules live in ``src/repro/analysis/rules/`` (one file each, see
ARCHITECTURE §15): lock ordering (RA101), telemetry purity (RA102),
shared-memory lifecycle (RA103), frozen ExecutionPolicy (RA104), bare
threading primitives (RA106), plus suppression hygiene (RA100) from the
framework itself.

Usage::

    PYTHONPATH=src python tools/check_invariants.py               # src/repro
    PYTHONPATH=src python tools/check_invariants.py --strict      # CI mode
    PYTHONPATH=src python tools/check_invariants.py --json        # machine-readable
    PYTHONPATH=src python tools/check_invariants.py path/to/file.py

Exit codes: 0 clean, 1 findings (or, with ``--strict``, stale
baseline entries), 2 usage/parse errors.

Findings are suppressed inline (``# repro: allow(RA106) — reason``,
reason mandatory) or accepted wholesale in the baseline file
(``tools/invariants_baseline.json``; regenerate with
``--write-baseline --reason "why"``). ``--strict`` additionally fails
on baseline entries that no longer match anything, so the accepted
set can only shrink.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import (  # noqa: E402 - path bootstrap above
    all_rules,
    load_baseline,
    run_suite,
    save_baseline,
)
from repro.errors import ConfigError  # noqa: E402

DEFAULT_BASELINE = REPO / "tools" / "invariants_baseline.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro static invariant checks"
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files/directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries (CI mode)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON document instead of file:line text",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline file (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline and exit",
    )
    parser.add_argument(
        "--reason", default=None,
        help="shared reason recorded with --write-baseline entries",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:18s} {rule.summary}")
        return 0

    paths = args.paths or [REPO / "src" / "repro"]
    try:
        baseline = (
            {} if (args.no_baseline or args.write_baseline)
            else load_baseline(args.baseline)
        )
        result = run_suite(paths, baseline=baseline, root=REPO)
    except ConfigError as exc:
        print(f"check_invariants: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if not args.reason:
            print(
                "check_invariants: --write-baseline requires --reason "
                "(baselined findings must say why they are accepted)",
                file=sys.stderr,
            )
            return 2
        save_baseline(args.baseline, result.findings, args.reason)
        print(
            f"wrote {len(result.findings)} entr"
            f"{'y' if len(result.findings) == 1 else 'ies'} to "
            f"{args.baseline}"
        )
        return 0

    failed = bool(result.findings) or (
        args.strict and bool(result.stale_baseline)
    )

    if args.as_json:
        payload = result.as_dict()
        payload["strict"] = args.strict
        payload["ok"] = not failed
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0

    for finding in result.findings:
        print(finding.render())
    for entry in result.stale_baseline:
        line = (
            f"baseline: stale entry {entry['fingerprint']} "
            f"({entry.get('code', '?')} {entry.get('path', '?')}) — "
            f"no longer matches; remove it"
        )
        print(line if args.strict else f"note: {line}")
    counts = result.counts()
    summary = ", ".join(
        f"{code}={n}" for code, n in sorted(counts.items())
    ) or "none"
    print(
        f"checked {result.files} files: "
        f"{len(result.findings)} finding(s) [{summary}], "
        f"{len(result.suppressed)} suppressed inline, "
        f"{len(result.baselined)} baselined, "
        f"{len(result.stale_baseline)} stale baseline entr"
        f"{'y' if len(result.stale_baseline) == 1 else 'ies'}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
