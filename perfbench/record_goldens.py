#!/usr/bin/env python3
"""Record the benchmark's goldens from the current checkout.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json: every output the workloads can produce, as
the recording commit printed or returned it.  The goldens are the
correctness reference for later commits, so re-record only on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys

from workloads import (
    COMPARE_ARGV, GOLDENS, LADDER_L, LADDER_NB, ROOT, SRC, all_cli_argvs, cli_key, ladder_key,
    ladder_levels, run_cli,
)


def _cli_stdout(main, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def main() -> int:
    sys.path.insert(0, str(SRC))
    from hlevels import IllConditionedBasis
    from hlevels.cli import main as cli_main

    compare = run_cli(COMPARE_ARGV)
    if compare.returncode != 0:
        print(compare.stderr.decode(), file=sys.stderr)
        return 1
    ladder = {}
    for l in LADDER_L:
        for nb in LADDER_NB:
            try:
                ladder[ladder_key(l, nb)] = ladder_levels(l, nb)
            except IllConditionedBasis as exc:
                ladder[ladder_key(l, nb)] = f"IllConditionedBasis: {exc}"
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    doc = {
        "recorded_at": sha,
        "compare": {
            "stdout": compare.stdout.decode(),
            "md5": hashlib.md5(compare.stdout).hexdigest(),
        },
        "cli_closed": {cli_key(argv): _cli_stdout(cli_main, argv) for argv in all_cli_argvs()},
        "basis_ladder": ladder,
    }
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS} ({GOLDENS.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
