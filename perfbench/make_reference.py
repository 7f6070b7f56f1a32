#!/usr/bin/env python3
"""Regenerate perfbench/reference.json.gz, the exact tables the checks and
`max_ref_err` compare against.

    python3 perfbench/make_reference.py

For every residue request of the benchmark (full and smoke sizes) and for
the Monte Carlo grid, it runs the request at --precision auto (whatever
precision the request itself asks for) to learn the widest row width, then
again at --precision bits with twice that width,
and stores the second table.  It takes about two minutes.
"""

from __future__ import annotations

import gzip
import json
import sys

from run import WORK_DIR, environment, import_dicke
from workloads import REFERENCE_FILE, WORKLOADS, Request, residue_request

COMMAND = "python3 perfbench/make_reference.py"


def reference_requests():
    """ref_key -> a residue request at auto precision on the same grid."""
    out = {}
    for workload in WORKLOADS.values():
        for request in workload.full + workload.smoke:
            if request.check == "residue":
                out[request.ref_key] = request
            elif request.check == "mc":
                n = int(request.argv[request.argv.index("--n") + 1])
                solve = residue_request(n)
                out[request.ref_key] = Request(solve.label, (*solve.argv, "--t-max", "2"),
                                               "residue", request.ref_key)
    return out


def auto_argv(argv) -> list[str]:
    """The request's command line with its precision set to auto."""
    argv = list(argv)
    at = argv.index("--precision")
    end = at + (4 if argv[at + 1] == "bits" else 2)
    return [*argv[:at], "--precision", "auto", *argv[end:]]


def solve(argv: list[str]):
    import dicke.cli
    from dicke.io import read_json

    path = WORK_DIR / "reference.json"
    code = dicke.cli.main([*argv, "--out", str(path)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    table, _ = read_json(path)
    path.unlink()
    return table


def main() -> int:
    import_dicke()
    WORK_DIR.mkdir(exist_ok=True)
    tables = {}
    for key, request in sorted(reference_requests().items()):
        argv = auto_argv(request.argv)
        auto = solve(argv)
        bits = 2 * max(auto.meta["bits"])
        at = argv.index("auto")
        argv[at:at + 1] = ["bits", "--bits", str(bits)]
        table = solve(argv)
        tables[key] = {"argv": argv, "auto_bits": bits // 2, "bits": bits,
                       "populations": table.populations.tolist()}
        print(f"{key}: {bits} bits, |reference - auto| = "
              f"{abs(table.populations - auto.populations).max():.3e}", file=sys.stderr)
    WORK_DIR.rmdir()
    doc = {"regenerate": COMMAND, "environment": environment(), "tables": tables}
    with gzip.GzipFile(REFERENCE_FILE, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc).encode("utf-8"))
    print(f"wrote {REFERENCE_FILE.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
