#!/usr/bin/env python3
"""Exit 0 iff every BENCH document given is canonically identical.

Usage: ci/bench_canonical_eq.py FILE...

Applies the same canonicalization as `bench_report::canonical_json`: the
`host` section and the per-workload `wall_secs`/`host_kips` fields are
dropped (host timing varies run to run), keys are sorted, and the rest
must match byte-for-byte.
"""
import json
import sys

HOST_ONLY = ("host", "wall_secs", "host_kips")


def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in sorted(v.items()) if k not in HOST_ONLY}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v


def main(paths):
    if len(paths) < 2:
        print("usage: bench_canonical_eq.py FILE FILE...", file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.dumps(strip(json.load(f))))
    differing = [p for p, d in zip(paths, docs) if d != docs[0]]
    if differing:
        print(
            f"canonical BENCH differs from {paths[0]}: {', '.join(differing)}",
            file=sys.stderr,
        )
        return 1
    print(f"canonical BENCH identical across {len(paths)} files ({len(docs[0])} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
