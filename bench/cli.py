"""``python3 -m bench``: the one command.

With ``--workload NAME`` it runs that workload once in this process and
prints, as its last line, the result object ``BENCHMARK.json``'s
contract describes.  Without, it runs every workload — each run in a
fresh subprocess, so peak memory and collector state do not leak
between them — prints every metric by name with its unit, and writes
one result record for the run-set (what ``bench/compare.py`` reads).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

from bench.compare import ROOT_DIR, load_spec, quartiles

DETAIL_PREFIX = "detail "


def _parser(spec: dict) -> argparse.ArgumentParser:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", choices=names,
                        help="run this workload once, in this process")
    parser.add_argument("--seed", type=int, default=11,
                        help="every input derives from it (default 11)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="per-layer metrics from a traced run "
                             "instead of end-to-end ones")
    parser.add_argument("--runs", type=int, default=1,
                        help="run-set only: runs per workload, each "
                             "with its own seed (seed, seed+1, ...)")
    parser.add_argument("--out",
                        help="run-set only: where the result record "
                             "goes (default .bench_out/run-set-"
                             "<seed>.json)")
    return parser


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = _parser(spec).parse_args(argv)
    if not args.workload:
        return _run_set(args, spec)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process; with the salt fixed,
        # set orders — and so every count, and the speed mode a run
        # lands in — repeat from one run of a seed to the next.
        os.execve(
            sys.executable,
            [sys.executable, "-m", "bench", *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    return _run_one(args)


# -- one workload, this process ------------------------------------------------------


def _run_one(args: argparse.Namespace) -> int:
    try:
        from bench.runner import run_workload
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    result, detail = run["result"], run["detail"]
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload}  seed={args.seed}  {kind}  "
          f"{detail['operations']} operations")
    for name, value in detail["metrics"].items():
        unit = result["metrics"][name]["unit"]
        alias = f"  (= {detail['op_name']})" if name == "op_min_s" else ""
        print(f"  {name:40s} {value:>16.6g} {unit}{alias}")
    if "comm_bytes" in detail:
        print(f"  {'comm_bytes':40s} {detail['comm_bytes']:>16d} bytes"
              "  (exact for a seed; gated by compare.py)")
    print(f"  failed {result['failed']} of {result['attempted']}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, one subprocess per run ------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int
           ) -> tuple[dict, dict]:
    """One run in a fresh interpreter; returns (result, detail)."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT_DIR, capture_output=True, text=True,
        timeout=900, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"bench: {workload} seed {seed} exited {done.returncode} "
            "without a result"
        )
    if done.returncode == 1:
        sys.stderr.write(done.stderr)
    return (
        json.loads(lines[-1]),
        json.loads(lines[-2][len(DETAIL_PREFIX):]),
    )


def _environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "load_average_1min_at_start": os.getloadavg()[0],
        "commit": commit,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _run_set(args: argparse.Namespace, spec: dict) -> int:
    record = {
        "benchmark": "bench", "seed": args.seed, "runs": args.runs,
        "run_seconds": args.seconds,
        "environment": _environment(), "workloads": {},
    }
    failed = attempted = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry = record["workloads"][workload] = {
            "seeds": [], "attempted": 0, "failed": 0,
            "operations_per_run": [], "op_s_quartiles_per_run": [],
            "comm_bytes": [], "end_to_end": {},
        }
        values: dict[str, list[float]] = {}
        for seed in range(args.seed, args.seed + args.runs):
            result, detail = _child(workload, seed, args.seconds, 0)
            entry["sizes"] = detail["sizes"]
            entry["op_name"] = detail["op_name"]
            entry["seeds"].append(seed)
            entry["operations_per_run"].append(detail["operations"])
            entry["op_s_quartiles_per_run"].append(
                [detail["op_s"]["q1"], detail["op_s"]["q3"]]
            )
            entry["comm_bytes"].append(detail["comm_bytes"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, value in detail["metrics"].items():
                values.setdefault(name, []).append(value)
        for metric in spec["end_to_end"]:
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                **_summary(values[metric["name"]]),
            }
        if args.trace:
            result, detail = _child(
                workload, args.seed, args.seconds, 1
            )
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["trace_file"] = detail["trace_file"]
            entry["traced_op_s"] = detail["traced_op_s"]
            entry["per_layer"] = {
                name: {"value": value,
                       "unit": result["metrics"][name]["unit"]}
                for name, value in detail["metrics"].items()
            }
        failed += entry["failed"]
        attempted += entry["attempted"]
        _print_workload(workload, entry)
    record["failed_frac"] = failed / attempted
    _print_ratios(record)
    print(f"failed_frac = {record['failed_frac']:g} ratio "
          f"({failed} of {attempted} operations)")
    out = args.out or os.path.join(
        ROOT_DIR, ".bench_out", f"run-set-{args.seed}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)
        stream.write("\n")
    print(f"result record: {out}")
    return 0 if failed == 0 else 1


def _print_workload(workload: str, entry: dict) -> None:
    print(f"{workload}  ({entry['failed']} failed of "
          f"{entry['attempted']}; "
          f"{median(entry['operations_per_run']):g} operations a run)")
    for name, one in entry["end_to_end"].items():
        alias = f"  (= {entry['op_name']})" if name == "op_min_s" else ""
        print(f"  {name:40s} {one['median']:>14.6g} {one['unit']:6s}"
              f" [q1 {one['q1']:.6g}, q3 {one['q3']:.6g}, "
              f"n={one['n']}]{alias}")
    print(f"  {'comm_bytes':40s} {median(entry['comm_bytes']):>14.6g} "
          "bytes  (median over the seeds; exact for each)")
    for name, one in entry.get("per_layer", {}).items():
        print(f"  {name:40s} {one['value']:>14.6g} {one['unit']}")


def _print_ratios(record: dict) -> None:
    """The paper's two headline ratios, printed and not gated."""
    def op_s(workload: str) -> float:
        return record["workloads"][workload]["end_to_end"]["op_min_s"][
            "median"]

    print("publish-map.op_min_s / bulk-row.op_min_s = "
          f"{op_s('publish-map') / op_s('bulk-row'):.3f} "
          "(the paper's PM-vs-DE ratio; not gated)")
    layers = record["workloads"]["delta-sync"].get("per_layer")
    if layers:
        full = layers["core.delta.full_s"]["value"]
        print("delta-sync.op_min_s / core.delta.full_s = "
              f"{op_s('delta-sync') / full:.3f} "
              "(a 5 % delta against a full re-exchange; not gated)")
