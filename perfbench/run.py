"""irrbase benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from `src/`).
Each case runs in its own `perfbench/worker.py` process, one at a time, as
a CLI user would pay for it: imports, construction and the root
Schreier-Sims chain on every run.  Rounds over the workload's cases repeat
until the timed regions add up to `--seconds`; every metric is a median
over a case's rounds.  The first round checks every output against the
golden and independent references and runs the gate's self-test; later
rounds must reproduce the first round's output digest.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` every process installs the layer wrappers (see tracer.py) and
the line carries the per-layer metrics.  Everything else printed before it is
for people: the environment, per-case figures and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {
    "suzuki-pairs": ("sz8-pairs", "sz8x3-pairs", "sz32x5-ovoid"),
    "affine-q64": ("agaml2-64",),
    "small-groups": ("corpus",),
    "witness-build": ("agaml3-64", "sz32x5-pairs"),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170

END_TO_END = {"solve_s": "s", "groups_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ("construct.s", "perm.root_chain.s", "perm.stabilizer.s", "chains.materialize.s",
               "chains.search.self_s", "cli.self_s")
LAYER_COUNTS = ("construct.points", "construct.gens", "perm.root_chain.levels",
                "perm.root_chain.sifts", "perm.stabilizer.calls", "perm.stabilizer.reruns",
                "chains.materialize.nodes", "chains.materialize.cells", "chains.search.nodes")


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_case(case: str, seed: int, trace: bool, check: bool, spans: pathlib.Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), case, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--check"] * check
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        reason = f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
    except subprocess.TimeoutExpired:
        reason = f"no result within {CHILD_TIMEOUT_S} s"
    except ValueError as e:
        reason = f"unreadable result: {e}"
    return {"case": case, "attempted": 1, "failed": 1, "failures": [reason],
            "self_test": {}, "crashed": True}


def run_rounds(cases, seed: int, seconds: float, trace: bool, spans_dir) -> list[dict]:
    """Rounds over the cases until the timed regions add up to `seconds`."""
    rows: list[dict] = []
    measured = 0.0
    n = 0
    while measured < seconds:
        for case in cases:
            spans = spans_dir / f"{case}-round{n}.json" if trace else None
            row = run_case(case, seed, trace, check=n == 0, spans=spans)
            rows.append(row)
            if row.get("crashed"):
                return rows
            measured += row["solve_s"]
        n += 1
    return rows


def median_by_case(rows, key) -> dict:
    per: dict[str, list] = {}
    for r in rows:
        if not r.get("crashed"):
            per.setdefault(r["case"], []).append(r[key])
    return {case: statistics.median(v) for case, v in per.items()}


def end_to_end(rows) -> dict:
    solve = median_by_case(rows, "solve_s")
    groups = {r["case"]: r["attempted"] for r in rows}
    total = sum(solve.values())
    return {
        "solve_s": total,
        "groups_per_s": sum(groups[c] for c in solve) / total,
        "setup_s": statistics.median(r["setup_s"] for r in rows),
        "peak_rss_mb": max(median_by_case(rows, "rss_mb").values()),
    }


def per_layer(rows) -> dict:
    """Sums over cases of each case's median; counts should not vary."""
    per: dict[str, dict[str, list]] = {}
    for r in rows:
        for key, value in r["layers"].items():
            per.setdefault(key, {}).setdefault(r["case"], []).append(value)
    out = {key: sum(statistics.median(v) for v in cases.values()) for key, cases in per.items()}
    calls = out["perm.stabilizer.calls"]
    out["perm.stabilizer.reuse_ratio"] = (calls - out["perm.stabilizer.reruns"]) / calls if calls else 0.0
    solve = sum(median_by_case(rows, "solve_s").values())
    out["trace.solve_s"] = solve
    out["trace.overhead_s"] = out.pop("overhead_s")
    out["trace.unattributed_share"] = out.pop("unattributed_s") / solve
    return out


def count_mismatches(rows) -> list[str]:
    first: dict[str, dict] = {}
    bad = []
    for r in rows:
        if not r.get("crashed"):
            counts = {k: r["layers"][k] for k in LAYER_COUNTS}
            if first.setdefault(r["case"], counts) != counts:
                bad.append(r["case"])
    return bad


def gate(rows) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): checks failed, crashes, digests that
    did not repeat, and self-test corruptions the gate let through."""
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    messages = [f"{r['case']}: {m}" for r in rows for m in r["failures"]]
    digests: dict[str, str] = {}
    for r in rows:
        if not r.get("crashed") and digests.setdefault(r["case"], r["digest"]) != r["digest"]:
            failed += r["attempted"]
            messages.append(f"{r['case']}: output differs from the first round")
    for r in rows:
        for kind, caught in r["self_test"].items():
            if not caught:
                failed += 1
                messages.append(f"{r['case']}: self-test corruption {kind!r} not detected")
    return attempted, min(failed, attempted), messages


def print_layer_table(layers: dict) -> None:
    solve = layers["trace.solve_s"]
    print(f"{'layer':<22}{'self s':>10}{'share':>8}")
    for key in LAYER_TIMES:
        print(f"{key.rsplit('.', 1)[0]:<22}{layers[key]:>10.3f}{layers[key] / solve:>8.1%}")
    share = layers["trace.unattributed_share"]
    print(f"{'(unattributed)':<22}{share * solve:>10.3f}{share:>8.1%}")
    print(f"{'traced solve_s':<22}{solve:>10.3f}   of which wrapper cost about {layers['trace.overhead_s']:.3f}")
    for key in LAYER_COUNTS + ("perm.stabilizer.reuse_ratio",):
        print(f"  {key:<30}{layers[key]:>14,.6g}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # SIGTERM becomes SystemExit, on which subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "irrbase" / "__init__.py").is_file():
        sys.stderr.write(f"error: no irrbase sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    env = environment()
    print("env " + json.dumps(env), flush=True)
    spans_dir = None
    if args.trace:
        spans_dir = OUT / f"spans-{args.workload}-seed{args.seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)
    rows = run_rounds(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_dir)
    attempted, failed, messages = gate(rows)
    for m in messages:
        print(f"FAIL {m}")
    crashed = any(r.get("crashed") for r in rows)

    for case, s in median_by_case(rows, "solve_s").items():
        n = sum(1 for r in rows if r["case"] == case)
        print(f"case {case:<14} solve_s median {s:.3f} over {n} run(s)")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} outputs)")
    selftest = sorted({k for r in rows for k in r["self_test"]})
    print(f"gate self-test corruptions exercised: {', '.join(selftest) or 'none'}")

    metrics: dict = {}
    if not crashed:
        if args.trace:
            layers = per_layer(rows)
            print_layer_table(layers)
            for case in count_mismatches(rows):
                print(f"WARN {case}: counts differ between traced rounds")
            units = {k: "s" for k in LAYER_TIMES + ("trace.solve_s", "trace.overhead_s")}
            units.update({k: "count" for k in LAYER_COUNTS})
            units.update({"perm.stabilizer.reuse_ratio": "ratio", "trace.unattributed_share": "ratio"})
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(rows).items()}
        for k, m in metrics.items():
            print(f"metric {k} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "runs": rows}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    result = {"correct": failed == 0 and not crashed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
