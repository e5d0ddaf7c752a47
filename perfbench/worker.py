"""One benchmark case in a fresh interpreter.

    python3 perfbench/worker.py CASE --seed N --spawned T [--trace] [--check] [--spans PATH]

`T` is the `time.monotonic()` reading (a system-wide clock on Linux) just
before the parent started this process, so `setup_s` covers interpreter
start, the numpy and irrbase imports and the making of the case's inputs.
The timed region then runs the case once.  With `--check` the outputs go
through the gate and its self-test afterwards, outside the timed region.
The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401  (part of set-up, as for a CLI user)

import cases  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_corpus(inputs):
    from irrbase.perm import PermGroup

    summaries, groups = [], []
    for name, domain, gens in inputs:
        group = PermGroup(domain, gens)
        summaries.append(cases.analyse_group(name, group))
        groups.append(group)
    return summaries, groups


def _check_corpus(summaries, groups, sym_outs, sym_built, report):
    for summary, group in zip(summaries, groups):
        report.fail(cases.check_group(summary, group))
    target = next(i for i, s in enumerate(summaries)
                  if len(s["witnesses"][max(s["witnesses"], key=int)]) > 1)
    report.self_test(lambda s: cases.check_group(s, groups[target]), summaries[target],
                     cases.corrupt_group)
    for case, out, built in zip(cases.SYM_CASES, sym_outs, sym_built):
        report.fail(cases.check_cli(case, out, built))
    report.self_test(lambda o: cases.check_cli(cases.SYM_CASES[0], o, sym_built[0]),
                     sym_outs[0], cases.corrupt_cli)


class Report:
    def __init__(self):
        self.failed = 0
        self.failures: list[str] = []
        self.detected: dict[str, bool] = {}

    def fail(self, messages: list[str]) -> None:
        """Record the gate's verdict on one output."""
        if messages:
            self.failed += 1
            self.failures.extend(messages)

    def self_test(self, check, out, corrupt) -> None:
        for kind, caught in cases.self_test(check, out, corrupt).items():
            self.detected[kind] = self.detected.get(kind, True) and caught


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("case")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    tracer = Tracer()
    if args.trace:
        tracer.install()
    capture = cases.install_capture()
    if args.case == cases.CORPUS:
        inputs = cases.corpus_inputs(args.seed)
        attempted = len(inputs) + len(cases.SYM_CASES)
    else:
        case = cases.CASES[args.case]
        attempted = 1
    setup_s = time.monotonic() - args.spawned

    def timed():
        if args.case == cases.CORPUS:
            summaries, groups = _run_corpus(inputs)
            sym = [cases.run_cli(c, capture) for c in cases.SYM_CASES]
            return summaries, groups, sym
        if isinstance(case, cases.BuildCase):
            return cases.run_build(case)
        return cases.run_cli(case, capture)

    t0 = time.perf_counter()
    result = tracer.region(timed)
    solve_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = Report()
    if args.case == cases.CORPUS:
        summaries, groups, sym = result
        outputs = [summaries, [out for out, _ in sym]]
        if args.check:
            _check_corpus(summaries, groups, [o for o, _ in sym], [b for _, b in sym], report)
    elif isinstance(case, cases.BuildCase):
        outputs = cases.build_record(result)
        if args.check:
            report.fail(cases.check_build(case, outputs))
            report.self_test(lambda o: cases.check_build(case, o), outputs, cases.corrupt_build)
    else:
        outputs, built = result
        if args.check:
            report.fail(cases.check_cli(case, outputs, built))
            report.self_test(lambda o: cases.check_cli(case, o, built), outputs, cases.corrupt_cli)

    line = {
        "case": args.case,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": report.failed,
        "failures": report.failures,
        "self_test": report.detected,
        "digest": cases.digest(outputs),
    }
    if args.trace:
        line["layers"] = tracer.layer_stats()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
