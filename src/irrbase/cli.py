"""Command-line surface: realize intervals, analyze group specs, run the
verification suite.  JSON in, JSON out.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 resource
guard refusal.  Output is byte-stable for identical inputs; wall-clock
timings are only included when --timings is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import verify as verification
from .chains import (
    BaseSequence,
    achievable_lengths,
    chain_report,
    max_irredundant_length,
    min_base_length,
)
from .perm import Domain, PermGroup
from .realize import (
    GroupSpec,
    GuardExceededError,
    ResourceGuard,
    UnsupportedIntervalError,
    describe_size,
    instantiate,
    witness_spec,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_GUARD = 3


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _witness_labels(seq: BaseSequence) -> list:
    return [_jsonable(lab) for lab in seq.labels()]


def _jsonable(label):
    if isinstance(label, tuple):
        return [_jsonable(x) for x in label]
    return label


def _interval_envelope(spec: GroupSpec, group: PermGroup, domain: Domain, timings: dict | None) -> dict:
    t0 = time.perf_counter()
    report = achievable_lengths(group)
    if timings is not None:
        timings["achievable_lengths"] = round(time.perf_counter() - t0, 3)
    out = {
        "spec": spec.to_json_dict(),
        "domain_size": domain.size,
        "group_order": str(group.order),
        "min_length": report.min_length,
        "max_length": report.max_length,
        "lengths": sorted(report.lengths),
        "is_interval": report.is_interval,
        "witnesses": {str(l): _witness_labels(w) for l, w in report.witnesses.items()},
    }
    if timings is not None:
        out["timings"] = timings
    return out


def _cmd_realize(args) -> int:
    try:
        spec = witness_spec(args.min, args.max, explicit_f=args.explicit_f)
    except UnsupportedIntervalError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID
    if args.emit_spec:
        with open(args.emit_spec, "w") as fh:
            fh.write(_dump(spec.to_json_dict()))
    if not args.instantiate:
        sys.stdout.write(_dump({"spec": spec.to_json_dict()}))
        return EXIT_OK
    try:
        guard = ResourceGuard.from_env()
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVALID
    timings: dict | None = {} if args.timings else None
    t0 = time.perf_counter()
    try:
        group, domain = instantiate(spec, guard)
    except GuardExceededError as e:
        sys.stdout.write(
            _dump(
                {
                    "spec": spec.to_json_dict(),
                    "guard_refused": {
                        "reason": str(e),
                        "domain_size": describe_size(e.domain_size),
                        "order_bits": e.order_bits,
                    },
                }
            )
        )
        return EXIT_GUARD
    if timings is not None:
        timings["instantiate"] = round(time.perf_counter() - t0, 3)
    sys.stdout.write(_dump(_interval_envelope(spec, group, domain, timings)))
    return EXIT_OK


def _parse_chain_points(raw: str, domain: Domain) -> BaseSequence:
    points = tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    return BaseSequence(domain, points)


def _cmd_analyze(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = GroupSpec.from_json_dict(json.load(fh))
    except (OSError, KeyError, ValueError, TypeError) as e:
        sys.stderr.write(f"error: cannot read group spec: {e}\n")
        return EXIT_INVALID
    timings: dict | None = {} if args.timings else None
    t0 = time.perf_counter()
    try:
        group, domain = instantiate(spec)
    except GuardExceededError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_GUARD
    except (ValueError, KeyError) as e:
        sys.stderr.write(f"error: invalid group spec: {e}\n")
        return EXIT_INVALID
    if timings is not None:
        timings["instantiate"] = round(time.perf_counter() - t0, 3)
    if args.chain is not None:
        try:
            seq = _parse_chain_points(args.chain, domain)
        except ValueError as e:
            sys.stderr.write(f"error: bad chain points: {e}\n")
            return EXIT_INVALID
        rep = chain_report(group, seq)
        out = {
            "spec": spec.to_json_dict(),
            "domain_size": domain.size,
            "group_order": str(group.order),
            "points": list(seq.points),
            "point_labels": _witness_labels(seq),
            "chain_orders": [str(n) for n in rep.orders],
            "strict_flags": list(rep.strict_flags),
            "terminal_trivial": rep.terminal_trivial,
            "is_irredundant_base": rep.is_irredundant_base,
        }
        if timings is not None:
            out["timings"] = timings
        sys.stdout.write(_dump(out))
        return EXIT_OK
    if args.min_base or args.max_irredundant:
        out = {
            "spec": spec.to_json_dict(),
            "domain_size": domain.size,
            "group_order": str(group.order),
        }
        if args.min_base:
            n, wit = min_base_length(group)
            out["min_length"] = n
            out["min_witness"] = _witness_labels(wit)
        if args.max_irredundant:
            n, wit = max_irredundant_length(group)
            out["max_length"] = n
            out["max_witness"] = _witness_labels(wit)
        if timings is not None:
            out["timings"] = timings
        sys.stdout.write(_dump(out))
        return EXIT_OK
    sys.stdout.write(_dump(_interval_envelope(spec, group, domain, timings)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verification.run_checks(level=args.level, only=args.only)
    if not results:
        sys.stderr.write(f"error: no check at level {args.level!r} matches --only {args.only!r}\n")
        return EXIT_INVALID
    all_ok = all(r["ok"] for r in results)
    if args.json:
        sys.stdout.write(_dump({"level": args.level, "checks": results, "ok": all_ok}))
    else:
        for r in results:
            status = "PASS" if r["ok"] else "FAIL"
            sys.stdout.write(f"[{status}] {r['name']}: {r['detail']}\n")
        sys.stdout.write(f"{'all checks passed' if all_ok else 'FAILURES present'} "
                         f"({sum(r['ok'] for r in results)}/{len(results)})\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrbase",
        description="Irredundant-base computations for explicit primitive groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_real = sub.add_parser("realize", help="map an interval [min, max] to a witness group")
    p_real.add_argument("--min", type=int, required=True)
    p_real.add_argument("--max", type=int, required=True)
    p_real.add_argument("--instantiate", action="store_true", help="build the group and compute its interval")
    p_real.add_argument("--emit-spec", metavar="PATH", help="write the witness GroupSpec JSON to PATH")
    p_real.add_argument("--explicit-f", type=int, default=None, help="override the field-degree choice")
    p_real.add_argument("--timings", action="store_true", help="include wall-clock timings in the output")
    p_real.set_defaults(fn=_cmd_realize)

    p_an = sub.add_parser("analyze", help="analyze a GroupSpec JSON file")
    p_an.add_argument("--spec", required=True, metavar="PATH")
    p_an.add_argument("--lengths", action="store_true", help="full achievable-length analysis (default)")
    p_an.add_argument("--min-base", action="store_true")
    p_an.add_argument("--max-irredundant", action="store_true")
    p_an.add_argument("--chain", metavar="POINTS", default=None,
                      help="comma-separated domain indices: report the stabilizer chain")
    p_an.add_argument("--timings", action="store_true")
    p_an.set_defaults(fn=_cmd_analyze)

    p_ver = sub.add_parser("verify-paper", help="run the bundled verification suite")
    p_ver.add_argument("--level", choices=["quick", "full"], default="quick")
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--only", default=None, metavar="SUBSTR", help="run only checks whose name contains SUBSTR")
    p_ver.set_defaults(fn=_cmd_verify)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
