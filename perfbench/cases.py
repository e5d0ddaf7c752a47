"""The benchmark's cases: what each one runs in its timed region, and the
gate that checks its outputs against golden and independent references.

Three kinds of case:

* CLI cases call `irrbase.cli.run` in process with a fixed argv.  Their
  stdout must equal the golden bytes, `lengths` must match the values the
  README fixes, `group_order` must match the closed form
  `realize.estimate_order`, and every witness must pass
  `chain_report(...).is_irredundant_base`.
* Build cases time `realize.instantiate` only.  The generator images are
  digested and compared with the golden digest.
* The corpus case runs all three searches on a seeded draw of small
  groups plus `verify.structured_small_groups`, and checks each group
  against `chains.exhaustive_lengths`.

The `run_*` functions are what a worker times.  Each `check_*` function
returns the failure messages for one output, and each `corrupt_*`
function returns the gate self-test's broken copies of an output.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from irrbase import chains, cli, realize, verify
from irrbase.chains import BaseSequence, chain_report
from irrbase.perm import PermGroup

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SPECS = HERE / "specs"

# Strata of the small-groups draw, by the bit length of the group order,
# with quotas proportional to how often `random_small_groups` produces each
# (measured on 1800 draws).  Rare bit lengths share a stratum with a
# neighbour.  A fixed count per stratum keeps the number of expensive
# groups, and so the solve time, steady from seed to seed.
STRATA = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 7), (8, 10), (11, 15))
QUOTAS = (27, 78, 60, 36, 33, 30, 36)
DRAW_CHUNK = 100
MAX_POINTS = 12
MAX_ORDER = 20000


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)  # envelope key -> value fixed by the README


@dataclass(frozen=True)
class BuildCase:
    name: str
    spec: realize.GroupSpec


def _sym_case(a: int) -> CliCase:
    return CliCase(f"sym{a + 1}", ("realize", "--min", str(a), "--max", str(a), "--instantiate"),
                   {"lengths": [a]})


SYM_CASES = tuple(_sym_case(a) for a in range(3, 10))

CASES = {
    c.name: c
    for c in (
        CliCase("sz8-pairs", ("realize", "--min", "2", "--max", "3", "--instantiate"),
                {"lengths": [2, 3]}),
        CliCase("sz8x3-pairs", ("realize", "--min", "2", "--max", "4", "--instantiate"),
                {"lengths": [2, 3, 4]}),
        # verify.check_suzuki_q32 fixes the minimum base of Sz(32).5 on the ovoid at 3
        CliCase("sz32x5-ovoid", ("analyze", "--spec", str(SPECS / "sz32x5-ovoid.json"),
                                 "--min-base", "--max-irredundant"), {"min_length": 3}),
        CliCase("agaml2-64", ("realize", "--min", "4", "--max", "5", "--instantiate"),
                {"lengths": [4, 5]}),
        BuildCase("agaml3-64", realize.witness_spec(5, 6)),
        BuildCase("sz32x5-pairs", realize.witness_spec(2, 4, explicit_f=5)),
        *SYM_CASES,
    )
}
CORPUS = "corpus"


# --------------------------------------------------------------------------
# CLI cases
# --------------------------------------------------------------------------

class _Capture:
    """Stands in for `cli.instantiate` and keeps the group it returns, so
    the witnesses can be checked without rebuilding the chain."""

    def __init__(self):
        self.result = None

    def __call__(self, spec, guard=None):
        self.result = realize.instantiate(spec, guard)
        return self.result


def install_capture() -> _Capture:
    capture = _Capture()
    cli.instantiate = capture
    return capture


def run_cli(case: CliCase, capture: _Capture):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(list(case.argv))
    return {"rc": rc, "stdout": buf.getvalue()}, capture.result


def _label(value):
    return tuple(_label(v) for v in value) if isinstance(value, list) else value


def _envelope_witnesses(env: dict) -> dict:
    if "witnesses" in env:
        return {int(k): v for k, v in env["witnesses"].items()}
    return {env["min_length"]: env["min_witness"], env["max_length"]: env["max_witness"]}


def check_cli(case: CliCase, out: dict, built) -> list[str]:
    fails = []
    if out["rc"] != 0:
        fails.append(f"exit code {out['rc']}")
    if out["stdout"] != (GOLDEN / f"{case.name}.out").read_text():
        fails.append("stdout differs from golden")
    try:
        env = json.loads(out["stdout"])
        for key, want in case.expect.items():
            if env.get(key) != want:
                fails.append(f"{key} = {env.get(key)}, expected {want}")
        spec = realize.GroupSpec.from_json_dict(env["spec"])
        if int(env["group_order"]) != realize.estimate_order(spec):
            fails.append(f"group_order {env['group_order']} != closed form")
        group, domain = built
        for length, labels in _envelope_witnesses(env).items():
            seq = BaseSequence(domain, tuple(domain.index_of(_label(x)) for x in labels))
            if len(seq) != length or not chain_report(group, seq).is_irredundant_base:
                fails.append(f"witness for length {length} is not an irredundant base")
    except (KeyError, ValueError, TypeError) as e:
        fails.append(f"malformed envelope: {e!r}")
    return fails


def corrupt_cli(out: dict) -> dict:
    """Two broken copies of a CLI output: the last point of the longest
    witness replaced by its first (so the sequence is redundant), and one
    length dropped."""
    env = json.loads(out["stdout"])
    moved = copy.deepcopy(env)
    wits = moved.get("witnesses", {})
    w = wits[max(wits, key=int)] if wits else moved["max_witness"]
    w[-1] = w[0]
    dropped = copy.deepcopy(env)
    if "lengths" in dropped:
        dropped["lengths"].pop()
    else:
        del dropped["max_length"]
    return {
        "witness_point": {**out, "stdout": cli._dump(moved)},
        "drop_length": {**out, "stdout": cli._dump(dropped)},
    }


# --------------------------------------------------------------------------
# build cases
# --------------------------------------------------------------------------

def run_build(case: BuildCase):
    return realize.instantiate(case.spec)


def build_record(built) -> dict:
    group, domain = built
    h = hashlib.sha256()
    for g in group.generators:
        h.update(np.ascontiguousarray(g.image, dtype="<i4").tobytes())
    return {"points": domain.size, "gens": len(group.generators), "sha256": h.hexdigest()}


def check_build(case: BuildCase, out: dict) -> list[str]:
    golden = json.loads((GOLDEN / "builds.json").read_text())[case.name]
    fails = []
    if out != golden:
        fails.append(f"generator record {out} differs from golden {golden}")
    if out.get("points") != realize.estimate_domain_size(case.spec):
        fails.append("domain size differs from the closed form")
    return fails


def corrupt_build(out: dict) -> dict:
    digest = out["sha256"]
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    return {"generator_digest": {**out, "sha256": flipped}}


# --------------------------------------------------------------------------
# the small-groups corpus
# --------------------------------------------------------------------------

def _stratum(order: int) -> int | None:
    bits = order.bit_length()
    for i, (lo, hi) in enumerate(STRATA):
        if lo <= bits <= hi:
            return i
    return None


def draw_groups(seed: int) -> list[tuple[str, PermGroup]]:
    """The seeded draw: `random_small_groups` in chunks of DRAW_CHUNK, with
    chunk k seeded by `seed * 1000 + k`, taking groups in order until each
    stratum holds its quota."""
    need = list(QUOTAS)
    out = []
    for k in range(1000):
        if not any(need):
            return out
        for name, group in verify.random_small_groups(
            DRAW_CHUNK, seed=seed * 1000 + k, max_points=MAX_POINTS, max_order=MAX_ORDER
        ):
            s = _stratum(group.order)
            if s is not None and need[s]:
                need[s] -= 1
                out.append((f"s{seed}c{k}:{name}", group))
    raise RuntimeError(f"seed {seed}: strata not filled after 1000 chunks")


def corpus_inputs(seed: int) -> list[tuple[str, object, tuple]]:
    """(name, domain, generators) of every group the corpus case analyses;
    the timed region builds each group afresh, chain included."""
    groups = draw_groups(seed) + verify.structured_small_groups()
    return [(name, g.domain, g.generators) for name, g in groups]


def analyse_group(name: str, group: PermGroup) -> dict:
    report = chains.achievable_lengths(group)
    n_min, w_min = chains.min_base_length(group)
    n_max, w_max = chains.max_irredundant_length(group)
    return {
        "name": name,
        "lengths": sorted(report.lengths),
        "witnesses": {str(k): list(w.points) for k, w in report.witnesses.items()},
        "min": [n_min, list(w_min.points)],
        "max": [n_max, list(w_max.points)],
    }


def check_group(summary: dict, group: PermGroup) -> list[str]:
    fails = []
    name = summary["name"]
    lengths = summary["lengths"]
    reference = sorted(chains.exhaustive_lengths(group))
    if lengths != reference:
        fails.append(f"{name}: lengths {lengths} != exhaustive {reference}")
    if summary["min"][0] != min(reference) or summary["max"][0] != max(reference):
        fails.append(f"{name}: min/max {summary['min'][0]}/{summary['max'][0]} vs {reference}")
    claims = [(int(k), pts) for k, pts in summary["witnesses"].items()]
    claims += [tuple(summary["min"]), tuple(summary["max"])]
    for length, pts in claims:
        seq = BaseSequence(group.domain, tuple(pts))
        if len(seq) != length or not chain_report(group, seq).is_irredundant_base:
            fails.append(f"{name}: witness {pts} for length {length} is not an irredundant base")
    return fails


def corrupt_group(summary: dict) -> dict:
    """The corpus counterpart of corrupt_cli; needs a witness of two or
    more points."""
    moved = copy.deepcopy(summary)
    w = moved["witnesses"][max(moved["witnesses"], key=int)]
    w[-1] = w[0]
    dropped = copy.deepcopy(summary)
    dropped["lengths"].pop()
    return {"witness_point": moved, "drop_length": dropped}


# --------------------------------------------------------------------------
# gate self-test
# --------------------------------------------------------------------------

def self_test(check, out, corrupt) -> dict[str, bool]:
    """Apply each corruption to a checked output; True means the gate
    reported it as a failure."""
    return {kind: bool(check(bad)) for kind, bad in corrupt(out).items()}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
