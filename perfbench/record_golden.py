"""Write the golden outputs the gate compares against.

    python3 perfbench/record_golden.py

Records the exact stdout of every CLI case and the generator record of
every build case, as the code in `src/` produces them now.  Run it only
on a commit whose outputs are known to be right: the gate exists to show
that later commits reproduce them byte for byte.  The 4096-point case
takes about a minute.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402


def main() -> int:
    cases.GOLDEN.mkdir(exist_ok=True)
    capture = cases.install_capture()
    builds = {}
    for name, case in cases.CASES.items():
        if isinstance(case, cases.BuildCase):
            builds[name] = cases.build_record(cases.run_build(case))
        else:
            out, _ = cases.run_cli(case, capture)
            if out["rc"] != 0:
                sys.stderr.write(f"{name}: exit code {out['rc']}\n")
                return 1
            (cases.GOLDEN / f"{name}.out").write_text(out["stdout"])
        print(f"recorded {name}", flush=True)
    (cases.GOLDEN / "builds.json").write_text(json.dumps(builds, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
