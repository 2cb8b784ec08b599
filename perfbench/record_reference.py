"""Record ``reference.json``: the observables of every workload, input
variant and size, from one execution each of the program in this checkout.

    python3 perfbench/record_reference.py

Run it only when the program's outputs are meant to change; the output
checks compare every benchmark execution with these values. It refuses to
record a variant whose outputs fail the structural checks.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run._bootstrap()
    from diffusion_lms.cli import main as cli_main

    import calibration
    import checks
    import workloads

    path = run.HERE / "reference.json"
    reference: dict = {}
    work = run.WORK / "record"
    try:
        for size in ("full", "tiny"):
            reference[size] = {}
            for name in workloads.WORKLOADS:
                reference[size][name] = {}
                for variant in range(workloads.VARIANTS):
                    prep = workloads.prepare(name, variant, size, work / "inputs")
                    done = run.execute(cli_main, prep, work / "out", calibration.Kernel(prep.shape))
                    if done.exit_code != 0:
                        print(f"{size} {name} v{variant}: exit {done.exit_code}\n{done.log}", file=sys.stderr)
                        return 1
                    obs = checks.observe(prep, work / "out")
                    misses = checks.structural_misses(prep, obs)
                    if misses:
                        print(f"{size} {name} v{variant}: {misses}", file=sys.stderr)
                        return 1
                    reference[size][name][str(variant)] = obs
                    print(f"{size} {name} v{variant}: {done.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
