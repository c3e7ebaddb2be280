"""Regenerate reference.json: output hashes per workload and seed.

    python3 perfbench/make_reference.py

Runs one checked ``infer`` call per workload, seed in ``SEEDS`` and input of
the seed, as ``run.py`` does, and records the sha256 of ``result.json`` and
``pull_log.ndjson``. Run it only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(20)


def main() -> int:
    cli = run.import_program()
    reference = {}
    for name, workload in run.WORKLOADS.items():
        reference[name] = {}
        for seed in SEEDS:
            work = run.WORK / f"reference-{name}-seed{seed}"
            setup = run.SetUp(cli, name, seed, work)
            hashes = []
            for index, paths in enumerate(setup.paths):
                report, outcome = run.checked_call(
                    paths,
                    setup.truths[index],
                    workload["accuracy_floor"],
                    work / f"out{index}",
                    traced=False,
                    hash_seed=seed,
                    timeout=run.HARD_LIMIT_S,
                )
                if report["problems"]:
                    run.fail(f"{name} seed {seed} input {index}: {report['problems']}", 1)
                hashes.append(
                    {"result_sha256": outcome.result_sha256, "pull_log_sha256": outcome.pull_log_sha256}
                )
                print(f"{name} seed {seed} input {index}: accuracy {outcome.accuracy:.4f}", flush=True)
            reference[name][str(seed)] = hashes
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
