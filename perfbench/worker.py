"""One timed ``labelbandit infer`` call in a fresh process.

Run by ``run.py`` once per sample, so each sample pays what a user's
``labelbandit infer`` pays and reports that process's own peak memory.
The call goes through ``labelbandit.cli.main(["infer", ...])`` in-process.

Untraced, only the single call into ``pipeline.bootstrap_infer`` is timed
(for pulls per second); traced, every hook-table entry records spans. Host-
speed checkpoints (``hostspeed.py``) run before and after the call and
before each fold's ``run_inference``; every reported time excludes them and
is scaled to the reference host speed. ``infer_wall_s`` is the unscaled time.
Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --dataset FILE --config FILE --out DIR --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """This process image's peak resident set, VmHWM. ru_maxrss would also
    carry the parent's peak across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import labelbandit.cli
    import hostspeed
    from tracing import CHECKPOINT_BEFORE, HOOKS, Tracer, resolve

    tracer = Tracer()
    tracer.install(HOOKS if args.trace else [e for e in HOOKS if e[1] == "pipeline.bootstrap_infer"])
    timeline = hostspeed.Timeline()
    owner, attr, func = resolve(CHECKPOINT_BEFORE)

    def checkpointed(*call_args, **kwargs):
        timeline.checkpoint()
        return func(*call_args, **kwargs)

    setattr(owner, attr, checkpointed)
    timeline.checkpoint()
    started = time.perf_counter()
    code = labelbandit.cli.main(
        ["infer", "--config", args.config, "--dataset", args.dataset, "--out", args.out]
    )
    ended = time.perf_counter()
    timeline.checkpoint()
    print(
        json.dumps(
            {
                "exit_code": code,
                "infer_s": timeline.scaled_seconds(started, ended),
                "infer_wall_s": timeline.wall_seconds(started, ended),
                "probe_chunk_s": [chunk for _, _, chunk in timeline.checkpoints],
                "peak_rss_mb": peak_rss_mb(),
                "spans": tracer.summary(timeline.scaled_seconds),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
