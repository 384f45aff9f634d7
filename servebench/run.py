"""End-to-end benchmark of a live ``repro serve``.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds ungated figures (raw seconds, probe times, stop times, Table 1
sizes).  Every run does the same fixed work; ``--seconds`` is the
measuring time that work was sized for and is reported, not enforced.
See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Well inside the 180 s a run may take; a run past it prints no result.
DEADLINE_S = 170


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "query", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # The build step: byte-compile once so no timed spawn compiles.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)

    import layers
    import spans
    import workloads

    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    passes = []
    try:
        fixture = workloads.Fixture(work / "fixture", args.seed) \
            if args.workload in workloads.NEEDS_FIXTURE else None
        drive = workloads.WORKLOADS[args.workload]
        base = workloads.Run(ROOT, work, args.seed)
        passes.append(base)
        drive(base, workloads.SETUP_SPAWNS, fixture)
        if args.trace:
            recorder = spans.Recorder()
            spans.install(recorder)
            traced_dir = work / "traced"
            traced_dir.mkdir()
            traced = workloads.Run(
                ROOT, traced_dir, args.seed, spans_dir=traced_dir,
                around=lambda kind, fn: recorder.call(f"op.{kind}", fn, (),
                                                      {}, counted=True))
            passes.append(traced)
            drive(traced, 1, fixture)
            values = layers.per_layer(base, traced, recorder)
            wanted = declared["per_layer"]
        else:
            values = base.end_to_end()
            wanted = declared["end_to_end"]
    finally:
        signal.alarm(0)
        for run in passes:
            run.kill_all()
    names = [metric["name"] for metric in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"computed metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    failures = [message for run in passes for message in run.failures]
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    info = base.info()
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    result = {
        "correct": not failures,
        "attempted": sum(run.attempted for run in passes),
        "failed": len(failures),
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
