"""Run one benchmark workload and print its result.

    python3 bench/run.py --workload finetune --seed 0 --seconds 20 --trace 0

Workloads: synth, finetune, index_eval, or all (each in its own
process, one after another). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it records the environment, the workload-specific metrics
and the artifact hashes. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics from a traced run.

The program is imported from src/ of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

# One BLAS thread per process, set before numpy is first imported; with
# one embedding thread the workload runs on one core at a time.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("synth", "finetune", "index_eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Run every workload in a child process; exit code is the worst."""
    worst = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False, text=True)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        worst = max(worst, child.returncode)
    return worst


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "macforge", "__init__.py")):
        print(f"error: no macforge package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    import workloads

    units = declared_units(args.trace)
    info, outcome, _ = workloads.run(args.workload, args.seed, args.seconds,
                                     args.trace)
    metrics = outcome["metrics"]
    if metrics and set(metrics) != set(units):
        print("error: emitted metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        outcome["correct"] = False
    outcome["metrics"] = {name: {"value": value, "unit": units.get(name)}
                          for name, value in metrics.items()}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
