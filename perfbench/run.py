"""Benchmark of addmeta: one command for every workload and metric.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src/``.
For each workload this measures set-up time (fresh interpreters importing
``addmeta`` and building the CLI parser), then runs the workload in a fresh
process (workloads.py) and prints every metric by name with its unit, the
operation counts and the provenance of the result.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics.  The exit code is 1 when any output check fails and
2 when the checkout holds no program.  Results and spans are kept under
``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk-pipeline", "mc-small-n", "mc-large-n", "mc-grid-2w")
SETUP_RUNS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import addmeta.cli; addmeta.cli.build_parser()"


def load_spec(root: Path) -> tuple[dict, int]:
    """(metric name -> unit for trace 0 and trace 1, run_seconds), as declared in BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    return units, spec["run_seconds"]


def setup_seconds(root: Path) -> float:
    """Median wall time of a fresh interpreter importing addmeta and building the parser."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, env: dict,
                 units: dict) -> dict | None:
    out_dir = root / ".perfbench_run"
    work = out_dir / f"work-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    setup_s = setup_seconds(root)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--work", str(work), "--out", str(out)],
            # closed-loop passes for ``seconds``, then the last pass and the checks
            cwd=root, check=True, timeout=3 * seconds + 60,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload {name} did not finish: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.read_text(encoding="utf-8"))
    result.update(env, workload=name, seed=seed, seconds=seconds, trace=trace)
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"], **result["end_to_end"]}
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units[trace].items()}
    result["setup_s"] = setup_s
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']} trace={result['trace']} "
          f"seconds={result['seconds']:g} passes={result['passes']}  nproc={result['nproc']} "
          f"python={result['python']} numpy={result['numpy_version']} "
          f"git={result['git_sha']} src_sha256={result['src_sha256'][:16]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   ops attempted={attempted} failed={failed} failed_ops_ratio={failed / attempted:.6g}")
    for name, metric in result["metrics"].items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in result.get("report", {}).items():
        print(f"   {name} = {value:.6g} (derived)")
    if result["trace"]:
        scale = {"self_s": 1.0, "self_us": 1e-6}
        layers = {k.rsplit(".", 1)[0]: v["value"] * scale[k.rsplit(".", 1)[1]]
                  for k, v in result["metrics"].items() if k.rsplit(".", 1)[1] in scale}
        top = max(layers, key=layers.get)
        print(f"   largest self time: {top} ({layers[top]:.4g} s per pass)")
    for error in result["errors"]:
        print(f"   CHECK FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "addmeta" / "__init__.py").is_file():
        print(f"error: no program at {root / 'src' / 'addmeta'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    units, run_seconds = load_spec(root)
    seconds = run_seconds if args.seconds is None else args.seconds
    env = provenance(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(root, name, args.seed, seconds, args.trace, env, units)
        if result is None:
            return 1
        report(result)
        results.append(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and attempted > 0
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
