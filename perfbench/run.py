"""plethy benchmark: three fixed CLI workloads, each execution in a fresh
single-threaded interpreter, checked byte for byte against pinned digests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With --trace 0 it reports the
end-to-end metrics (medians over executions and set-up probes); with
--trace 1 one untraced, one traced and two counting executions give the
per-layer metrics.  The last stdout line is the result object; the line
before it records the environment and sample counts.  Exit status is 0 only
when every execution exited as expected with the pinned output bytes.

See perfbench/README.md for what each workload is for.
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
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# argv for plethy.cli.main; "{out}" becomes a fresh file per execution.
# Each grid takes about 2-4 s per execution on a 2-vCPU x86-64 host, so a
# run of --seconds 40 takes a median over 7-15 executions.
WORKLOADS = {
    # 17 points, 493 checks: every equivariance route over all four exact rings
    "verify-grid": {
        "argv": ["verify", "--N", "1..3", "--d", "0..5", "--p", "2,3,5", "--out", "{out}"],
        "exit_code": 0,
        "sha256": "4bd2d9e94661c1f233077be8dd956b6f746d72876a050233be03f2813492458a",
    },
    # one large point, structure and the block inverse only
    "dump-inverse": {
        "argv": [
            "dump", "--N", "4", "--d", "10", "--what", "inverse",
            "--format", "json", "--out", "{out}",
        ],
        "exit_code": 0,
        "sha256": "1e44158b27d1bf25d7792aaa766c6c1841e115fac1dfffbadce6a2619dd152fa",
    },
    # 42 points: Jordan fingerprints over GF(2) and GF(3); freezes the p=2
    # disagreements at (M, N, d) = (3, 2, 2), (3, 2, 4) and (3, 2, 6)
    "scan-grid": {
        "argv": [
            "scan", "--M", "1..3", "--N", "1..2", "--d", "0..6", "--p", "2,3",
            "--workers", "1", "--out", "{out}",
        ],
        "exit_code": 0,
        "sha256": "bee7314a7b8239457606d302125eed1ee91e234cfa88f11818096a22f660d665",
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

TIMES = [
    "iso.verify_group_equivariance_poly.incl_s",
    "iso.verify_group_equivariance_fp.incl_s",
    "iso.verify_lie_equivariance.incl_s",
    "iso.verify_duality.incl_s",
    "iso.verify_structure.incl_s",
    "spaces.group_action_map.self_s",
    "spaces.lie_action_map.self_s",
    "spaces.LinearMap.eq.self_s",
    "spaces.compose.self_s",
    "iso.IsoContext.self_s",
    "iso.inverse.self_s",
    "schur.HookSchurSpace.self_s",
    "spaces.rank.self_s",
    "schur.coordinates.self_s",
    "dump.dump_payload.self_s",
    "dump.weight_block_digest.self_s",
    "cli.verify_point.self_s",
    "conjecture.jordan_fingerprint.p2.self_s",
    "conjecture.jordan_fingerprint.p3.self_s",
    "conjecture.jordan_fingerprint.ambient.incl_s",
    "conjecture.jordan_fingerprint.kernel.incl_s",
    "spaces.apply.self_s",
    "spaces.rank_of_vectors.self_s",
    "spaces.kernel_basis.self_s",
    "conjecture.hook_kernel_vectors.incl_s",
    "conjecture.conjecture_qchar.incl_s",
    "characters.verify_qchar_identity.incl_s",
    "tableaux.semistandard_pairs.self_s",
]
COUNTS = [
    "spaces.group_action_map.calls",
    "spaces.compose.calls",
    "spaces.compose.entries_out",
    "rings.ops.ZZ",
    "rings.ops.QQ",
    "rings.ops.GF",
    "rings.ops.ZZ_gamma",
    "rings.intpoly_new",
    "iso.inverse.nnz",
    "iso.weight_blocks",
    "iso.max_block",
    "schur.coordinates.calls",
    "schur.coordinates_fallback.calls",
    "spaces.apply.calls",
    "spaces.rank_of_vectors.calls",
]
PER_LAYER = {
    "trace.overhead_s": "s",
    **{name: "s" for name in TIMES},
    **{name: "count" for name in COUNTS},
    "dump.payload_bytes": "bytes",
}

MIN_EXECUTIONS = 3  # a median needs at least three samples
PROBES_PER_EXECUTION = 4
# The reference() time in worker.py that defines the reference speed, about
# what a 2-vCPU x86-64 host with CPython 3.11 takes.
REFERENCE_S = 0.07
# Every process of a run is stopped by then, so a run ends within 180 s.
DEADLINE_S = 170


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine_settings": "unchanged: the harness only starts its own python "
        "processes and sets no OS, kernel, cgroup or CPU option",
    }


def child_env() -> dict:
    """The caller's environment minus anything that steers Python or plethy."""
    return {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "PLETHY_"))
    }


def worker_cmd(mode: str, result: Path, argv=()) -> list[str]:
    return [
        sys.executable, "-s", str(WORKER),
        "--root", str(ROOT), "--mode", mode, "--result", str(result),
        "--", *argv,
    ]


def check(spec: dict, exit_code, output: bytes | None) -> str | None:
    """Why an execution failed, or None when it matched the pinned result."""
    if exit_code != spec["exit_code"]:
        return f"exit code {exit_code}, expected {spec['exit_code']}"
    if output is None:
        return "no output file"
    digest = hashlib.sha256(output).hexdigest()
    if digest != spec["sha256"]:
        return f"output sha256 {digest}, expected {spec['sha256']}"
    return None


class Runner:
    """Starts executions serially (counting passes excepted) in one work
    directory and keeps the tally of attempts and failures."""

    def __init__(self, workload: str, work: Path):
        self.spec = WORKLOADS[workload]
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.seq = 0
        self.attempted = 0
        self.failures: list[str] = []

    def _paths(self, mode: str):
        self.seq += 1
        return self.work / f"{self.seq}-{mode}.json", self.work / f"{self.seq}-{mode}.out"

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def probe(self) -> dict:
        """An import-only process: its set-up time and reference time."""
        result, _ = self._paths("probe")
        subprocess.run(
            worker_cmd("probe", result), cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=self.remaining(),
            check=True,
        )
        data = json.loads(result.read_text())
        result.unlink()
        return data

    def start(self, mode: str):
        result, out = self._paths(mode)
        argv = [a.replace("{out}", str(out)) for a in self.spec["argv"]]
        proc = subprocess.Popen(
            worker_cmd(mode, result, argv), cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        return mode, proc, result, out

    def finish(self, mode: str, proc, result: Path, out: Path) -> dict | None:
        try:
            _, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            err = b"timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        self.attempted += 1
        data = None
        if proc.returncode != 0:
            reason = f"worker exited {proc.returncode}: {err.decode(errors='replace')[-400:]}"
        else:
            data = json.loads(result.read_text())
            reason = check(self.spec, data["exit_code"], out.read_bytes() if out.exists() else None)
            if reason is None and mode == "plain" and data["wrappers"]:
                reason = "wrappers found in an untraced execution"
        for path in (result, out):
            path.unlink(missing_ok=True)
        if reason is not None:
            self.failures.append(reason)
            return None
        return data

    def execute(self, mode: str) -> dict | None:
        return self.finish(*self.start(mode))

    def execute_parallel(self, mode: str, n: int, workers: int) -> list:
        """n executions, at most `workers` at a time; for untimed passes."""
        results = []
        while len(results) < n:
            batch = [self.start(mode) for _ in range(min(workers, n - len(results)))]
            try:
                results.extend(self.finish(*job) for job in batch)
            finally:
                for _, proc, _, _ in batch:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
        return results


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """An untimed warm-up execution, then timed steps until the next one
    would overrun `seconds` (at least MIN_EXECUTIONS).  The warm-up counts
    towards `seconds`.  A step is an execution followed by
    PROBES_PER_EXECUTION probes.

    The host's speed changes from second to second, and every sample moves
    with it, so each step's samples are scaled to the reference speed: by
    REFERENCE_S over the mean reference time of the step's probes.  The
    time metrics are medians of the scaled samples."""
    t0 = time.monotonic()
    runner.probe()  # untimed: compiles bytecode in a fresh checkout
    if runner.execute("plain") is None:  # untimed, but checked like the rest
        return {}, {"executions": 0}
    walls, rss, setups, refs, scales, steps = [], [], [], [], [], []
    while True:
        step_start = time.monotonic()
        data = runner.execute("plain")
        if data is None:
            break
        probes = [runner.probe() for _ in range(PROBES_PER_EXECUTION)]
        scale = REFERENCE_S / statistics.fmean(p["reference_s"] for p in probes)
        walls.append(data["wall_s"])
        rss.append(data["peak_rss_mb"])
        setups.extend(p["setup_s"] for p in probes)
        refs.extend(p["reference_s"] for p in probes)
        scales.append(scale)
        now = time.monotonic()
        steps.append(now - step_start)
        if len(walls) >= MIN_EXECUTIONS and now - t0 + statistics.median(steps) > seconds:
            break
    if not walls:
        return {}, {"executions": 0}
    metrics = {
        "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "setup_s": statistics.median(
            t * scales[i // PROBES_PER_EXECUTION] for i, t in enumerate(setups)
        ),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {
        "executions": len(walls),
        "probes": len(setups),
        "wall_s": walls,
        "setup_s": setups,
        "reference_s": refs,
        "scale": scales,
        "peak_rss_mb": rss,
    }
    return metrics, samples


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """One untraced, one traced and two counting executions."""
    plain = runner.execute("plain")
    traced = runner.execute("trace")
    workers = min(2, len(os.sched_getaffinity(0)))
    counted = runner.execute_parallel("count", 2, workers)
    if plain is None or traced is None or None in counted:
        return {}, {}
    first, second = (c["counts"] for c in counted)
    if first != second:
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        runner.failures.append(f"counting passes differ on {diff}")
        return {}, {}
    layers = traced["layers"]
    metrics = {"trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    for name in TIMES:
        label, _, field = name.rpartition(".")
        metrics[name] = layers.get(label, {}).get(field, 0.0)
    for name in COUNTS + ["dump.payload_bytes"]:
        metrics[name] = first.get(name, 0)
    samples = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "counting_passes": len(counted),
        "spans": traced["spans"],
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "plethy" / "cli.py").is_file():
        print(f"no plethy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The workloads are fixed grids whose outputs are pinned by digest, so
    # the seed selects nothing; it is recorded with the result.
    scratch = ROOT / "perfbench" / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        runner = Runner(args.workload, work)
        if args.trace:
            metrics, samples = per_layer(runner)
            units = PER_LAYER
        else:
            metrics, samples = end_to_end(runner, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    correct = failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": samples,
        "fail_ratio": failed / attempted,
        "failures": runner.failures,
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
