"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests

The process-level tests run a tiny verify grid, so the whole file takes a
few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import statistics
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

TINY_ARGV = ["verify", "--N", "1", "--d", "0..1", "--out", "{out}"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_digest() -> str:
    """Digest of the tiny workload's output, computed in this process."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import plethy.cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "v.json"
        with contextlib.redirect_stderr(io.StringIO()):
            assert plethy.cli.main([a.replace("{out}", str(out)) for a in TINY_ARGV]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


def spans_of(*rows):
    """aggregate() over (labels, parent, start, end) rows in start order."""
    labels = [r[0] for r in rows]
    return spans.aggregate(
        labels, range(len(rows)), [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows]
    )


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        got = spans_of(
            (("A",), -1, 0.0, 10.0),
            (("B",), 0, 1.0, 4.0),
            (("C",), 1, 2.0, 3.0),
            (("D",), 0, 5.0, 9.0),
            (("A", "A.inner"), 3, 6.0, 8.0),  # recursion, with a variant label
        )
        self.assertEqual(got["A"]["calls"], 2)
        self.assertAlmostEqual(got["A"]["self_s"], (10 - 3 - 4) + 2)
        self.assertAlmostEqual(got["A"]["incl_s"], 10)  # inner A not counted twice
        self.assertAlmostEqual(got["B"]["self_s"], 2)
        self.assertAlmostEqual(got["B"]["incl_s"], 3)
        self.assertAlmostEqual(got["C"]["self_s"], 1)
        self.assertAlmostEqual(got["D"]["self_s"], 2)
        self.assertAlmostEqual(got["D"]["incl_s"], 4)
        self.assertEqual(got["A.inner"], {"calls": 1, "self_s": 2.0, "incl_s": 2.0})

    def test_overlapping_children_are_covered_once(self):
        got = spans_of(
            (("A",), -1, 0.0, 10.0),
            (("B",), 0, 1.0, 5.0),
            (("B",), 0, 3.0, 12.0),  # overlaps its sibling and outlives A
        )
        self.assertAlmostEqual(got["A"]["self_s"], 1.0)

    def test_wrapped_calls_nest(self):
        t = spans.Tracer()

        def leaf(x):
            return x + 1

        leaf_w = t.wrap(leaf, "m.leaf", None)

        def outer(x):
            return leaf_w(x) + leaf_w(x)

        outer_w = t.wrap(outer, "m.outer", lambda args, kwargs: (f"m.outer.x{args[0]}",))
        self.assertEqual(outer_w(1), 4)
        got = t.aggregate()
        self.assertEqual(got["m.leaf"]["calls"], 2)
        self.assertEqual(got["m.outer.x1"]["calls"], 1)
        self.assertEqual(list(t.parent), [-1, 0, 0])
        self.assertAlmostEqual(
            got["m.outer"]["self_s"] + got["m.leaf"]["incl_s"], got["m.outer"]["incl_s"]
        )


class MetricNames(unittest.TestCase):
    def test_names_match_the_pattern_and_benchmark_json(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))

    def test_time_metrics_name_a_wrapped_label(self):
        labels = {name for _, name, _, _ in self._targets()}
        labels |= {"conjecture.jordan_fingerprint." + s for s in ("p2", "p3", "ambient", "kernel")}
        for name in run.TIMES:
            self.assertIn(name.rpartition(".")[0], labels, name)

    @staticmethod
    def _targets():
        sys.path.insert(0, str(run.ROOT / "src"))
        import plethy.cli  # noqa: F401

        return spans.targets()


class Executions(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def runner(self, sha256: str) -> run.Runner:
        spec = {"argv": TINY_ARGV, "exit_code": 0, "sha256": sha256}
        patcher = mock.patch.dict(run.WORKLOADS, {"tiny": spec})
        patcher.start()
        self.addCleanup(patcher.stop)
        return run.Runner("tiny", Path(self.tmp.name))

    def test_digest_mismatch_is_a_failure(self):
        runner = self.runner("0" * 64)
        self.assertIsNone(runner.execute("plain"))
        self.assertEqual(runner.attempted, 1)
        self.assertEqual(len(runner.failures), 1)
        self.assertIn("sha256", runner.failures[0])

    def test_digest_match_passes(self):
        runner = self.runner(tiny_digest())
        data = runner.execute("plain")
        self.assertEqual(runner.failures, [])
        self.assertEqual(data["exit_code"], 0)

    def test_mismatch_fails_the_command(self):
        self.runner("0" * 64)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 1)

    def test_times_are_scaled_by_the_reference(self):
        runner = self.runner(tiny_digest())
        metrics, samples = run.end_to_end(runner, 1)
        self.assertEqual(runner.failures, [])
        n, k = samples["executions"], run.PROBES_PER_EXECUTION
        self.assertGreaterEqual(n, run.MIN_EXECUTIONS)
        self.assertEqual(len(samples["setup_s"]), n * k)
        refs = samples["reference_s"]
        scales = [run.REFERENCE_S / statistics.fmean(refs[i * k:(i + 1) * k]) for i in range(n)]
        self.assertEqual(samples["scale"], scales)
        walls = [w * s for w, s in zip(samples["wall_s"], scales)]
        setups = [t * scales[i // k] for i, t in enumerate(samples["setup_s"])]
        self.assertAlmostEqual(metrics["wall_s"], statistics.median(walls))
        self.assertAlmostEqual(metrics["setup_s"], statistics.median(setups))

    def test_untraced_execution_installs_no_wrappers(self):
        runner = self.runner(tiny_digest())
        self.assertEqual(runner.execute("plain")["wrappers"], 0)
        traced = runner.execute("trace")
        self.assertGreater(traced["wrappers"], 0)
        self.assertIn("cli.verify_point", traced["layers"])

    def test_counting_passes_repeat_exactly(self):
        runner = self.runner(tiny_digest())
        first, second = runner.execute_parallel("count", 2, 2)
        self.assertEqual(runner.failures, [])
        self.assertEqual(first["counts"], second["counts"])
        self.assertGreater(first["counts"]["rings.ops.QQ"], 0)


if __name__ == "__main__":
    unittest.main()
