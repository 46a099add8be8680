"""Self-test of the benchmark's own machinery, on tiny problems.

    python3 perfbench/selftest.py        (from the repository root)

Checks that a corrupted artifact and a non-zero exit each count as a
failed launch, that a traced launch still passes the output checks, that
the work counts taken from spans match closed forms exactly, and that the
benchmark refuses to run without the program's sources.
"""

import math
import shutil
import subprocess
import sys
import unittest

from run import HERE, ROOT, SRC, WORK, Session, Workload, load_spans

sys.path.insert(0, str(SRC))

SMALL = {
    "theorem1": Workload("theorem1", 10, 3, 0.4, 1, 3),
    "jterm_clt": Workload("jterm_clt", 12, 3, 0.5, 1, 6),
    "identities": Workload("identities", 8, 4, 0.3, 1, 2),
}


def _corrupt_first_j_n(csv_path) -> None:
    """Change the leading digit of row 0's j_n so the value moves by O(1)."""
    lines = csv_path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = ("9" if cells[2][0] != "9" else "1") + cells[2][1:]
    lines[1] = ",".join(cells)
    csv_path.write_text("".join(lines))


class SelfTest(unittest.TestCase):
    def setUp(self):
        self.workdir = WORK / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.workdir, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_corrupted_artifact_counts_as_failure(self):
        session = Session(SMALL["jterm_clt"], 5, self.workdir)
        self.assertIsNotNone(session.run(1, traced=False))
        launch = session.launch(1, traced=False)
        _corrupt_first_j_n(launch.paths[0])
        self.assertFalse(session.accept(launch))
        self.assertEqual((session.attempted, session.failed), (2, 1))
        self.assertEqual(session.error_rate, 0.5)

    def test_corrupted_reference_fails_full_checks(self):
        session = Session(SMALL["jterm_clt"], 6, self.workdir)
        launch = session.launch(1, traced=False)
        _corrupt_first_j_n(launch.paths[0])
        self.assertFalse(session.accept(launch))
        self.assertIsNone(session.reference)
        self.assertIsNotNone(session.run(1, traced=False))
        self.assertEqual((session.attempted, session.failed), (2, 1))

    def test_nonzero_exit_counts_as_failure(self):
        supercritical = Workload("theorem1", 10, 3, 5.0, 1, 3)
        session = Session(supercritical, 7, self.workdir)
        launch = session.launch(1, traced=False)
        self.assertEqual(launch.rc, 1)
        self.assertFalse(session.accept(launch))
        self.assertEqual((session.attempted, session.failed), (1, 1))

    def test_traced_counts_match_closed_forms(self):
        for mode, spec in SMALL.items():
            with self.subTest(mode=mode):
                session = Session(spec, 8, self.workdir / mode)
                launch = session.run(1, traced=True)
                self.assertIsNotNone(launch, session.problems)
                # the traced launch set the reference; an untraced one must match it
                self.assertIsNotNone(session.run(1, traced=False), session.problems)
                spans = load_spans(launch)
                counts = spans.counts()
                R, N, p = spec.replicas, spec.n, spec.p
                n = math.comb(N, p)
                enumerates = mode != "jterm_clt"
                self.assertEqual(len(spans.durations["multiindex.sample_disorder"]), R)
                self.assertEqual(counts["multiindex.couplings"], R * n)
                self.assertEqual(len(spans.work.get("model.field_chunks", ())),
                                 2 * R if enumerates else 0)
                self.assertEqual(counts["model.transform_states"],
                                 (2 ** (N - 1) + 2**N) if enumerates else 0)
                hits = n * math.comb(p, p // 2) * math.comb(N - p, p // 2) if p % 2 == 0 else 0
                self.assertEqual(counts["momentlab.h3_hit_ratio"],
                                 hits / (n * n) if mode == "identities" else 0.0)

    def test_refuses_to_run_without_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "jterm_n50",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
