#!/usr/bin/env python3
"""Tests for scripts/lint_streamsc.py.

Runs the linter as a subprocess (the same way check.sh and CI invoke it)
against fixture trees with planted violations and asserts every planted
violation is reported at its exact file:line with the right rule id —
and that a clean fixture and the real repo tree both pass. This is the
proof required by the tooling wall: the linter demonstrably fails on
each class of violation it claims to enforce, so a green run means
something.

Locations are resolved from STREAMSC_REPO_ROOT (set by the ctest
registration) and fall back to path-relative lookup so the test also
runs directly: `python3 tests/tooling/lint_streamsc_test.py`.
"""

import os
import pathlib
import subprocess
import sys
import unittest

REPO_ROOT = pathlib.Path(
    os.environ.get("STREAMSC_REPO_ROOT",
                   pathlib.Path(__file__).resolve().parents[2]))
LINTER = REPO_ROOT / "scripts" / "lint_streamsc.py"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def run_linter(*args):
    return subprocess.run(
        [sys.executable, str(LINTER), *args],
        capture_output=True, text=True, check=False)


class LintStreamscTest(unittest.TestCase):
    def assert_reported(self, result, rel_path, line, rule):
        """The violation shows up as `<path>:<line>: [<rule>]...`."""
        needle = f"{rel_path}:{line}: [{rule}]"
        self.assertIn(needle, result.stdout,
                      f"expected {needle!r} in linter output:\n"
                      f"{result.stdout}")

    def test_clean_fixture_passes(self):
        result = run_linter("--root", str(FIXTURES / "clean"))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertEqual(result.stdout, "")

    def test_violations_fixture_fails_with_located_reports(self):
        result = run_linter("--root", str(FIXTURES / "violations"))
        self.assertEqual(result.returncode, 1,
                         "planted violations must fail the linter")
        # Upward include: util -> stream.
        self.assert_reported(result, "src/util/upward.h", 3, "layer-dag")
        # Sideways include: storage -> core.
        self.assert_reported(result, "src/storage/sideways.cc", 1,
                             "layer-dag")
        # cassert include and raw assert in a solver layer.
        self.assert_reported(result, "src/core/bad_config.h", 3,
                             "raw-assert")
        self.assert_reported(result, "src/core/bad_config.h", 9,
                             "raw-assert")
        # Non-owning engine and arena pointer members in a config struct.
        self.assert_reported(result, "src/core/bad_config.h", 5,
                             "engine-ptr")
        self.assert_reported(result, "src/core/bad_config.h", 6,
                             "arena-ptr")
        # rand() and std::random_device.
        self.assert_reported(result, "src/core/bad_config.h", 11,
                             "determinism")
        self.assert_reported(result, "src/core/bad_random.cc", 3,
                             "determinism")
        # Direct chrono outside util//obs/: the include and the use.
        self.assert_reported(result, "src/stream/bad_chrono.cc", 1,
                             "chrono")
        self.assert_reported(result, "src/stream/bad_chrono.cc", 4,
                             "chrono")
        # serve/ reaching into comm/ (unreachable in the DAG) and timing
        # with raw chrono instead of util/stopwatch.h.
        self.assert_reported(result, "src/serve/bad_daemon.cc", 1,
                             "layer-dag")
        self.assert_reported(result, "src/serve/bad_daemon.cc", 2,
                             "chrono")
        self.assert_reported(result, "src/serve/bad_daemon.cc", 5,
                             "chrono")
        # dynamic/ reaching up into serve/ and timing with raw chrono
        # instead of util/stopwatch.h.
        self.assert_reported(result, "src/dynamic/bad_overlay.cc", 1,
                             "layer-dag")
        self.assert_reported(result, "src/dynamic/bad_overlay.cc", 2,
                             "chrono")
        self.assert_reported(result, "src/dynamic/bad_overlay.cc", 5,
                             "chrono")
        # Raw popcount and pext outside util/word_kernels.cc, in a solver
        # layer and in util/ itself; the kernel home is exempt.
        # The x86 intrinsic headers and the vector popcounts count too.
        for line in (3, 4, 9, 10, 12, 14, 15, 16):
            self.assert_reported(result, "src/core/bad_popcount.cc", line,
                                 "raw-popcount")
        self.assert_reported(result, "src/util/bad_rank.h", 3,
                             "raw-popcount")
        self.assertNotIn("src/util/word_kernels.cc", result.stdout)
        # A pass driven around EngineContext in a solver layer; the
        # stream-implementing layers are exempt.
        self.assert_reported(result, "src/core/bad_pass.cc", 6, "raw-pass")
        self.assert_reported(result, "src/core/bad_pass.cc", 9, "raw-pass")
        self.assert_reported(result, "src/core/bad_pass.cc", 13, "raw-pass")
        self.assertNotIn("src/storage/pass_ok.cc", result.stdout)
        # A set-cover run's U and solution categories declared outside
        # core/cover_run.cc; the CoverRun home itself is exempt.
        self.assert_reported(result, "src/core/bad_cover_state.cc", 4,
                             "cover-state")
        self.assert_reported(result, "src/core/bad_cover_state.cc", 6,
                             "cover-state")
        self.assertNotIn("src/core/cover_run.cc", result.stdout)
        # The ssc1 file loader called outside storage/; the storage layer
        # itself is exempt.
        self.assert_reported(result, "src/dynamic/bad_open.cc", 6,
                             "instance-open")
        self.assertNotIn("src/storage/open_ok.cc", result.stdout)
        # Blocking file read streams outside MmapFile's fallback; the
        # comment and the string literal naming one do not count.
        self.assert_reported(result, "src/instance/bad_read.cc", 6,
                             "blocking-read")
        self.assert_reported(result, "src/instance/bad_read.cc", 12,
                             "blocking-read")
        self.assertNotIn("src/storage/mmap_file.cc", result.stdout)
        # Threads started or waited on outside the engine's pool; the
        # pool's own files and serve/ are exempt.
        self.assert_reported(result, "src/core/bad_thread.cc", 9,
                             "raw-thread")
        self.assert_reported(result, "src/core/bad_thread.cc", 10,
                             "raw-thread")
        self.assert_reported(result, "src/core/bad_thread.cc", 11,
                             "raw-thread")
        self.assert_reported(result, "src/core/bad_thread.cc", 13,
                             "raw-thread")
        self.assertNotIn("src/stream/parallel_pass_engine.cc", result.stdout)
        self.assertNotIn("src/serve/thread_ok.cc", result.stdout)
        # Node-keyed tables in an offline sub-solve; the comment, the
        # string literal and std::set_union do not count, and other
        # layers may keep such tables.
        self.assert_reported(result, "src/offline/bad_table.cc", 9,
                             "offline-table")
        self.assert_reported(result, "src/offline/bad_table.cc", 10,
                             "offline-table")
        self.assert_reported(result, "src/offline/bad_table.cc", 11,
                             "offline-table")
        self.assert_reported(result, "src/offline/bad_table.cc", 12,
                             "offline-table")
        self.assertNotIn("src/core/table_ok.cc", result.stdout)

    def test_violation_count_is_exact(self):
        """No over-reporting: exactly the planted violations, nothing
        from comments, string literals, or the clean lines around them."""
        result = run_linter("--root", str(FIXTURES / "violations"))
        reported = [l for l in result.stdout.splitlines() if "[" in l]
        self.assertEqual(len(reported), 41, result.stdout)

    def test_real_tree_is_clean(self):
        """The wall starts (and stays) at zero violations on the repo."""
        result = run_linter("--root", str(REPO_ROOT))
        self.assertEqual(
            result.returncode, 0,
            "the real src/ tree must stay lint-clean:\n" + result.stdout)

    def test_list_rules(self):
        result = run_linter("--list-rules")
        self.assertEqual(result.returncode, 0)
        rules = result.stdout.split()
        self.assertEqual(
            rules, ["layer-dag", "raw-assert", "determinism", "engine-ptr",
                    "arena-ptr", "chrono", "raw-popcount", "raw-pass",
                    "cover-state", "instance-open", "blocking-read",
                    "raw-thread", "offline-table"])


class TidyGatingTest(unittest.TestCase):
    """scripts/tidy.sh missing-tool policy: skip-with-warning locally,
    hard-fail under REQUIRE_TOOLS=1 (the CI posture). Run with an empty
    PATH stub dir so clang-tidy is absent even on boxes that carry it."""

    def run_tidy(self, require_tools):
        stub_path = "/usr/bin:/bin"  # sh, coreutils — but no clang-tidy
        env = dict(os.environ)
        env["PATH"] = stub_path
        env.pop("CLANG_TIDY", None)
        env["REQUIRE_TOOLS"] = "1" if require_tools else "0"
        return subprocess.run(
            ["bash", str(REPO_ROOT / "scripts" / "tidy.sh")],
            capture_output=True, text=True, check=False, env=env,
            cwd=REPO_ROOT)

    @unittest.skipIf(
        subprocess.run(["sh", "-c", "command -v clang-tidy"],
                       capture_output=True,
                       env={"PATH": "/usr/bin:/bin"}).returncode == 0,
        "clang-tidy present in the stub PATH; gating not testable here")
    def test_missing_tool_skips_with_warning_locally(self):
        result = self.run_tidy(require_tools=False)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("WARNING", result.stderr)

    @unittest.skipIf(
        subprocess.run(["sh", "-c", "command -v clang-tidy"],
                       capture_output=True,
                       env={"PATH": "/usr/bin:/bin"}).returncode == 0,
        "clang-tidy present in the stub PATH; gating not testable here")
    def test_missing_tool_fails_in_ci_posture(self):
        result = self.run_tidy(require_tools=True)
        self.assertEqual(result.returncode, 1)
        self.assertIn("FATAL", result.stderr)


if __name__ == "__main__":
    unittest.main()
