"""Checks BENCHMARK.json against the harness's printed metric catalog.

Run through `python3 marionbench/run.py --self-test`, which builds the
harness and passes its path in MARIONBENCH_BIN.
"""

import json
import os
import re
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkSpec(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        out = subprocess.run([os.environ["MARIONBENCH_BIN"], "--list-metrics"],
                             check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        cls.printed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit, better = line.split()
            cls.printed[kind].append((name, unit, better))

    def test_metrics_match_one_to_one(self):
        for kind in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"], m["better"])
                      for m in self.spec[kind]]
            self.assertEqual(listed, self.printed[kind], kind)

    def test_names_and_units_use_allowed_characters(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[kind]]
            for m in self.spec[kind]:
                self.assertRegex(m["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names are unique")
        for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
            self.assertLessEqual(len(self.spec[kind]), limit)
            for m in self.spec[kind]:
                self.assertIn(m["better"], ("lower", "higher"))

    def test_workloads_and_bounds(self):
        # daemon_edit_mix is left out of the gated set: its latencies follow
        # the host's thread wake-up delays (README), and compile_cold's
        # traced run replays it for the daemon's layer metrics.
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["compile_cold", "simulate_suite"])
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        # Exact figures: any change at all is a regression.
        for name in ("ok_share", "code.static_instrs", "code.cycles"):
            self.assertEqual(bounds[name], 0.001, name)


if __name__ == "__main__":
    unittest.main()
