#!/usr/bin/env python3
"""Tests of the benchmark's own output checks: each check passes on a real
output and fails on a corrupted copy. Run from the repository root:

    python3 perfbench/test_checks.py

Builds the harness like run.py does, then runs the C++ self-test (dropped
SWAP, wrong qubit, missing lowered block, cost-model k) and the checks that
run.py applies to one-shot CLI outputs.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.mkdtemp(dir=run.BUILD)

    def test_harness_selftest(self):
        p = subprocess.run([run.HARNESS, "selftest"], stdout=subprocess.PIPE,
                           text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_report_pulse_check(self):
        path = os.path.join(run.INPUTS, "mirror_rb", "w8.qasm")
        text = subprocess.run(
            run.cli_args(path, "heavyhex57", run.CATALOG_MIRROR, lower=True),
            stdout=subprocess.PIPE, text=True, check=True).stdout
        problems = []
        run.check_report("rb8", text, True, problems)
        self.assertEqual(problems, [])
        rep = json.loads(text)
        rep["lowered"]["metrics"]["totalPulses"] -= 3  # a missing block
        run.check_report("rb8", json.dumps(rep), True, problems)
        self.assertEqual(len(problems), 1)

    def check_qasm(self, out_text, logical):
        out = run.write(os.path.join(self.tmp, "out.qasm"), out_text)
        lst = run.write(os.path.join(self.tmp, "list"),
                        "%s\t%s\theavyhex57\n" % (out, logical))
        return subprocess.run([run.HARNESS, "check-qasm", "--list", lst],
                              stdout=subprocess.PIPE).returncode

    def test_mirror_qasm_check(self):
        logical = run.write(os.path.join(self.tmp, "m8.qasm"),
                            run.mirror(8, 4, random.Random(3).sample(
                                range(8), 3)))
        p = subprocess.run(run.cli_args(logical, "heavyhex57",
                                        run.CLI_DEFAULTS, fmt="qasm"),
                           stdout=subprocess.PIPE, text=True, check=True)
        lines = p.stdout.splitlines()
        self.assertEqual(self.check_qasm(p.stdout, logical), 0)

        two_q = [i for i, l in enumerate(lines)
                 if l.startswith("cx ") or l.startswith("rxx")]
        # A wrong qubit on one gate: q[56] is never a neighbour of q[0].
        moved = list(lines)
        head, _ = moved[two_q[0]].split(" q[", 1)
        moved[two_q[0]] = head + " q[0],q[56];"
        self.assertEqual(self.check_qasm("\n".join(moved) + "\n", logical), 1)

        # A dropped two-qubit gate leaves no basis state of the right weight.
        dropped = [l for i, l in enumerate(lines) if i != two_q[0]]
        self.assertEqual(self.check_qasm("\n".join(dropped) + "\n", logical),
                         1)


if __name__ == "__main__":
    unittest.main()
