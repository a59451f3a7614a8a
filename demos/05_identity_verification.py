"""End-to-end verification: run every suite and print its report.

Run:  python demos/05_identity_verification.py [--full]

The default scales finish in seconds; --full runs the acceptance scales
(a few minutes, dominated by the 8-vertex enumeration).
"""

import sys
import time

from dilations import (crosscheck_extremal_gamma0, crosscheck_extremal_gamma1,
                       verify_counterexample, verify_hereditary, verify_nonextremal)

full = "--full" in sys.argv

runs = [
    ("hereditary", verify_hereditary,
     {"max_n": 6 if full else 5, "samples_per_graph": 1, "seed": 7}),
    ("extremal-gamma1", crosscheck_extremal_gamma1, {"max_n": 7 if full else 6}),
    ("extremal-gamma0", crosscheck_extremal_gamma0, {"max_n": 8 if full else 6}),
    ("nonextremal", verify_nonextremal, {"n_max": 5 if full else 4}),
    ("counterexample", verify_counterexample, {"n_max": 5}),
]

all_ok = True
for name, fn, kwargs in runs:
    t0 = time.perf_counter()
    report = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    all_ok &= report.ok
    print(report.to_text())
    print(f"({elapsed:.1f}s)\n")

print("ALL SUITES:", "PASS" if all_ok else "FAIL")
sys.exit(0 if all_ok else 1)
