"""Drive the benchmark suites from Python (the CLI wraps exactly these calls).

Full-scale gates live in tests/test_acceptance.py and `hadaquant bench`;
this demo runs every suite at a reduced scale to show the report format.
Rows hold only what they measure; the demo times each suite call itself.
"""

import time

from hadaquant import bench

suites = [
    ("mse", lambda: bench.mse_suite(256, 6, 1500, seed=1)),
    ("unbiased", lambda: bench.unbiased_suite(64, 3, 4000, seed=1)),
    ("inner-product", lambda: bench.inner_product_suite(256, 4, 800, seed=1)),
    ("rate", lambda: bench.rate_suite(512, 4, 200, seed=1)),
    ("oracle", lambda: bench.oracle_suite(seed=1)),
]

all_rows = []
for name, run in suites:
    print(f"== {name} ==")
    start = time.perf_counter()
    rows = run()
    wall = time.perf_counter() - start
    all_rows.extend(rows)
    for r in rows:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"  {r.experiment}: measured={r.measured:.6g} reference={r.reference:.6g} {verdict}")
    print(f"  {len(rows)} rows in {wall:.2f}s")

print("\nCSV form (deterministic for a fixed seed):")
print(bench.rows_to_csv(all_rows[:4]))
print("note: the basis-vector mse row is held only to the 3.0 upper edge;")
print("its transformed coordinates are exactly +-1, so it concentrates near")
print("2.26 at bits=6, below the 2.3 lower edge calibrated for spread inputs")
