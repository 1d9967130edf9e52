"""Driving the solver from the command line and reading its CSV output.

The package installs a `thermistor-fem` console script with two subcommands:

    thermistor-fem run   --scheme bdf2 --elem tri --M 32 \
                         --tau-rule fixed:0.05 --T 1.0 --out run.csv
    thermistor-fem sweep --preset fig-u --out fig_u.csv

`run` executes one configuration; `sweep` executes a named preset study
(fig-u, fig-phi, fig-fixed-tau, fig-temporal, fig-bdf3, table-gao,
table-ext1; fig-phi runs the same four runs as fig-u).  Exit codes: 0 on
success, 2 for an invalid configuration, 3 when a solve fails (non-elliptic
extrapolated conductivity, a solver that did not converge, or memory that
ran out).

Every run appends one CSV row under a fixed header; after the data rows the
file carries experimental-order rows (scheme column `eoc:<scheme>`) for each
consecutive pair of runs of the same scheme, and `#`-comment lines for any
failed runs.  Identical invocations produce byte-identical files.

This demo invokes the CLI in-process and then parses the CSV it wrote.
"""

import csv
import io
import tempfile
from pathlib import Path

from thermistor_fem.cli import main

out = Path(tempfile.mkdtemp()) / "demo.csv"

code = main([
    "run",
    "--scheme", "bdf2",
    "--elem", "tri",
    "--M", "16",
    "--tau-rule", "equal-h",
    "--T", "1.0",
    "--out", str(out),
])
assert code == 0

text = out.read_text()
print("raw CSV:")
print(text)

rows = list(csv.DictReader(io.StringIO(text)))
row = rows[0]
print("parsed fields of the single run:")
print(f"  mesh           M = {row['M']},  h = {float(row['h']):.4e}")
print(f"  stepping       N = {row['N']} steps of tau = {float(row['tau']):.4e}")
print(f"  temperature    L2 {float(row['err_u_l2']):.3e},  "
      f"H1 {float(row['err_u_h1']):.3e}")
print(f"  potential      L2 {float(row['err_phi_l2']):.3e},  "
      f"H1 {float(row['err_phi_h1']):.3e}")
print(f"  postprocessed  u {float(row['superconv_u_h1']):.3e},  "
      f"phi {float(row['superconv_phi_h1']):.3e}")

# An invalid configuration is rejected with exit code 2 before any solve.
code = main([
    "run", "--scheme", "bdf2", "--M", "15",
    "--tau-rule", "fixed:0.05", "--out", str(out),
])
print(f"\nodd M is rejected up front: exit code {code}")
