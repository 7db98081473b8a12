"""Driving the command-line interface.

Writes a simulated dataset to CSV, then runs the ``fit``, ``select``, and
``simulate`` subcommands exactly as a shell user would, inside a temporary
directory that is removed when the demo ends.
"""

import pathlib
import tempfile

from scrbar import scenario_diverging_p, simulate_dataset
from scrbar.cli import main, write_dataset_csv

with tempfile.TemporaryDirectory(prefix="scrbar_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    csv_path = workdir / "study.csv"

    data = simulate_dataset(scenario_diverging_p(200, censor_upper=32.0, seed=3))
    write_dataset_csv(csv_path, data)
    print(f"wrote {csv_path} ({len(data)} rows, shared z_* schema)")

    print("\n$ scrbar fit study.csv --baseline weibull --out fit/")
    rc = main(["fit", str(csv_path), "--baseline", "weibull",
               "--out", str(workdir / "fit")])
    print(f"exit code {rc}")
    print((workdir / "fit" / "fit_report.txt").read_text().splitlines()[0:6])

    print("\n$ scrbar select study.csv --method bar --baseline bernstein "
          "--degrees 2,2,3 --lambda-count 15 --out sel/")
    rc = main(["select", str(csv_path), "--method", "bar",
               "--baseline", "bernstein", "--degrees", "2,2,3",
               "--lambda-count", "15", "--out", str(workdir / "sel")])
    print(f"exit code {rc}")
    report = (workdir / "sel" / "selection_report.txt").read_text()
    print("\n".join(report.splitlines()[:8]))

    config = workdir / "study.cfg"
    config.write_text("""\
n = 100
replications = 2
design = ar1
censoring = 0.5
baseline = bernstein
degrees = 2,2,3
methods = bar,oracle
seed = 99
lambda_count = 10
""")
    print(f"\n$ scrbar simulate {config.name} --out sim/")
    rc = main(["simulate", str(config), "--out", str(workdir / "sim")])
    print(f"exit code {rc}")
    agg = (workdir / "sim" / "aggregate.csv").read_text()
    print(agg)
    print(f"all outputs under {workdir}")
