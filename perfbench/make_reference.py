"""Store the reference answers every benchmark run is compared with.

    python3 perfbench/make_reference.py

For each workload and each seed in ``workloads.REFERENCE_SEEDS``, runs the
first ``ref_ops`` operations untimed and writes each one's answer (see
``workloads.compare``) to perfbench/reference.json, replacing the file.
Regenerate only on purpose: a run whose answers move away from these counts
them in ``ref_mismatch``.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_scrbar()
    import workloads

    ref = {}
    work = run.OUT / "work_reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, spec in workloads.WORKLOADS.items():
            for seed in workloads.REFERENCE_SEEDS:
                wl = workloads.make(spec, seed, work)
                wl.write_inputs()
                wl.setup()
                answers = {}
                with wl.capture.installed():
                    for i in range(wl.spec.ref_ops):
                        res = wl.run_op(i)
                        problems = res.problems + workloads.fit_problems(res)
                        if res.failed or problems:
                            raise SystemExit(f"{name} seed {seed} op {i}: {problems}")
                        answers[str(i)] = res.answer
                ref.setdefault(name, {})[str(seed)] = answers
                print(f"{name} seed {seed}: {len(answers)} answers", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
