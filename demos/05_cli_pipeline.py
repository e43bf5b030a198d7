"""Drive the command line end to end inside a temporary directory.

synth writes a dataset bundle with planted parameters, validate and stats
check it over, experiment runs a protocol and writes its reports.  The
last section reruns the experiment and compares report bytes: with the
same config and seed the output files must be identical, which is what
makes results portable between machines.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from adoptnet.cli import main

workdir = tempfile.TemporaryDirectory(prefix="adoptnet_demo_")
tmp = Path(workdir.name)
print(f"working under {tmp}")

# --- generate a bundle ---------------------------------------------------
synth_cfg = tmp / "synth.cfg"
synth_cfg.write_text(f"""\
synth.num_users = 40
synth.num_context_users = 20
synth.num_apps = 30
synth.num_networks = 2
synth.edge_density = 0.1
synth.planted_net_weights = 0.8,0.4
synth.planted_pop_weight = 0.02
synth.pop_base_max = 8.0
synth.susceptibility_rate = 10.0
seed = 12
outdir = {tmp / "data"}
""")
assert main(["synth", str(synth_cfg)]) == 0
[bundle] = [p for p in (tmp / "data").iterdir() if p.is_dir()]
print(f"\nbundle {bundle.name}:")
for f in sorted(p.name for p in bundle.iterdir()):
    print(f"  {f}")

# --- check and describe it ----------------------------------------------
run_cfg = tmp / "run.cfg"
run_cfg.write_text(f"""\
num_users = 40
num_apps = 30
adoptions.path = {bundle / "adoptions.csv"}
network.0.path = {bundle / "network0.csv"}
network.0.symmetrize = max
network.1.path = {bundle / "network1.csv"}
network.1.symmetrize = max
protocol = ablation
experiment.folds = 2
experiment.repeats = 1
experiment.min_users = 3
fit.grad_tol = 1e-4
outdir = {tmp / "runs"}
""")
print("\n$ adoptnet validate run.cfg")
assert main(["validate", str(run_cfg)]) == 0
print("\n$ adoptnet stats run.cfg")
assert main(["stats", str(run_cfg)]) == 0

# --- run a protocol, twice -----------------------------------------------
# Every command writes its own manifest directory under outdir, so pick the
# experiment's run out by the report it leaves behind.
print("\n$ adoptnet experiment run.cfg")
assert main(["experiment", str(run_cfg)]) == 0
[run_dir] = [p for p in (tmp / "runs").iterdir() if (p / "report.json").exists()]
first = (run_dir / "report.json").read_bytes()

assert main(["experiment", str(run_cfg)]) == 0
second = (run_dir / "report.json").read_bytes()

print(f"\nrun id {run_dir.name}")
print(f"report.json identical across reruns: {first == second} "
      f"({len(first)} bytes)")

# An overridden seed lands in a different run directory; nothing is
# silently overwritten.
assert main(["experiment", str(run_cfg), "--set", "seed=99"]) == 0
runs = sorted(p.name for p in (tmp / "runs").iterdir()
              if (p / "report.json").exists())
print(f"experiment run directories after a seed override: {runs}")

workdir.cleanup()
