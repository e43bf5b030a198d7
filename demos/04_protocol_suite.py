"""Run the evaluation protocols on one planted dataset and tabulate them.

The ablation protocol refits the model with individual channels disabled;
the comparison protocol pits the full model against a linear regression
and a random baseline across training fractions and user subsets.  Both
consume the same Dataset and an ExperimentSpec.
"""

from __future__ import annotations

from adoptnet.experiments import Dataset, ExperimentSpec, run_ablation, run_comparison
from adoptnet.solver import FitConfig
from adoptnet.synth import SynthSpec, generate

stack, teacher = generate(SynthSpec(
    num_users=80,
    num_context_users=40,
    num_apps=100,
    num_networks=2,
    edge_density=(0.05, 0.08),
    planted_net_weights=(1.5, 0.8),
    planted_pop_weight=0.015,
    pop_base_max=10.0,
    susceptibility_rate=15.0,
    seed=33,
))
data = Dataset(networks=stack, adoptions=teacher.adoptions)
fast = FitConfig(grad_tol=1e-5)

print(f"dataset fingerprint {data.fingerprint()[:12]}")


def show(report, metric_keys):
    header = f"{'series':>28}" + "".join(f"{k:>12}" for k in metric_keys)
    print(header)
    for series in report.series:
        m = series.mean_metrics()
        row = "".join(f"{m[k]:>12.3f}" for k in metric_keys)
        print(f"{series.name:>28}{row}")


print("\n== ablation (5-fold, 2 repeats) ==")
ab = run_ablation(data, ExperimentSpec(protocol="ablation", repeats=2, seed=0,
                                       min_users=3, fit=fast))
show(ab, ("mp@5", "optimal_f1", "rmse"))

print("\n== comparison (20%/50% splits, all vs low-activity users) ==")
cmp_report = run_comparison(data, ExperimentSpec(protocol="comparison", repeats=2,
                                                 seed=0, min_users=3, fit=fast))
show(cmp_report, ("mp@5", "optimal_f1"))

print("\nreport.files() holds the report's three files, report.json, report.csv and")
print("summary.csv; `adoptnet experiment` writes exactly those plus a manifest.json.")
