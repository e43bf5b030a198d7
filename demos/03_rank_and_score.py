"""Fit on half the apps, rank users for the held-out half, measure it.

Two scoring regimes are shown.  Standard mode ranks every user for a test
app using all of that app's adopters as evidence (each user's own bit never
feeds its own score).  Future mode hides the later half of the adopters:
only the early half is visible, the late half is what the ranking has to
find.  A seeded random baseline calibrates both.
"""

from __future__ import annotations

import numpy as np

from adoptnet.experiments import future_split
from adoptnet.metrics import evaluate_sheets
from adoptnet.model import training_terms
from adoptnet.predict import PredictionSheet, score_matrix
from adoptnet.solver import fit_mle, random_baseline
from adoptnet.synth import SynthSpec, generate

spec = SynthSpec(
    num_users=80,
    num_context_users=40,
    num_apps=120,
    num_networks=2,
    edge_density=(0.06, 0.1),
    planted_net_weights=(1.2, 0.6),
    planted_pop_weight=0.02,
    pop_base_max=10.0,
    susceptibility_rate=10.0,
    seed=21,
)
networks, teacher = generate(spec)
adoptions = teacher.adoptions

rng = np.random.default_rng(0)
order = rng.permutation(adoptions.num_apps)
train, test = order[:60], order[60:]


def random_like(sheet):
    """Seeded random scores ranking the same users as the sheet, app by app."""
    columns = [random_baseline(networks.num_users, seed=int(a)) for a in sheet.app_ids]
    return PredictionSheet(sheet.app_ids, np.column_stack(columns), sheet.evaluated)


# The fit reads the training split's features, built once by training_terms:
# each network's exposure of every user to every training app, the apps'
# popularity (their adopter counts) and who adopted them.
params, fit = fit_mle(training_terms(networks, adoptions, train))
print(f"fit: {fit.iterations} iterations, objective {fit.final_objective:.2f}")
print(f"network weights {np.round(params.net_weights, 3)}, "
      f"popularity weight {params.pop_weight:.4f}")

# --- standard mode -------------------------------------------------------
# One scoring call covers every test app: column t of the evidence matrix is
# app t's adoption vector, its adopter count the app's popularity, and the
# score matrix is one sheet whose column t ranks the users for app test[t].
evidence = adoptions.installed[:, test]
scores = score_matrix(params, networks, evidence)
model_sheet = PredictionSheet(test, scores)

print("\n== standard mode, 60 held-out apps ==")
for name, sheet in (("model", model_sheet), ("random", random_like(model_sheet))):
    rep = evaluate_sheets([sheet], adoptions, ks=(1, 5, 10))
    mp = "  ".join(f"MP@{k} {v:.3f}" for k, v in sorted(rep.mp_at_k.items()))
    print(f"{name:>7}: {mp}  optimal F1 {rep.optimal_f1:.3f}")

# --- future mode ---------------------------------------------------------
# Evidence and the visible popularity are the early adopters alone; early
# adopters drop out of the ranked set.
halves = future_split(adoptions)
scored = [int(a) for a in test if halves[int(a)][1].size]
skipped = len(test) - len(scored)
early = np.zeros((networks.num_users, len(scored)), dtype=bool)
for j, a in enumerate(scored):
    early[halves[a][0], j] = True
scores = score_matrix(params, networks, early)
model_sheet = PredictionSheet(scored, scores, ~early)

print(f"\n== future mode, {len(scored)} apps ({skipped} without late adopters) ==")
for name, sheet in (("model", model_sheet), ("random", random_like(model_sheet))):
    rep = evaluate_sheets([sheet], adoptions, ks=(3, 5), skipped_apps=skipped)
    mp = "  ".join(f"MP@{k} {v:.3f}" for k, v in sorted(rep.mp_at_k.items()))
    print(f"{name:>7}: {mp}  optimal F1 {rep.optimal_f1:.3f}")
