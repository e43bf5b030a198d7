"""Acceptance gate: ten checks, one printed verdict line each.

Each test prints ``CRITERION nn PASS/FAIL`` with the measured numbers (run
pytest with ``-s`` to see the lines; they also appear in captured output on
failure).  Checks 1-7 carry wall-clock budgets that are asserted, the rest
report elapsed time only.  Everything is seeded; reruns are deterministic.
"""
from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from adoptnet import solver as solver_mod
from adoptnet import experiments as exp_mod
from adoptnet.cli import EXIT_OK, main
from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack
from adoptnet.experiments import (
    ABLATION_CONFIGS,
    Dataset,
    ExperimentSpec,
    LeakError,
    future_split,
    observable_user_split,
    run_ablation,
    run_comparison,
    run_future,
    run_transfer,
)
from adoptnet.metrics import evaluate_sheets, precision_at_k
from adoptnet.model import (
    log_likelihood,
    log_likelihood_gradient,
    network_potentials,
    training_terms,
)
from adoptnet.model import objective_value as objective_value_fn
from adoptnet.predict import PredictionSheet
from adoptnet.seeds import derive_seed
from adoptnet.solver import FitConfig, fit_mle
from adoptnet.synth import SynthSpec, generate, recovery_error, recovery_fit
from adoptnet.model import ModelParams


def _verdict(num: int, label: str, ok: bool, detail: str, elapsed: float,
             budget: float | None = None) -> None:
    """Print the one-line verdict, then enforce it."""
    in_budget = budget is None or elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    clock = f"{elapsed:.1f}s" + (f" of {budget:.0f}s budget" if budget else "")
    print(f"CRITERION {num:02d} {status} [{label}] {detail} ({clock})")
    assert ok, f"criterion {num} failed: {detail}"
    assert in_budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget:.0f}s"


def _random_instance(rng: np.random.Generator, num_users: int, num_networks: int,
                     num_apps: int, density: float = 0.15):
    """A random feasible problem: weighted symmetric networks, bits, popularity."""
    nets = []
    for m in range(num_networks):
        upper = np.triu(rng.random((num_users, num_users)) < density, 1)
        w = upper * rng.uniform(0.2, 1.0, (num_users, num_users))
        w = w + w.T
        nets.append(CandidateNetwork(num_users=num_users, weights=w, name=f"g{m}"))
    installed = rng.random((num_users, num_apps)) < rng.uniform(0.1, 0.4)
    installed[rng.integers(num_users), rng.integers(num_apps)] = True
    stack = NetworkStack(networks=tuple(nets),
                         popularity=installed.sum(axis=0).astype(float))
    adoptions = AdoptionMatrix(num_users=num_users, num_apps=num_apps,
                               installed=installed)
    return stack, adoptions


def _random_params(rng: np.random.Generator, num_users: int, num_networks: int) -> ModelParams:
    # susceptibilities kept well above zero so finite differencing stays feasible
    return ModelParams(
        susceptibility=rng.uniform(0.05, 0.8, num_users),
        net_weights=rng.uniform(0.05, 0.6, num_networks),
        pop_weight=float(rng.uniform(0.001, 0.02)),
    )


class TestCriterion01Gradient:
    def test_gradient_matches_central_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            num_users = int(rng.integers(5, 31))
            num_networks = int(rng.integers(1, 5))
            num_apps = int(rng.integers(3, 41))
            stack, adoptions = _random_instance(rng, num_users, num_networks, num_apps)
            train = rng.choice(num_apps, size=max(2, num_apps // 2), replace=False)
            params = _random_params(rng, num_users, num_networks)
            grad = log_likelihood_gradient(params, stack, adoptions, train)

            theta = np.concatenate([params.susceptibility, params.net_weights,
                                    [params.pop_weight]])
            fd = np.empty_like(theta)
            for i in range(theta.size):
                for sign, slot in ((1.0, 0), (-1.0, 1)):
                    t = theta.copy()
                    t[i] += sign * h
                    p = ModelParams(susceptibility=t[:num_users],
                                    net_weights=t[num_users:num_users + num_networks],
                                    pop_weight=float(t[-1]))
                    if slot == 0:
                        up = log_likelihood(p, stack, adoptions, train)
                    else:
                        down = log_likelihood(p, stack, adoptions, train)
                fd[i] = (up - down) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(rel.max()))
        _verdict(1, "gradient oracle", worst < 1e-6,
                 f"20 instances, max rel err {worst:.2e} < 1e-6",
                 time.perf_counter() - start, budget=10.0)


class TestCriterion02Concavity:
    def test_objective_above_chords(self):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        min_margin = np.inf
        done = 0
        for _ in range(5):
            num_users = int(rng.integers(8, 25))
            num_networks = int(rng.integers(1, 4))
            stack, adoptions = _random_instance(rng, num_users, num_networks,
                                                int(rng.integers(5, 30)))
            terms = training_terms(stack, adoptions, np.arange(adoptions.num_apps))
            dim_w = num_networks
            for _ in range(10):
                s1, s2 = rng.uniform(0, 1.5, (2, num_users))
                w1, w2 = rng.uniform(0, 1.2, (2, dim_w))
                p1, p2 = rng.uniform(0, 0.05, 2)
                lam = float(rng.uniform(0.05, 0.95))
                f1 = objective_value_fn(terms, s1, w1, float(p1))
                f2 = objective_value_fn(terms, s2, w2, float(p2))
                mid = objective_value_fn(terms, lam * s1 + (1 - lam) * s2,
                                         lam * w1 + (1 - lam) * w2,
                                         float(lam * p1 + (1 - lam) * p2))
                margin = mid - (lam * f1 + (1 - lam) * f2)
                min_margin = min(min_margin, margin)
                done += 1
        _verdict(2, "concavity", done == 50 and min_margin >= -1e-9,
                 f"50 segment triples, min(mid - chord) = {min_margin:.2e} >= -1e-9",
                 time.perf_counter() - start, budget=10.0)


class TestCriterion03SolverOptimality:
    def test_multistart_agreement_and_feasible_iterates(self, monkeypatch):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        stack, adoptions = _random_instance(rng, 30, 3, 40)
        train = np.arange(0, 40, 2)

        lowest = {"value": np.inf}
        real = objective_value_fn

        def recording(terms, s, w, w_pop):
            lowest["value"] = min(lowest["value"], float(min(s.min(), w.min(), w_pop)))
            return real(terms, s, w, w_pop)

        monkeypatch.setattr(solver_mod, "objective_value", recording)
        finals = []
        starts = [(0.01, 0.0), (0.1, 0.05), (0.5, 0.2), (1.0, 0.8), (2.0, 1.5)]
        for w0, s0 in starts:
            cfg = FitConfig(init_net_weight=w0, init_susceptibility=s0)
            params, result = fit_mle(training_terms(stack, adoptions, train), cfg=cfg)
            assert result.converged
            assert params.susceptibility.min() >= 0
            assert params.net_weights.min() >= 0 and params.pop_weight >= 0
            finals.append(result.final_objective)
        monkeypatch.setattr(solver_mod, "objective_value", real)

        best = max(finals)
        spread = max(abs(f - best) for f in finals) / max(1.0, abs(best))
        feasible = lowest["value"] >= 0.0
        _verdict(3, "solver optimality",
                 spread <= 1e-6 and feasible,
                 f"5 starts, rel spread {spread:.2e} <= 1e-6, "
                 f"min coord over all evaluated iterates {lowest['value']:.1e} >= 0",
                 time.perf_counter() - start, budget=30.0)


class TestCriterion04PlantedRecovery:
    def test_weight_recovery_and_consistency_trend(self):
        start = time.perf_counter()
        errors = {}
        for num_apps in (200, 400, 800):
            spec = replace(SynthSpec(), num_apps=num_apps)
            stack, teacher = generate(spec)
            params, result = recovery_fit(stack, teacher)
            assert result.converged
            errors[num_apps] = recovery_error(teacher.params, params,
                                              teacher.target_users)
        err = errors[400]
        ok = (err.rel_l2_weights < 0.15 and err.cosine_weights > 0.95
              and errors[800].rel_l2_weights <= errors[200].rel_l2_weights)
        _verdict(4, "planted recovery", ok,
                 f"rel_l2 {err.rel_l2_weights:.3f} < 0.15, cosine "
                 f"{err.cosine_weights:.4f} > 0.95; rel_l2 by app count "
                 f"200/400/800 = {errors[200].rel_l2_weights:.3f}/"
                 f"{errors[400].rel_l2_weights:.3f}/{errors[800].rel_l2_weights:.3f}",
                 time.perf_counter() - start, budget=120.0)


def _brute_precision(scores: np.ndarray, adopters: set[int], k: int) -> float:
    order = sorted(range(scores.size), key=lambda u: (-scores[u], u))
    return sum(1 for u in order[:k] if u in adopters) / k


def _brute_best_f1(pairs: list[tuple[float, int]]) -> float:
    positives = sum(bit for _, bit in pairs)
    best = 0.0
    for t in {s for s, _ in pairs}:
        predicted = sum(1 for s, _ in pairs if s >= t)
        tp = sum(1 for s, bit in pairs if s >= t and bit)
        if tp:
            p, r = tp / predicted, tp / positives
            best = max(best, 2 * p * r / (p + r))
    return best


class TestCriterion05MetricOracles:
    def test_exact_match_with_exhaustive_enumeration(self):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        for case in range(1000):
            num_apps = int(rng.integers(1, 4))
            sizes = []
            left = 12
            for a in range(num_apps):
                hi = left - (num_apps - 1 - a)  # leave room for one pair per app
                size = int(rng.integers(1, hi + 1)) if a < num_apps - 1 else left
                sizes.append(size)
                left -= size
            num_users = max(sizes)
            installed = np.zeros((num_users, num_apps), dtype=bool)
            scores = np.zeros((num_users, num_apps))
            evaluated = np.zeros((num_users, num_apps), dtype=bool)
            for a, size in enumerate(sizes):
                installed[:size, a] = rng.random(size) < 0.4
                scores[:size, a] = rng.integers(0, 5, size) / 4.0  # coarse grid forces ties
                evaluated[:size, a] = True
            if not installed.any():
                installed[0, 0] = True
            adoptions = AdoptionMatrix(num_users=num_users, num_apps=num_apps,
                                       installed=installed)
            k = int(rng.integers(1, max(sizes) + 1))
            sheet = PredictionSheet(np.arange(num_apps), scores, evaluated)
            report = evaluate_sheets([sheet], adoptions, ks=(k,))

            per_app = []
            pairs: list[tuple[float, int]] = []
            for a, size in enumerate(sizes):
                sub = scores[:size, a]
                adopters = set(np.flatnonzero(installed[:size, a]).tolist())
                per_app.append(_brute_precision(sub, adopters, min(k, size)))
                pairs += [(float(sub[u]), int(installed[u, a])) for u in range(size)]
            assert report.mp_at_k[k] == float(np.mean(per_app)), f"case {case}"
            assert report.optimal_f1 == _brute_best_f1(pairs), f"case {case}"

            if sizes[0] >= 2:  # the bare ranking primitive, same oracle
                sub = scores[:sizes[0], 0]
                adopters = set(np.flatnonzero(installed[:sizes[0], 0]).tolist())
                kk = int(rng.integers(1, sizes[0] + 1))
                assert precision_at_k(sub, sorted(adopters), kk) == \
                    _brute_precision(sub, adopters, kk)
        _verdict(5, "metric oracles", True,
                 "1000 random cases <= 12 pairs, MP-k and best F1 equal "
                 "exhaustive enumeration exactly",
                 time.perf_counter() - start, budget=10.0)


def _planted_dataset(seed: int, num_apps: int = 80) -> Dataset:
    """Synthetic data with individual variance, network effects and a popularity pull."""
    spec = SynthSpec(
        num_users=100,
        num_context_users=50,
        num_apps=num_apps,
        num_networks=2,
        edge_density=(0.05, 0.08),
        planted_net_weights=(0.8, 0.4),
        planted_pop_weight=0.02,
        susceptibility_rate=12.0,
        pop_base_max=12.0,
        seed=seed,
    )
    stack, teacher = generate(spec)
    return Dataset(networks=stack, adoptions=teacher.adoptions)


FAST_FIT = FitConfig(grad_tol=1e-5)


class TestCriterion06AblationOrdering:
    def test_component_orderings_across_seed_sets(self):
        start = time.perf_counter()
        names = [name for name, _, _ in ABLATION_CONFIGS]
        passes = 0
        details = []
        for i in range(5):
            data = _planted_dataset(300 + i)
            spec = ExperimentSpec(protocol="ablation", train_fraction=0.5,
                                  repeats=5, seed=i, min_users=3, fit=FAST_FIT)
            report = run_ablation(data, spec)
            f1 = {n: report.get(n).mean_metrics()["optimal_f1"] for n in names}
            ok = (f1["full"] >= f1["no_exogenous"] >= f1["network_only"]
                  >= f1["network_only_allow_negative"]
                  and f1["full"] >= f1["individual_only"])
            passes += ok
            details.append("".join("+" if ok else "-"))
        last = {n: round(v, 3) for n, v in f1.items()}
        _verdict(6, "ablation ordering", passes >= 4,
                 f"orderings hold on {passes}/5 seed sets (need >= 4); "
                 f"last seed mean F1 {last}",
                 time.perf_counter() - start, budget=300.0)


def _network_driven_dataset() -> Dataset:
    """Sparse ties, strong planted weights, weak exogenous pull.

    In this regime the neighbor evidence carries most of the ranking
    signal, so a fitted model should clear random guessing by a wide
    margin under both scoring protocols.
    """
    spec = SynthSpec(
        num_users=100,
        num_context_users=20,
        num_apps=160,
        num_networks=2,
        edge_density=(0.03, 0.05),
        planted_net_weights=(2.0, 1.0),
        planted_pop_weight=0.006,
        pop_base_max=8.0,
        susceptibility_rate=30.0,
        seed=400,
    )
    stack, teacher = generate(spec)
    return Dataset(networks=stack, adoptions=teacher.adoptions)


def _link_matched_dataset() -> Dataset:
    """No network contribution; wide susceptibility and popularity spread.

    Every adoption here follows the exact saturating link the model
    assumes, with both additive channels active, so the MLE's calibrated
    probabilities rank pairs at least as well as a linear fit can.
    """
    spec = SynthSpec(
        num_users=100,
        num_context_users=50,
        num_apps=240,
        num_networks=2,
        edge_density=(0.001, 0.001),
        planted_net_weights=(0.0, 0.0),
        planted_pop_weight=0.04,
        pop_base_max=40.0,
        susceptibility_rate=3.0,
        seed=400,
    )
    stack, teacher = generate(spec)
    return Dataset(networks=stack, adoptions=teacher.adoptions)


class TestCriterion07BaselineMargins:
    def test_margins_in_standard_and_future_protocols(self):
        start = time.perf_counter()

        # Random-guess margins are checked where network structure drives
        # adoption; the regression comparison where the generating process
        # matches the model's link exactly.
        driven = _network_driven_dataset()
        spec_cmp = ExperimentSpec(protocol="comparison", repeats=2, seed=0,
                                  min_users=3, fit=FAST_FIT)
        cmp_report = run_comparison(driven, spec_cmp)
        mp_full = cmp_report.get("full_f50_all").mean_metrics()["mp@5"]
        mp_rand = cmp_report.get("random_f50_all").mean_metrics()["mp@5"]

        spec_fut = ExperimentSpec(protocol="future", folds=2, repeats=2, seed=0,
                                  min_users=3, fit=FAST_FIT)
        fut_report = run_future(driven, spec_fut)
        fm_full = fut_report.get("full").mean_metrics()["mp@5"]
        fm_rand = fut_report.get("random").mean_metrics()["mp@5"]

        matched = _link_matched_dataset()
        spec_f1 = ExperimentSpec(protocol="comparison", repeats=3, seed=0,
                                 min_users=3, fit=FAST_FIT)
        f1_report = run_comparison(matched, spec_f1)
        f1_full = f1_report.get("full_f50_all").mean_metrics()["optimal_f1"]
        f1_reg = f1_report.get("regression_f50_all").mean_metrics()["optimal_f1"]

        ok = (mp_full >= 2 * mp_rand and fm_full >= 2 * fm_rand
              and f1_full >= f1_reg)
        _verdict(7, "baseline margins", ok,
                 f"standard MP-5 {mp_full:.3f} vs random {mp_rand:.3f} "
                 f"(x{mp_full / max(mp_rand, 1e-12):.1f}), future MP-5 {fm_full:.3f} vs "
                 f"{fm_rand:.3f} (x{fm_full / max(fm_rand, 1e-12):.1f}), "
                 f"F1 {f1_full:.4f} >= regression {f1_reg:.4f}",
                 time.perf_counter() - start, budget=300.0)


class TestCriterion08Rescaling:
    def test_network_rescaling_changes_nothing(self):
        start = time.perf_counter()
        rng = np.random.default_rng(808)
        stack, adoptions = _random_instance(rng, 60, 3, 50)
        train = np.arange(25)
        scale = 10.0
        scaled = NetworkStack(
            networks=tuple(
                CandidateNetwork(num_users=g.num_users, weights=scale * g.weights,
                                 name=g.name)
                for g in stack.networks
            ),
            popularity=stack.popularity,
        )
        cfg = FitConfig(grad_tol=1e-8)
        params_base, fit_base = fit_mle(training_terms(stack, adoptions, train), cfg=cfg)
        params_scaled, fit_scaled = fit_mle(training_terms(scaled, adoptions, train), cfg=cfg)

        obj_rel = abs(fit_scaled.final_objective - fit_base.final_objective) \
            / max(1.0, abs(fit_base.final_objective))
        apps = np.arange(40, 50)
        adopted = adoptions.installed[:, apps]
        c = stack.popularity[apps]
        base = (np.tensordot(params_base.net_weights,
                             network_potentials(stack, adopted), axes=1)
                + params_base.pop_weight * c)
        other = (np.tensordot(params_scaled.net_weights,
                              network_potentials(scaled, adopted), axes=1)
                 + params_scaled.pop_weight * c)
        denom = np.maximum(np.abs(base), 1e-12)
        gap = np.abs(other - base)
        worst_pot = float(np.where(gap > 1e-12, gap / denom, 0.0).max())
        ok = obj_rel <= 1e-6 and worst_pot <= 1e-6
        _verdict(8, "rescaling invariance", ok,
                 f"objective rel gap {obj_rel:.2e} <= 1e-6, worst composite "
                 f"potential rel gap {worst_pot:.2e} <= 1e-6",
                 time.perf_counter() - start)


SYNTH_CFG = """
synth.num_users = 30
synth.num_context_users = 15
synth.num_apps = 20
synth.num_networks = 2
synth.edge_density = 0.15
synth.planted_net_weights = 0.6,0.3
synth.planted_pop_weight = 0.02
synth.pop_base_max = 6.0
synth.susceptibility_rate = 10.0
seed = 9
"""


class TestCriterion09Determinism:
    def test_cli_experiment_reruns_byte_identical(self, tmp_path):
        start = time.perf_counter()
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text(SYNTH_CFG + f"outdir = {tmp_path / 'data'}\n")
        assert main(["synth", str(synth_cfg)]) == EXIT_OK
        [bundle] = [p for p in (tmp_path / "data").iterdir() if p.is_dir()]

        def experiment_cfg(outdir: str) -> str:
            path = tmp_path / f"{outdir}.cfg"
            path.write_text(
                "num_users = 30\nnum_apps = 20\n"
                f"adoptions.path = {bundle / 'adoptions.csv'}\n"
                f"network.0.path = {bundle / 'network0.csv'}\n"
                "network.0.symmetrize = max\n"
                f"network.1.path = {bundle / 'network1.csv'}\n"
                "network.1.symmetrize = max\n"
                "protocol = ablation\nexperiment.folds = 2\nexperiment.repeats = 1\n"
                "experiment.min_users = 3\n"
                "fit.grad_tol = 1e-4\n"
                f"outdir = {tmp_path / outdir}\n"
            )
            return str(path)

        cfg_a = experiment_cfg("runs_a")
        assert main(["experiment", cfg_a]) == EXIT_OK
        [run_a] = [p for p in (tmp_path / "runs_a").iterdir() if p.is_dir()]
        reports = ("report.json", "report.csv", "summary.csv")
        first = {n: (run_a / n).read_bytes() for n in reports}

        assert main(["experiment", cfg_a]) == EXIT_OK  # same outdir, same run id
        dirs = [p for p in (tmp_path / "runs_a").iterdir() if p.is_dir()]
        same_dir = dirs == [run_a]
        second = {n: (run_a / n).read_bytes() for n in reports}

        assert main(["experiment", experiment_cfg("runs_b")]) == EXIT_OK
        [run_b] = [p for p in (tmp_path / "runs_b").iterdir() if p.is_dir()]
        third = {n: (run_b / n).read_bytes() for n in reports}

        ok = same_dir and first == second and first == third
        _verdict(9, "determinism", ok,
                 "rerun and fresh-outdir report bytes identical "
                 f"({len(first['report.json'])} bytes, run id {run_a.name})",
                 time.perf_counter() - start)


def _series_json(report) -> str:
    return json.dumps([s.to_dict() for s in report.series], sort_keys=True)


class TestCriterion10LeakChecks:
    def test_training_ignores_test_app_columns(self):
        start = time.perf_counter()
        rng = np.random.default_rng(111)
        stack, adoptions = _random_instance(rng, 40, 2, 30)
        train = np.arange(15)
        cfg = FitConfig(grad_tol=1e-5)
        params, result = fit_mle(training_terms(stack, adoptions, train), cfg=cfg)

        poisoned_bits = adoptions.installed.copy()
        poisoned_bits[:, 15:] = rng.random((40, 15)) < 0.5
        poisoned_pop = stack.popularity.copy()
        poisoned_pop[15:] = rng.uniform(0, 40, 15)
        p2, r2 = fit_mle(training_terms(
            NetworkStack(networks=stack.networks, popularity=poisoned_pop),
            AdoptionMatrix(num_users=40, num_apps=30, installed=poisoned_bits),
            train), cfg=cfg)

        identical = (np.array_equal(params.susceptibility, p2.susceptibility)
                     and np.array_equal(params.net_weights, p2.net_weights)
                     and params.pop_weight == p2.pop_weight
                     and result.final_objective == r2.final_objective
                     and result.iterations == r2.iterations)
        assert identical, "held-out columns leaked into the fit"
        print("criterion 10a: test-app adoption bits and popularity entries "
              "rewritten, fitted parameters bit-identical "
              f"({time.perf_counter() - start:.1f}s)")

    def test_future_scoring_blind_to_late_timestamp_values(self):
        spec = SynthSpec(num_users=60, num_context_users=30, num_apps=40,
                         num_networks=2, edge_density=(0.06, 0.1),
                         planted_net_weights=(0.7, 0.4), planted_pop_weight=0.02,
                         susceptibility_rate=10.0, pop_base_max=8.0, seed=10)
        stack, teacher = generate(spec)
        adoptions = teacher.adoptions
        run_spec = ExperimentSpec(protocol="future", folds=2, repeats=1, seed=3,
                                  min_users=2, fit=FAST_FIT)
        before = run_future(Dataset(networks=stack, adoptions=adoptions), run_spec)

        # stretch every late adopter's timestamp; membership of the early half
        # is unchanged because the per-app times are distinct ranks
        times = adoptions.install_times.copy()
        halves = future_split(adoptions)
        for a in range(adoptions.num_apps):
            g1, g2 = halves[a]
            if g2.size:
                times[g2, a] = times[g2, a] * 2.0
        poisoned = AdoptionMatrix(num_users=60, num_apps=40,
                                  installed=adoptions.installed,
                                  install_times=times)
        after = run_future(Dataset(networks=stack, adoptions=poisoned), run_spec)
        assert _series_json(before) == _series_json(after)
        print("criterion 10b: late-half timestamp values rewritten, future "
              "protocol report identical")

    def test_transfer_blind_to_hidden_block_edges(self):
        spec = SynthSpec(num_users=60, num_context_users=30, num_apps=40,
                         num_networks=2, edge_density=(0.06, 0.1),
                         planted_net_weights=(0.7, 0.4), planted_pop_weight=0.02,
                         susceptibility_rate=10.0, pop_base_max=8.0, seed=11)
        stack, teacher = generate(spec)
        run_spec = ExperimentSpec(protocol="transfer", folds=2, repeats=1, seed=5,
                                  min_users=2, fit=FAST_FIT)
        before = run_transfer(Dataset(networks=stack, adoptions=teacher.adoptions),
                              run_spec)

        _, hidden = observable_user_split(
            np.arange(60), run_spec.observable_fraction,
            derive_seed(run_spec.seed, "transfer", "users", 0))
        rng = np.random.default_rng(77)
        poisoned_nets = []
        for g in stack.networks:
            w = g.weights.copy()
            extra = np.triu(rng.uniform(0.2, 1.0, (hidden.size, hidden.size))
                            * (rng.random((hidden.size, hidden.size)) < 0.4), 1)
            w[np.ix_(hidden, hidden)] += extra + extra.T
            poisoned_nets.append(CandidateNetwork(num_users=60, weights=w, name=g.name))
        poisoned = Dataset(networks=NetworkStack(networks=tuple(poisoned_nets)),
                           adoptions=teacher.adoptions)
        after = run_transfer(poisoned, run_spec)
        assert _series_json(before) == _series_json(after)
        print("criterion 10c: edges among hidden users rewritten, transfer "
              "protocol report identical")

    def test_leak_assertions_are_live(self, monkeypatch):
        start = time.perf_counter()
        spec = SynthSpec(num_users=40, num_context_users=20, num_apps=24,
                         num_networks=2, edge_density=(0.08, 0.12),
                         planted_net_weights=(0.7, 0.4), planted_pop_weight=0.02,
                         susceptibility_rate=8.0, pop_base_max=6.0, seed=12)
        stack, teacher = generate(spec)
        data = Dataset(networks=stack, adoptions=teacher.adoptions)
        run_spec = ExperimentSpec(protocol="future", folds=2, repeats=1, seed=1,
                                  min_users=2, fit=FAST_FIT)

        def overlapping(adoptions):
            halves = future_split(adoptions)
            return {a: (g1, np.append(g2, g1[:1]).astype(int))
                    if g1.size and g2.size else (g1, g2)
                    for a, (g1, g2) in halves.items()}

        monkeypatch.setattr(exp_mod, "future_split", overlapping)
        with pytest.raises(LeakError):
            run_future(data, run_spec)
        monkeypatch.undo()

        def everyone_hidden(users, fraction, seed):
            observable, _ = observable_user_split(users, fraction, seed)
            return observable, np.asarray(users, dtype=int)

        monkeypatch.setattr(exp_mod, "observable_user_split", everyone_hidden)
        with pytest.raises(LeakError):
            run_transfer(data, replace(run_spec, protocol="transfer"))
        monkeypatch.undo()

        _verdict(10, "leak checks", True,
                 "trained and scored inputs proven blind to held-out bits, "
                 "late timestamps and hidden-block edges; harness assertions "
                 "trip on forced overlaps",
                 time.perf_counter() - start)
