"""adoptnet benchmark: three CLI workloads on seeded synthetic bundles.

    python3 bench/run.py --workload comparison|train|predict --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: it imports nothing installed, but puts
the checkout's `src/` on PYTHONPATH for every process it starts.  Each run
generates its bundles from `--seed` with `adoptnet synth`, then repeats the
workload's `adoptnet` command for about `--seconds` seconds, checks every
output, and prints one JSON object as the last line of standard output.

With `--trace 0` the JSON holds the end-to-end metrics of untraced runs.
With `--trace 1` each command runs twice per bundle, untraced and then
under `spans.py`; the outputs of the pair must be byte-identical, and the
JSON holds per-layer metrics of the traced runs.  See README.md for what
each workload and metric is for.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread for this process and every child: the single-threaded
# baseline.  Set before numpy is imported.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402

NUM_NETWORKS = 4
SETUP_PROBES = 5
ORACLE_TOL = 1e-12
SETUP_PROBE = (
    "import sys, adoptnet\n"
    "from adoptnet.config import load_config\n"
    "load_config(sys.argv[1]).build_dataset()\n"
)


@dataclass(frozen=True)
class Workload:
    """One `adoptnet` command on `bundles` synth bundles of one shape.

    Each bundle gets its own seed derived from the run's seed; metrics are
    averaged over the bundles, which evens out how much the solvers' work
    differs from one bundle to the next.
    """

    name: str
    command: str
    users: int
    apps: int
    bundles: int
    settings: tuple[str, ...] = ()


# fit.max_iters caps the fits at fixed work: at default settings the number
# of iterations before the parent solvers stop varies about 3x between
# bundles of one shape (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "comparison",
            "experiment",
            users=200,
            apps=150,
            bundles=8,
            settings=(
                "protocol = comparison",
                "experiment.repeats = 1",
                "experiment.min_users = 3",
                "fit.max_iters = 80",
            ),
        ),
        Workload(
            "train", "train", users=743, apps=200, bundles=2,
            settings=("fit.max_iters = 80",),
        ),
        Workload(
            "predict", "predict", users=743, apps=600, bundles=2,
            settings=("predict.params = planted_params.json",),
        ),
    )
}

COMPARISON_SERIES = [
    f"{method}_f{frac}_{cell}"
    for frac, cells in ((20, ("all",)), (50, ("all", "low")))
    for method in ("full", "regression", "random")
    for cell in cells
] + [f"single_net{m}_f50_all" for m in range(NUM_NETWORKS)]


class CheckError(Exception):
    """A command's output failed the workload's correctness check."""


@dataclass
class Bundle:
    seed: int
    root: Path
    config: Path
    outdir: Path
    truth: "BundleData"
    shape: dict


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    digest: str
    ok: bool


class Run:
    """Child processes of one benchmark run and the counts of their failures."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def spawn(self, argv: list[str]) -> tuple[float, object, int, str]:
        """Run argv to completion: wall time, rusage, exit code, stderr."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            err = proc.stderr.read().decode(errors="replace")
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stderr.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode, err

    # -- inputs ------------------------------------------------------------

    def make_bundle(self, index: int) -> Bundle:
        w = self.workload
        seed = self.seed * 1000 + index
        root = self.work / f"bundle{index}"
        root.mkdir(parents=True)
        (root / "synth.cfg").write_text(
            f"synth.num_users = {w.users}\n"
            f"synth.num_context_users = {w.users // 2}\n"
            f"synth.num_apps = {w.apps}\n"
            f"synth.num_networks = {NUM_NETWORKS}\n"
            f"seed = {seed}\n"
            "outdir = data\n"
        )
        _, _, code, err = self.spawn(
            [sys.executable, "-m", "adoptnet.cli", "synth", str(root / "synth.cfg")]
        )
        if code != 0:
            raise RuntimeError(f"adoptnet synth failed for seed {seed}: {err.strip()}")
        [data] = [p for p in (root / "data").iterdir() if p.is_dir()]
        planted = json.loads((data / "planted.json").read_text())["params"]
        (root / "planted_params.json").write_text(json.dumps(planted) + "\n")
        lines = [
            f"num_users = {w.users}",
            f"num_apps = {w.apps}",
            f"adoptions.path = {data / 'adoptions.csv'}",
        ]
        for m in range(NUM_NETWORKS):
            lines += [
                f"network.{m}.path = {data / f'network{m}.csv'}",
                f"network.{m}.name = net{m}",
            ]
        lines += [f"seed = {seed}", "outdir = out", *w.settings]
        config = root / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        truth = BundleData.load(data, w.users, w.apps)
        shape = {
            "seed": seed,
            "users": w.users,
            "apps": w.apps,
            "networks": NUM_NETWORKS,
            "installs": int(truth.installed.sum()),
            "edges": [int(np.count_nonzero(g)) // 2 for g in truth.networks],
        }
        return Bundle(seed, root, config, root / "out", truth, shape)

    # -- measured commands -------------------------------------------------

    def setup_probe(self, bundle: Bundle) -> float:
        self.attempted += 1
        wall, _, code, err = self.spawn(
            [sys.executable, "-c", SETUP_PROBE, str(bundle.config)]
        )
        if code != 0:
            self.fail(f"setup probe exited {code}: {err.strip()}")
        return wall

    def command(self, bundle: Bundle, traced_spans: Path | None = None) -> Sample:
        """One run of the workload's command; outputs are left in bundle.outdir."""
        self.attempted += 1
        shutil.rmtree(bundle.outdir, ignore_errors=True)
        cli = [self.workload.command, str(bundle.config)]
        if traced_spans is None:
            argv = [sys.executable, "-m", "adoptnet.cli", *cli]
        else:
            run_id = f"{self.workload.name}-{bundle.seed}-{self.attempted}"
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(traced_spans), run_id, *cli]
        wall, usage, code, err = self.spawn(argv)
        digest, out_bytes = output_digest(bundle.outdir)
        ok = code == 0
        if not ok:
            self.fail(f"{' '.join(cli)} exited {code}: {err.strip()}")
        return Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            out_bytes=out_bytes,
            digest=digest,
            ok=ok,
        )

    def check(self, bundle: Bundle) -> dict[str, float]:
        """Correctness check of the outputs in bundle.outdir; returns quality."""
        try:
            return CHECKS[self.workload.name](bundle)
        except (CheckError, OSError, ValueError, KeyError) as e:
            self.fail(f"{self.workload.name} output check, seed {bundle.seed}: {e}")
            return {}


def output_digest(outdir: Path) -> tuple[str, int]:
    """sha256 over every file the command wrote, and their total size."""
    h = hashlib.sha256()
    total = 0
    if outdir.is_dir():
        for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            h.update(str(path.relative_to(outdir)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
            total += len(data)
    return h.hexdigest(), total


# ---------------------------------------------------------------------------
# output checks and quality, from the bundle files with plain numpy


@dataclass
class BundleData:
    networks: list[np.ndarray]
    installed: np.ndarray  # (U, A) bool

    @classmethod
    def load(cls, data: Path, users: int, apps: int) -> "BundleData":
        networks = []
        for m in range(NUM_NETWORKS):
            edges = np.loadtxt(data / f"network{m}.csv", delimiter=",", ndmin=2)
            w = np.zeros((users, users))
            i, j = edges[:, 0].astype(int), edges[:, 1].astype(int)
            w[i, j] = edges[:, 2]
            w[j, i] = edges[:, 2]
            networks.append(w)
        log = np.loadtxt(data / "adoptions.csv", delimiter=",", ndmin=2)
        installed = np.zeros((users, apps), dtype=bool)
        installed[log[:, 0].astype(int), log[:, 1].astype(int)] = True
        return cls(networks=networks, installed=installed)

    def scores(self, params: dict) -> np.ndarray:
        """Oracle: 1 - exp(-(s + sum_m w_m W_m x + w_pop c)) for every (user, app)."""
        x = self.installed.astype(float)
        z = np.asarray(params["s"], dtype=float)[:, None] + params["alpha_pop"] * x.sum(axis=0)
        for w_m, g in zip(params["alpha"], self.networks):
            z = z + w_m * (g @ x)
        return -np.expm1(-z)


def ranking_quality(scores: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Pooled optimal F1 and mean precision at 5 of a (users, apps) score matrix.

    Thresholds are the distinct scores; top-5 ties go to the lower user id.
    """
    s, y = scores.ravel(), truth.ravel()
    order = np.argsort(-s, kind="stable")
    s_sorted, tp = s[order], np.cumsum(y[order])
    cut = np.append(np.flatnonzero(np.diff(s_sorted) != 0), s.size - 1)
    f1 = 2.0 * tp[cut] / (cut + 1 + y.sum())
    top = np.argsort(-scores, axis=0, kind="stable")[:5]
    hits = truth[top, np.arange(truth.shape[1])]
    return {"quality.f1": float(f1.max()), "quality.mp5": float(hits.mean())}


def _run_dir(bundle: Bundle, name: str) -> Path:
    found = [p for p in bundle.outdir.glob(f"*/{name}")]
    if len(found) != 1:
        raise CheckError(f"expected one {name}, found {len(found)}")
    return found[0]


def check_comparison(bundle: Bundle) -> dict[str, float]:
    report = json.loads(_run_dir(bundle, "report.json").read_text())
    names = [s["name"] for s in report["series"]]
    missing = sorted(set(COMPARISON_SERIES) - set(names))
    if missing:
        raise CheckError(f"report.json lacks series {missing}")
    mean = next(s for s in report["series"] if s["name"] == "full_f50_all")["mean"]
    return {"quality.f1": float(mean["optimal_f1"]), "quality.mp5": float(mean["mp@5"])}


def _check_params(params: dict, users: int) -> None:
    alpha, s, pop = params["alpha"], params["s"], params["alpha_pop"]
    if len(alpha) != NUM_NETWORKS or len(s) != users:
        raise CheckError(f"params has {len(alpha)} weights and {len(s)} users")
    values = np.array([*alpha, *s, pop], dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise CheckError("params has a negative or non-finite entry")


def check_train(bundle: Bundle) -> dict[str, float]:
    params = json.loads(_run_dir(bundle, "params.json").read_text())
    truth = bundle.truth
    _check_params(params, truth.installed.shape[0])
    quality = ranking_quality(truth.scores(params), truth.installed)
    return {**quality, **fit_quality(truth, params)}


def check_predict(bundle: Bundle) -> dict[str, float]:
    truth = bundle.truth
    users, apps = truth.installed.shape
    rows = np.loadtxt(_run_dir(bundle, "sheets.csv"), delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (users * apps, 4):
        raise CheckError(f"sheets.csv has {rows.shape[0]} rows, expected {users * apps}")
    app_ids = np.repeat(np.arange(apps), users)
    user_ids = np.tile(np.arange(users), apps)
    if np.any(rows[:, 0] != app_ids) or np.any(rows[:, 1] != user_ids):
        raise CheckError("sheets.csv rows are not ordered app-major, user-minor")
    params = json.loads((bundle.root / "planted_params.json").read_text())
    oracle = truth.scores(params).T.ravel()
    worst = float(np.max(np.abs(rows[:, 2] - oracle)))
    if not worst <= ORACLE_TOL:
        raise CheckError(f"score differs from the oracle by {worst:.3g}")
    scores = rows[:, 2].reshape(apps, users).T
    return ranking_quality(scores, truth.installed)


CHECKS = {"comparison": check_comparison, "train": check_train, "predict": check_predict}


def fit_quality(truth: BundleData, params: dict) -> dict[str, float]:
    """Training log-likelihood and projected-gradient infinity norm, original coordinates."""
    from adoptnet.data import AdoptionMatrix, CandidateNetwork, NetworkStack
    from adoptnet.model import ModelParams, log_likelihood, log_likelihood_gradient

    users, apps = truth.installed.shape
    adoptions = AdoptionMatrix(num_users=users, num_apps=apps, installed=truth.installed)
    stack = NetworkStack(
        networks=tuple(
            CandidateNetwork(num_users=users, weights=g, name=f"net{m}")
            for m, g in enumerate(truth.networks)
        ),
        popularity=truth.installed.sum(axis=0).astype(float),
    )
    model = ModelParams.from_json(json.dumps(params))
    every_app = np.arange(apps)
    grad = log_likelihood_gradient(model, stack, adoptions, every_app)
    theta = np.concatenate([model.susceptibility, model.net_weights, [model.pop_weight]])
    grad[(theta <= 0.0) & (grad < 0.0)] = 0.0
    return {
        "fit.loglik": log_likelihood(model, stack, adoptions, every_app),
        "fit.pg_norm": float(np.abs(grad).max()),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def schedule(bundles: list[Bundle], seconds: float, step, min_steps: int) -> None:
    """Call step(bundle) round-robin over the bundles.

    After `min_steps` calls, stop before the call that would be expected to
    end past `seconds` from the start.
    """
    start = time.perf_counter()
    durations: list[float] = []
    n = 0
    while True:
        t0 = time.perf_counter()
        step(bundles[n % len(bundles)])
        durations.append(time.perf_counter() - t0)
        n += 1
        elapsed = time.perf_counter() - start
        if n >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


def measure(run: Run, bundles: list[Bundle], seconds: float) -> dict[str, float]:
    """End-to-end metrics of untraced command runs.

    Times are the median over a bundle's repeats, then the mean over bundles.
    The first bundle always runs twice, so a rerun's bytes are compared on
    every run.
    """
    setup = [run.setup_probe(bundles[0]) for _ in range(SETUP_PROBES)]
    samples: dict[int, list[Sample]] = {b.seed: [] for b in bundles}
    quality: dict[int, dict[str, float]] = {}
    digests: dict[int, str] = {}

    def step(bundle: Bundle) -> None:
        sample = run.command(bundle)
        samples[bundle.seed].append(sample)
        if not sample.ok:
            return
        if bundle.seed not in digests:
            digests[bundle.seed] = sample.digest
            quality[bundle.seed] = run.check(bundle)
        elif sample.digest != digests[bundle.seed]:
            run.fail(f"rerun of seed {bundle.seed} wrote different bytes")

    schedule(bundles, seconds, step, min_steps=len(bundles) + 1)

    def per_bundle(attr: str) -> float:
        return float(
            np.mean([statistics.median(getattr(s, attr) for s in v) for v in samples.values()])
        )

    metrics = {
        "wall_s": per_bundle("wall_s"),
        "cpu_s": per_bundle("cpu_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": per_bundle("rss_mb"),
        "output_mb": per_bundle("out_bytes") / 1e6,
        "failed_frac": run.failed / run.attempted,
    }
    for key in ("quality.f1", "quality.mp5", "fit.loglik", "fit.pg_norm"):
        values = [q[key] for q in quality.values() if key in q]
        if values:
            metrics[key] = float(np.mean(values))
    return metrics


def layer_metrics(record: dict, wall_s: float, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced command run, from its spans."""
    recorded = [spans.Span(**s) for s in record["spans"]]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, self_s in zip(recorded, spans.self_times(recorded)):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + self_s

    def info(layer: str, key: str) -> list:
        return [s.info[key] for s in recorded if s.name == layer and key in s.info]

    iters = sum(info("solver.mle", "iters"))
    obj_calls = calls.get("model.obj", 0)
    in_spans = sum(s.end - s.start for s in recorded if s.parent < 0)
    return {
        "data.parse_s": total.get("data.parse", 0.0),
        "data.bytes_in": float(sum(info("data.parse", "bytes_in"))),
        "model.terms_s": total.get("model.terms", 0.0),
        "model.obj_calls": float(obj_calls),
        "model.obj_s": total.get("model.obj", 0.0),
        "model.grad_calls": float(calls.get("model.grad", 0)),
        "model.grad_s": total.get("model.grad", 0.0),
        "model.bytes_per_eval": float(max(info("model.terms", "bytes_per_eval"), default=0)),
        "solver.mle.fits": float(calls.get("solver.mle", 0)),
        "solver.mle.s": total.get("solver.mle", 0.0),
        "solver.mle.self_s": own.get("solver.mle", 0.0),
        "solver.mle.iters": float(iters),
        "solver.mle.evals_per_iter": obj_calls / iters if iters else 0.0,
        "solver.mle.pg_norm_max": float(max(info("solver.mle", "pg_norm"), default=0.0)),
        "solver.mle.fits_over_tol": float(sum(info("solver.mle", "over_tol"))),
        "solver.reg.fits": float(calls.get("solver.reg", 0)),
        "solver.reg.s": total.get("solver.reg", 0.0),
        "predict.calls": float(calls.get("predict", 0)),
        "predict.s": total.get("predict", 0.0),
        "predict.csv_s": total.get("predict.csv", 0.0),
        "metrics.calls": float(calls.get("metrics", 0)),
        "metrics.s": total.get("metrics", 0.0),
        "metrics.pr_points": float(sum(info("metrics", "pr_points"))),
        "experiments.run_s": total.get("experiments.run", 0.0),
        "experiments.self_s": own.get("experiments.run", 0.0),
        "experiments.serialize_s": total.get("experiments.serialize", 0.0),
        "cli.self_s": own.get("cli", 0.0),
        "cli.bytes_out": float(out_bytes),
        "proc.import_s": record["import_s"],
        "proc.outside_s": wall_s - record["import_s"] - in_spans,
        "trace.wall_s": wall_s,
    }


# Metrics whose name starts with the prefix are read off the layer's spans.
METRIC_LAYERS = (
    ("data.", "data.parse"),
    ("model.terms_s", "model.terms"),
    ("model.bytes_per_eval", "model.terms"),
    ("model.obj", "model.obj"),
    ("model.grad", "model.grad"),
    ("solver.mle.", "solver.mle"),
    ("solver.reg.", "solver.reg"),
    ("predict.csv_s", "predict.csv"),
    ("predict.", "predict"),
    ("metrics.", "metrics"),
    ("experiments.serialize_s", "experiments.serialize"),
    ("experiments.", "experiments.run"),
    ("cli.self_s", "cli"),
)


def absent_layers(absent: list[str]) -> set[str]:
    """Layers none of whose traced functions exist any more."""
    by_layer: dict[str, list[str]] = {}
    for layer, module, path in spans.TARGETS:
        by_layer.setdefault(layer, []).append(f"{module}.{path}")
    return {layer for layer, names in by_layer.items() if set(names) <= set(absent)}


def metric_layer(name: str) -> str | None:
    return next((layer for prefix, layer in METRIC_LAYERS if name.startswith(prefix)), None)


def trace(run: Run, bundles: list[Bundle], seconds: float) -> dict[str, float]:
    """Per-layer metrics: the mean over traced runs, each paired with an untraced one."""
    per_run: list[dict[str, float]] = []
    overhead: list[float] = []
    absent: set[str] = set()
    checked: set[int] = set()

    def step(bundle: Bundle) -> None:
        plain = run.command(bundle)
        if plain.ok and bundle.seed not in checked:
            checked.add(bundle.seed)
            run.check(bundle)
        record_path = run.work / f"spans{run.attempted + 1}.json"
        traced = run.command(bundle, traced_spans=record_path)
        if not (plain.ok and traced.ok):
            return
        if traced.digest != plain.digest:
            run.fail(f"traced run of seed {bundle.seed} wrote different bytes")
        record = json.loads(record_path.read_text())
        absent.update(absent_layers(record["absent"]))
        per_run.append(layer_metrics(record, traced.wall_s, traced.out_bytes))
        if per_run[-1]["proc.outside_s"] < 0:
            run.fail(f"spans of seed {bundle.seed} cover more than the process's wall time")
        overhead.append(traced.wall_s - plain.wall_s)

    schedule(bundles, seconds, step, min_steps=1)
    if not per_run:
        return {}
    metrics = {k: float(np.mean([r[k] for r in per_run])) for k in per_run[0]}
    for key in ("solver.mle.pg_norm_max", "model.bytes_per_eval"):
        metrics[key] = max(r[key] for r in per_run)
    metrics["trace.overhead_s"] = float(np.mean(overhead))
    return {k: v for k, v in metrics.items() if metric_layer(k) not in absent}


# ---------------------------------------------------------------------------
# reporting

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "quality.f1": "1",
    "quality.mp5": "1",
}
# Printed with the end-to-end metrics but not part of the JSON result: they
# are zero, or defined on one workload only (see README.md).
PRINTED_ONLY = {"failed_frac": "1", "fit.loglik": "nat", "fit.pg_norm": "1"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("evals_per_iter"):
        return "evals/iter"
    if name.endswith("pg_norm_max"):
        return "1"
    return "count"


# Self times of the layers; with proc.import_s and proc.outside_s they add
# up to a traced command's wall time.
LAYER_SELF_TIMES = (
    "data.parse_s", "model.terms_s", "model.obj_s", "model.grad_s",
    "solver.mle.self_s", "solver.reg.s", "predict.s", "predict.csv_s",
    "metrics.s", "experiments.self_s", "experiments.serialize_s", "cli.self_s",
)

# what layer_metrics reports, plus the per-run values
PER_LAYER_NAMES = [
    *layer_metrics({"spans": [], "import_s": 0.0}, 0.0, 0),
    "trace.overhead_s",
    "synth.generate_s",
]


def blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through Run.spawn, which kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "adoptnet" / "cli.py").is_file():
        print("error: run from the root of an adoptnet checkout; src/adoptnet is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    work = root / ".bench_build" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, workload, args.seed, work)
    try:
        start = time.perf_counter()
        bundles = [run.make_bundle(i) for i in range(workload.bundles)]
        generate_s = time.perf_counter() - start
        if args.trace:
            metrics = trace(run, bundles, args.seconds)
            metrics["synth.generate_s"] = generate_s
            units = {k: layer_unit(k) for k in PER_LAYER_NAMES if k in metrics}
        else:
            metrics = measure(run, bundles, args.seconds)
            units = {k: u for k, u in END_TO_END.items() if k in metrics}
            for name, unit in PRINTED_ONLY.items():
                if name in metrics:
                    print(f"{name:28s} {metrics[name]:.6g} {unit}")
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:.6g} {unit}")
    if args.trace and "trace.wall_s" in metrics:
        layers = sum(metrics.get(k, 0.0) for k in LAYER_SELF_TIMES)
        print(
            f"layer self times {layers:.6g} s + import {metrics['proc.import_s']:.6g} s"
            f" + outside spans {metrics['proc.outside_s']:.6g} s"
            f" = traced wall {metrics['trace.wall_s']:.6g} s"
        )
    env = {
        "workload": workload.name,
        "command": f"adoptnet {workload.command}",
        "settings": list(workload.settings),
        "seed": args.seed,
        "seconds": args.seconds,
        "bundles": [b.shape for b in bundles],
        "nproc": os.cpu_count(),
        "openblas_num_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    required = {"trace.wall_s"} if args.trace else set(END_TO_END)
    result = {
        "correct": run.failed == 0 and required <= set(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
