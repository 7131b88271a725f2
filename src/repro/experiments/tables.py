"""Reproductions of Tables 2–8 of the paper.

Table 1 (asymptotic costs) is analytic and lives in
:mod:`repro.analysis.costs`; everything here runs the simulation.  Each
function returns a :class:`TableResult` holding the tidy records, the
rendered :class:`~repro.utils.tables.TextTable` and the underlying settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines.direct import DirectUploadCostModel
from repro.core.config import ExtensionStrategy
from repro.datasets.registry import dataset_summary_table, load_dataset
from repro.experiments.runner import (
    ExperimentSettings,
    build_mechanism,
    evaluate_run,
    make_config,
    run_sweep,
)
from repro.utils.tables import TextTable


@dataclass
class TableResult:
    """One reproduced table: records plus rendered text."""

    name: str
    settings: ExperimentSettings
    records: list[dict] = field(default_factory=list)
    table: TextTable | None = None

    @property
    def text(self) -> str:
        return self.table.render(title=self.name) if self.table is not None else ""


def _ablation_settings(settings: ExperimentSettings | None) -> ExperimentSettings:
    """The paper's ablation defaults: ε = 4, k = 10."""
    settings = settings or ExperimentSettings()
    return replace(settings, epsilons=(4.0,), ks=(10,))


# --------------------------------------------------------------------------- #
# Table 2: dataset inventory
# --------------------------------------------------------------------------- #
def table2(settings: ExperimentSettings | None = None) -> TableResult:
    """Table 2: parties, users, unique items and common items per dataset."""
    settings = settings or ExperimentSettings()
    table = dataset_summary_table(scale=settings.scale, seed=settings.seed)
    records = table.to_records()
    return TableResult(name="Table 2", settings=settings, records=records, table=table)


# --------------------------------------------------------------------------- #
# Table 3: step-size sweep
# --------------------------------------------------------------------------- #
def table3(
    settings: ExperimentSettings | None = None,
    step_sizes: tuple[int, ...] = (2, 4, 6),
) -> TableResult:
    """Table 3: F1 for step sizes ⌊m/g⌋ ∈ {2, 4, 6} at ε = 4, k = 10."""
    settings = _ablation_settings(settings)
    records: list[dict] = []
    table = TextTable(["dataset", "step size", "gtf", "fedpem", "taps"])
    for dataset_name in settings.datasets:
        dataset = load_dataset(dataset_name, scale=settings.scale, seed=settings.seed)
        for step in step_sizes:
            granularity = max(2, dataset.n_bits // step)
            step_settings = replace(settings, granularity=granularity)
            sweep = run_sweep(
                step_settings,
                datasets=(dataset_name,),
                mechanisms=("gtf", "fedpem", "taps"),
            )
            row: list[object] = [dataset_name.upper(), step]
            for mech in ("gtf", "fedpem", "taps"):
                score = sweep.mean_metric("f1", mechanism=mech)
                row.append(score)
                records.append(
                    {
                        "dataset": dataset_name,
                        "step_size": step,
                        "granularity": granularity,
                        "mechanism": mech,
                        "f1": score,
                    }
                )
            table.add_row(row)
    return TableResult(name="Table 3", settings=settings, records=records, table=table)


# --------------------------------------------------------------------------- #
# Table 4: scalability on UBA
# --------------------------------------------------------------------------- #
def table4(
    settings: ExperimentSettings | None = None,
    user_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
) -> TableResult:
    """Table 4: F1, communication cost and runtime vs the UBA user population.

    The direct-upload OUE/OLH columns are analytic (running them is the
    infeasible strategy the paper rules out); the three mechanisms are
    actually executed and measured.  The mean wall-clock runtime is in
    each record's ``runtime_seconds`` but not in the rendered table, so
    a rerun with the same seed renders the same text.
    """
    settings = _ablation_settings(settings)
    k = settings.ks[0]
    epsilon = settings.epsilons[0]
    records: list[dict] = []
    table = TextTable(
        [
            "users",
            "mech",
            "F1",
            "comm (kbits)",
            "OUE comm",
            "OLH comm",
        ]
    )
    for fraction in user_fractions:
        dataset = load_dataset(
            "uba", scale=settings.scale, seed=settings.seed, user_fraction=fraction
        )
        oue_costs = DirectUploadCostModel("oue", epsilon).costs_for_dataset(dataset)
        olh_costs = DirectUploadCostModel("olh", epsilon).costs_for_dataset(dataset)
        for mech_name in ("gtf", "fedpem", "taps"):
            f1s, bits, runtimes = [], [], []
            for repetition in range(settings.repetitions):
                config = make_config(settings, dataset, k=k, epsilon=epsilon)
                mechanism = build_mechanism(mech_name, config)
                result = mechanism.run(dataset, rng=settings.seed + repetition)
                metrics = evaluate_run(result, dataset, k)
                f1s.append(metrics["f1"])
                bits.append(metrics["communication_bits"])
                runtimes.append(metrics["runtime_seconds"])
            record = {
                "user_fraction": fraction,
                "n_users": dataset.total_users,
                "mechanism": mech_name,
                "f1": float(np.mean(f1s)),
                "communication_bits": float(np.mean(bits)),
                "runtime_seconds": float(np.mean(runtimes)),
                "oue_communication_bits": oue_costs.communication_bits,
                "olh_communication_bits": olh_costs.communication_bits,
                "oue_projected_seconds": oue_costs.projected_seconds,
                "olh_projected_seconds": olh_costs.projected_seconds,
            }
            records.append(record)
            table.add_row(
                [
                    f"{int(fraction * 100)}% ({dataset.total_users})",
                    mech_name,
                    record["f1"],
                    record["communication_bits"] / 1000.0,
                    oue_costs.communication_human(),
                    olh_costs.communication_human(),
                ]
            )
    return TableResult(name="Table 4", settings=settings, records=records, table=table)


# --------------------------------------------------------------------------- #
# Table 5: fixed vs adaptive extension
# --------------------------------------------------------------------------- #
def table5(settings: ExperimentSettings | None = None) -> TableResult:
    """Table 5: TAPS with fixed extension t ∈ {⌊k/2⌋, k, 2k, 3k} vs adaptive."""
    settings = _ablation_settings(settings)
    k = settings.ks[0]
    variants: list[tuple[str, dict]] = [
        ("t=k/2", {"extension": ExtensionStrategy.FIXED, "fixed_extension": max(1, k // 2)}),
        ("t=k", {"extension": ExtensionStrategy.FIXED, "fixed_extension": k}),
        ("t=2k", {"extension": ExtensionStrategy.FIXED, "fixed_extension": 2 * k}),
        ("t=3k", {"extension": ExtensionStrategy.FIXED, "fixed_extension": 3 * k}),
        ("adaptive", {"extension": ExtensionStrategy.ADAPTIVE}),
    ]
    records: list[dict] = []
    table = TextTable(["dataset"] + [name for name, _ in variants])
    for dataset_name in settings.datasets:
        row: list[object] = [dataset_name.upper()]
        for variant_name, overrides in variants:
            sweep = run_sweep(
                settings,
                datasets=(dataset_name,),
                mechanisms=("taps",),
                config_overrides=overrides,
            )
            score = sweep.mean_metric("f1")
            row.append(score)
            records.append(
                {
                    "dataset": dataset_name,
                    "variant": variant_name,
                    "f1": score,
                }
            )
        table.add_row(row)
    return TableResult(name="Table 5", settings=settings, records=records, table=table)


# --------------------------------------------------------------------------- #
# Table 6: shared shallow trie ablation
# --------------------------------------------------------------------------- #
def table6(settings: ExperimentSettings | None = None) -> TableResult:
    """Table 6: TAPS with vs without the shared shallow trie construction."""
    settings = _ablation_settings(settings)
    records: list[dict] = []
    table = TextTable(["dataset", "TAPS (w/o shared trie)", "TAPS"])
    for dataset_name in settings.datasets:
        scores = {}
        for label, use_shared in (("without", False), ("with", True)):
            sweep = run_sweep(
                settings,
                datasets=(dataset_name,),
                mechanisms=("taps",),
                config_overrides={"use_shared_trie": use_shared},
            )
            scores[label] = sweep.mean_metric("f1")
            records.append(
                {
                    "dataset": dataset_name,
                    "shared_trie": use_shared,
                    "f1": scores[label],
                }
            )
        table.add_row([dataset_name.upper(), scores["without"], scores["with"]])
    return TableResult(name="Table 6", settings=settings, records=records, table=table)


# --------------------------------------------------------------------------- #
# Table 7: statistical heterogeneity (average local recall)
# --------------------------------------------------------------------------- #
def table7(settings: ExperimentSettings | None = None) -> TableResult:
    """Table 7: average per-party recall of the global ground truths."""
    settings = _ablation_settings(settings)
    records: list[dict] = []
    table = TextTable(["dataset", "# parties", "gtf", "fedpem", "taps", "improvement"])
    for dataset_name in settings.datasets:
        dataset = load_dataset(dataset_name, scale=settings.scale, seed=settings.seed)
        sweep = run_sweep(
            settings, datasets=(dataset_name,), mechanisms=("gtf", "fedpem", "taps")
        )
        recalls = {
            mech: sweep.mean_metric("recall_local_avg", mechanism=mech)
            for mech in ("gtf", "fedpem", "taps")
        }
        best_baseline = max(recalls["gtf"], recalls["fedpem"])
        improvement = (
            (recalls["taps"] - best_baseline) / best_baseline
            if best_baseline > 0
            else float("nan")
        )
        records.append(
            {
                "dataset": dataset_name,
                "n_parties": dataset.n_parties,
                **{f"recall_{m}": v for m, v in recalls.items()},
                "improvement_over_best_baseline": improvement,
            }
        )
        table.add_row(
            [
                dataset_name.upper(),
                dataset.n_parties,
                recalls["gtf"],
                recalls["fedpem"],
                recalls["taps"],
                f"{improvement * 100:.1f}%" if np.isfinite(improvement) else "-",
            ]
        )
    return TableResult(name="Table 7", settings=settings, records=records, table=table)


# --------------------------------------------------------------------------- #
# Table 8: data heterogeneity (Dirichlet β) on SYN
# --------------------------------------------------------------------------- #
def table8(
    settings: ExperimentSettings | None = None,
    betas: tuple[float, ...] = (0.2, 0.5, 0.8),
) -> TableResult:
    """Table 8: F1 on SYN under varying domain-skew β (smaller = more skew)."""
    settings = _ablation_settings(settings)
    records: list[dict] = []
    table = TextTable(["Dirichlet beta", "gtf", "fedpem", "taps"])
    for beta in betas:
        sweep = run_sweep(
            settings,
            datasets=("syn",),
            mechanisms=("gtf", "fedpem", "taps"),
            dataset_kwargs={"dirichlet_beta": beta},
        )
        row: list[object] = [f"Dir({beta})"]
        for mech in ("gtf", "fedpem", "taps"):
            score = sweep.mean_metric("f1", mechanism=mech)
            row.append(score)
            records.append({"beta": beta, "mechanism": mech, "f1": score})
        table.add_row(row)
    return TableResult(name="Table 8", settings=settings, records=records, table=table)
