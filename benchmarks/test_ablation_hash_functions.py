"""Ablation — map hash functions (Sec. 3.7, "other hash functions are
possible; we leave this to future work").

Compares the paper's average+range map against average-only and
range-only variants: storage savings (more sharing) vs output error
(worse substitutions). The combined hash should dominate range-only
everywhere and trade a little sharing for a lot of error versus
average-only.
"""

from repro.core.functional import BlockApproximator
from repro.core.maps import MapConfig
from repro.harness.reporting import Table, arithmetic_mean


def _evaluate(ctx, map_config):
    errors, sharings = [], []
    for name in ctx.names:
        workload = ctx.workload(name)
        approximator = BlockApproximator(map_config, data_entries=4096)
        errors.append(workload.evaluate_error(approximator))
        sharings.append(approximator.sharing_rate())
    return arithmetic_mean(errors), arithmetic_mean(sharings)


def test_ablation_hash_functions(once, ctx, emit):
    configs = {
        "average+range (paper)": MapConfig(14),
        "average only": MapConfig(14, ("average",)),
        "range only": MapConfig(14, ("range",)),
    }

    def run():
        table = Table(
            "Ablation: map hash functions (14-bit, 1/4 data array)",
            ["hash", "mean output error", "mean sharing rate"],
        )
        for label, config in configs.items():
            err, share = _evaluate(ctx, config)
            table.add_row(label, err, share)
        return table

    table = once(run)
    emit(table, "ablation_hash")
    rows = table.row_map()
    paper_err = rows["average+range (paper)"][1]
    avg_err = rows["average only"][1]
    range_err = rows["range only"][1]
    # Dropping the range hash merges avg-similar but differently-spread
    # blocks: error must not improve.
    assert avg_err >= paper_err - 0.02
    # The range hash alone is a much weaker discriminator.
    assert range_err > paper_err
    # And the range-only variant shares the most (coarsest grouping).
    assert rows["range only"][2] >= rows["average+range (paper)"][2] - 0.02


def test_ablation_alternative_hashes(once, ctx, emit):
    """Future-work hash exploration: storage savings per hash combo."""
    from repro.analysis.storage import doppelganger_savings, snapshot_from_workload

    combos = {
        "average+range (paper)": ("average", "range"),
        "min+max": ("min", "max"),
        "median+range": ("median", "range"),
        "average+projection": ("average", "projection"),
        "projection only": ("projection",),
    }

    def run():
        table = Table(
            "Ablation: alternative similarity hashes (14-bit, storage savings)",
            ["workload"] + list(combos),
        )
        for name in ctx.names:
            snapshot = snapshot_from_workload(ctx.workload(name))
            table.add_row(name, *[
                doppelganger_savings(snapshot, MapConfig(14, hashes))
                for hashes in combos.values()
            ])
        means = [
            arithmetic_mean([row[i] for row in table.rows])
            for i in range(1, len(combos) + 1)
        ]
        table.add_row("mean", *means)
        return table

    table = once(run)
    emit(table, "ablation_alt_hashes")
    mean = table.row_map()["mean"]
    labels = ["workload"] + list(combos)
    by = dict(zip(labels[1:], mean[1:]))
    # min+max is informationally close to average+range.
    assert abs(by["min+max"] - by["average+range (paper)"]) < 0.30
    # The projection is the most discriminating single hash: combining
    # it with the average must not *increase* savings over the paper's
    # coarser pair.
    assert by["average+projection"] <= by["average+range (paper)"] + 0.02
