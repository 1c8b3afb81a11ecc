"""Fig. 9 — output error (a) and normalized runtime (b) vs map space.

Paper: error decreases with a larger map space (fewer blocks deemed
similar); all benchmarks stay near or below 10% error at 14 bits
except ferret (pessimistic metric) and swaptions (mixed-purpose
floats). Runtime moves by <1% on average between 12- and 14-bit maps.
"""

from repro.harness.experiments import fig09_map_space


def test_fig09_map_space(once, ctx, emit):
    tables = once(lambda: fig09_map_space(ctx))
    emit(tables, "fig09")
    err = tables["error"].row_map()
    run = tables["runtime"].row_map()

    # Error shrinks (or stays) as the map space grows, per workload.
    for name, *vals in tables["error"].rows:
        assert vals[0] >= vals[2] - 0.02, f"{name}: 12-bit should not beat 14-bit"

    # At 14 bits, the well-behaved benchmarks sit at low error
    # (paper: <=10%; blackscholes lands slightly above in our
    # portfolio-normalized metric).
    for name in ("canneal", "inversek2j", "jpeg", "kmeans"):
        assert err[name][3] < 0.12, name
    assert err["blackscholes"][3] < 0.20
    # ...while the paper's two outliers stay high.
    assert err["ferret"][3] > 0.10
    assert err["swaptions"][3] > 0.10

    # Runtime is insensitive to the map-space size on average.
    geo = run["geomean"]
    assert abs(geo[1] - geo[3]) < 0.10
