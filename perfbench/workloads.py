"""The benchmark's inputs and the checks on the program's outputs.

Inputs are generated here from the benchmark's ``--seed``; the program
only ever receives the resulting scenario names and cache keys.  The
``repro`` imports are local to the functions so that the orchestrating
process never loads the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import typing as _t

WORKLOADS = ("paper-figures", "failure-sweep", "fabric-serve")

#: fig5b physical process counts of the paper-figures workload
FIG5B_PROCS = (32, 64, 128)

#: the grid:failures slice: every schedule kind with events, one
#: detection delay, SLICE_SEEDS of the family's 64 seeds picked by --seed
FAILURE_KINDS = ("fixed", "poisson", "weibull", "ipoisson", "maintenance",
                 "cascade")
FAILURE_FD = 5e-05
SLICE_SEEDS = 32
GRID_SEEDS = 64

#: fabric-serve traffic: requests per round and the /result share
ROUND_REQUESTS = 1200
RESULT_SHARE = 0.8


def paper_figure_inputs() -> _t.List[_t.Any]:
    """fig5a (9 points), fig5b at FIG5B_PROCS (9) and fig6a–d (12), in
    the order :func:`paper_checks` reads them."""
    import repro
    from repro.experiments.fig5 import fig5a_scenarios, fig5b_scenarios
    points: _t.List[_t.Any] = list(fig5a_scenarios())
    points += fig5b_scenarios(FIG5B_PROCS)
    points += [repro.scenario(f"{fig}:{mode}")
               for fig in ("fig6a", "fig6b", "fig6c", "fig6d")
               for mode in ("native", "sdr", "intra")]
    return points


def grid_point_names(seed: int) -> _t.List[str]:
    """The seeded grid:failures slice followed by all of grid:restart."""
    from repro.scenarios.grids import get_grid
    picked = sorted(random.Random(seed).sample(range(GRID_SEEDS),
                                               SLICE_SEEDS))
    failures = get_grid("failures")
    names = [failures.point_name(kind=kind, seed=s, fd=FAILURE_FD)
             for kind in FAILURE_KINDS for s in picked]
    return names + list(get_grid("restart").point_names())


def request_plan(seed: int, n_points: int) -> _t.List[_t.Tuple[str, int]]:
    """One round of fabric-serve traffic: ``(route, point index)`` with
    route ``"result"`` (by cache key) or ``"scenario"`` (by name)."""
    rng = random.Random(f"fabric-serve:{seed}")
    return [("result" if rng.random() < RESULT_SHARE else "scenario",
             rng.randrange(n_points)) for _ in range(ROUND_REQUESTS)]


# ------------------------------------------------------------- digests
def canonical_json(result: _t.Any) -> str:
    """A result's JSON without the cache hit flag, which says how the
    result was obtained, not what it is."""
    return dataclasses.replace(result, cache_hit=None).to_json()


def point_digest(result: _t.Any) -> str:
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def combined_digest(point_digests: _t.Sequence[str]) -> str:
    """sha256 over the per-point digests in input order."""
    h = hashlib.sha256()
    for d in point_digests:
        h.update(d.encode())
    return h.hexdigest()


# -------------------------------------------------------------- checks
Check = _t.Tuple[str, bool]


def paper_checks(results: _t.Sequence[_t.Any]) -> _t.Tuple[
        _t.List[Check], _t.Dict[str, float]]:
    """The paper's claims on the paper-figures results (ordered as
    :func:`paper_figure_inputs`) and the shape bounds the figure
    benchmarks assert; returns the checks and the fig5b efficiencies."""
    from repro.analysis import (doubled_resource_efficiency,
                                fixed_resource_efficiency)
    from repro.experiments.fig6 import SECTION_REGIONS

    checks: _t.List[Check] = []
    fig5a, fig5b, fig6 = results[:9], results[9:18], results[18:30]

    # fig5a: per-kernel efficiency, kernel-major then native/sdr/intra
    for k, kernel in enumerate(("waxpby", "ddot", "spmv")):
        native, sdr, intra = fig5a[3 * k:3 * k + 3]
        t_n, t_s, t_i = (r.timers[kernel] for r in (native, sdr, intra))
        e_s = fixed_resource_efficiency(t_n, t_s)
        e_i = fixed_resource_efficiency(t_n, t_i)
        exposed = intra.intra.get("exposed_update_time", 0.0)
        checks.append((f"fig5a.{kernel}.sdr_eff~0.5", abs(e_s - 0.5) < 0.03))
        if kernel == "waxpby":
            checks += [("fig5a.waxpby.intra_eff<0.45", e_i < 0.45),
                       ("fig5a.waxpby.intra_slower_than_sdr", t_i > t_s),
                       ("fig5a.waxpby.exposed>0.4", exposed > 0.4 * t_i)]
        else:
            checks += [(f"fig5a.{kernel}.intra_eff>0.88", e_i > 0.88),
                       (f"fig5a.{kernel}.intra_faster_than_sdr", t_i < t_s)]
        if kernel == "spmv":
            checks.append(("fig5a.spmv.exposed<0.1", exposed < 0.1 * t_i))

    # fig5b: SDR ~0.5, intra > 0.72 and flat across scale
    effs: _t.Dict[str, float] = {}
    intra_effs = []
    for p, procs in enumerate(FIG5B_PROCS):
        native, sdr, intra = fig5b[3 * p:3 * p + 3]
        e_s = fixed_resource_efficiency(native.wall_time, sdr.wall_time)
        e_i = fixed_resource_efficiency(native.wall_time, intra.wall_time)
        effs[f"sdr_eff_p{procs}"], effs[f"intra_eff_p{procs}"] = e_s, e_i
        intra_effs.append(e_i)
        checks += [(f"fig5b.p{procs}.sdr_eff~0.5", abs(e_s - 0.5) < 0.06),
                   (f"fig5b.p{procs}.intra_eff>0.72", e_i > 0.72),
                   (f"fig5b.p{procs}.sdr<intra<1", e_s < e_i < 1.0)]
    checks.append(("fig5b.intra_spread<0.05",
                   max(intra_effs) - min(intra_effs) < 0.05))

    # fig6a-d: doubled-resource efficiency and the sections share
    intra6: _t.Dict[str, float] = {}
    for f, fig in enumerate(("fig6a", "fig6b", "fig6c", "fig6d")):
        native, sdr, intra = fig6[3 * f:3 * f + 3]
        frac = (sum(native.timers.get(r, 0.0)
                    for r in SECTION_REGIONS[native.scenario.app])
                / native.wall_time)
        e_s = doubled_resource_efficiency(native.wall_time, sdr.wall_time)
        e_i = doubled_resource_efficiency(native.wall_time, intra.wall_time)
        intra6[fig] = e_i
        checks.append((f"{fig}.sdr_eff~0.5", abs(e_s - 0.5) < 0.04))
        if fig != "fig6d":
            checks.append((f"{fig}.intra_faster_than_sdr",
                           intra.wall_time < sdr.wall_time))
        if fig == "fig6a":
            checks += [("fig6a.intra_eff_bounds",
                        0.55 < e_i <= 0.5 / (1 - frac / 2) + 0.02),
                       ("fig6a.sections_0.6..0.9", 0.6 < frac < 0.9)]
        elif fig == "fig6b":
            checks += [("fig6b.intra_eff_0.54..0.70", 0.54 < e_i < 0.70),
                       ("fig6b.sections<0.65", frac < 0.65)]
        elif fig == "fig6c":
            checks += [("fig6c.intra_eff_0.62..0.82", 0.62 < e_i < 0.82),
                       ("fig6c.sections_0.65..0.85", 0.65 < frac < 0.85)]
        else:
            checks += [("fig6d.intra_eff_0.50..0.60", 0.50 <= e_i < 0.60),
                       ("fig6d.sections<0.25", frac < 0.25)]
    checks.append(("fig6b.intra_eff<fig6a", intra6["fig6b"] < intra6["fig6a"]))
    return ([(name, bool(ok)) for name, ok in checks],
            {k: float(v) for k, v in effs.items()})
