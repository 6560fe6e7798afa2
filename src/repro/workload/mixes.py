"""Named workload presets used across experiments and examples."""

from __future__ import annotations

from repro.workload.spec import WorkloadSpec


def balanced(seed: int = 0, **overrides) -> WorkloadSpec:
    """The canonical mixed workload: half read-only, moderate contention."""
    params = dict(
        n_objects=200,
        ro_fraction=0.5,
        ro_ops=(2, 6),
        rw_ops=(2, 6),
        write_fraction=0.5,
        zipf_theta=0.8,
        seed=seed,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


def write_heavy_hotspot(seed: int = 0, **overrides) -> WorkloadSpec:
    """Update-intensive with a severe hot spot: maximal RO/RW interference."""
    params = dict(
        n_objects=50,
        ro_fraction=0.3,
        ro_ops=(2, 5),
        rw_ops=(2, 5),
        write_fraction=0.8,
        zipf_theta=1.2,
        seed=seed,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


def contended_small(seed: int = 0, **overrides) -> WorkloadSpec:
    """Tiny database: lots of conflicts and deadlocks for EXP-G."""
    params = dict(
        n_objects=10,
        ro_fraction=0.2,
        ro_ops=(2, 4),
        rw_ops=(3, 6),
        write_fraction=0.6,
        zipf_theta=0.5,
        seed=seed,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


MIXES = {
    "balanced": balanced,
    "write-heavy-hotspot": write_heavy_hotspot,
    "contended-small": contended_small,
}
