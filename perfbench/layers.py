"""Which end-to-end metric each traced layer should move, on which workloads,
and on which workloads it is predicted never to run."""

from __future__ import annotations

ALL = ("isotopy-trefoil", "shell-brieskorn", "witness-chained")


def _off(*on: str) -> tuple[str, ...]:
    return tuple(w for w in ALL if w not in on)


# traced function -> (end-to-end metrics, workloads it should move them on,
#                     workloads where its call count is predicted to be zero)
LAYER_MAP: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "isotopy.connection_velocity": (("wall_s",), ("isotopy-trefoil",), _off("isotopy-trefoil")),
    "isotopy.integrate_isotopy": (("wall_s",), ("isotopy-trefoil",), _off("isotopy-trefoil")),
    "core.evaluate": (("wall_s",), ALL, ()),
    "core.wirtinger_gradient": (("wall_s",), ALL, ()),
    "numerics.real_jacobian_rows": (("wall_s",), _off("shell-brieskorn"), ("shell-brieskorn",)),
    "numerics.complexify": (("wall_s",), ALL, ()),
    "singularity.singularity_residual": (("wall_s",), ("shell-brieskorn",), _off("shell-brieskorn")),
    "singularity.certify_smooth_shell": (("wall_s",), ("shell-brieskorn",), _off("shell-brieskorn")),
    "numerics.newton_on_sphere": (("wall_s",), ("witness-chained",), _off("witness-chained")),
    "numerics.rng_for": (("wall_s",), ("shell-brieskorn", "witness-chained"), ("isotopy-trefoil",)),
    "transversality.sample_on_variety": (("wall_s",), ("witness-chained",), _off("witness-chained")),
    "transversality.rank_test": (("wall_s",), ("witness-chained",), _off("witness-chained")),
    "transversality.type_i_witness": (("wall_s",), ("witness-chained",), _off("witness-chained")),
    "transversality.solve_phi": (("wall_s",), ("witness-chained",), _off("witness-chained")),
    "numerics.monotone_root": (("wall_s",), ("witness-chained",), _off("witness-chained")),
    "report.dumps": (("wall_s", "peak_rss_mb"), ("isotopy-trefoil",), ()),
    "families.member": (("wall_s",), ("isotopy-trefoil",), ()),
    "specio.load_spec": (("setup_s",), ALL, ()),
    "cli.run": (("wall_s",), ("shell-brieskorn", "isotopy-trefoil"), ()),
}

# Counts that repeat exactly across runs with one seed (the hit ratio as a median per run).
EXACT_COUNTS = ("*.calls", "singularity.iterations", "families.blend.hit_ratio")
