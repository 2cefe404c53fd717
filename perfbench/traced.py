"""The traced run: per-layer self times and call counts.

One build runs untraced and one with spans around the build phases.  Then
each round of the workload runs twice on the same inputs: untraced, and
with spans around every public callable listed in ``layer_targets``.
Layers that the workload never calls are timed on a short probe of the
other workloads' calls, after the traced rounds; call counts come from the
traced rounds only.  Spans are written to ``out/`` when the run ends.
"""

from __future__ import annotations

import time

import numpy as np
from qrdyn import dynamics, global_map, star_extend, zorich

from run import HERE, report, timed_build
from spans import Tracer
from workloads import Context, Tally, check_build

# (owner, attribute, span); the metric is the span's self time per build
BUILD_PHASES = [
    (zorich, "derive_beam_constants", "zorich.derive_beam_constants"),
    (global_map, "build_aprime_chart", "global_map.build_aprime_chart"),
    (global_map, "build_asecond_charts", "global_map.build_asecond_charts"),
    (global_map, "derive_translation_constant",
     "global_map.derive_translation_constant"),
    (star_extend.RadialMap, "validate_boundary_map",
     "star_extend.validate_boundary_map"),
]

EVAL3 = ("global_map.eval3_identity", "global_map.eval3_F", "global_map.eval3_slab")

# metric -> (span, unit, ns per unit): self time per call
SELF_TIMES = {
    "global_map.eval3_slab_us": ("global_map.eval3_slab", "us", 1e3),
    "star_extend.radial_eval_us": ("star_extend.radial_eval", "us", 1e3),
    "global_map.eval3_F_us": ("global_map.eval3_F", "us", 1e3),
    "zorich.F_scalar_us": ("zorich.F_scalar", "us", 1e3),
    "global_map.eval3_identity_us": ("global_map.eval3_identity", "us", 1e3),
    "dynamics.classify_escape_self_us": ("dynamics.classify_escape", "us", 1e3),
    "dynamics.max_modulus_estimate_ms": ("dynamics.max_modulus_estimate", "ms", 1e6),
    "dynamics.fast_escape_test_self_ms": ("dynamics.fast_escape_test", "ms", 1e6),
    "dynamics.escape_rate_series_us": ("dynamics.escape_rate_series", "us", 1e3),
    "star_extend.radial_inverse_us": ("star_extend.radial_inverse", "us", 1e3),
    "geometry.psi_us": ("geometry.psi", "us", 1e3),
    "global_map.audit_seams_s": ("global_map.audit_seams", "s", 1e9),
    "global_map.audit_orientation_s": ("global_map.audit_orientation", "s", 1e9),
    "global_map.audit_dilatation_s": ("global_map.audit_dilatation", "s", 1e9),
    "zorich.expansion_min_ratio_s": ("zorich.expansion_min_ratio", "s", 1e9),
}

# metric -> span: calls per attempted operation of the workload
CALLS = {
    "global_map.eval3_slab_calls": "global_map.eval3_slab",
    "star_extend.radial_eval_calls": "star_extend.radial_eval",
    "global_map.eval3_F_calls": "global_map.eval3_F",
    "global_map.eval3_identity_calls": "global_map.eval3_identity",
    "dynamics.max_modulus_estimate_calls": "dynamics.max_modulus_estimate",
    "example_maps.handle_calls": "example_maps.handle",
    "geometry.psi_calls": "geometry.psi",
}


def layer_targets(tracer, ctx):
    ident, F, slab = (tracer.name_id(n) for n in EVAL3)

    def regime(gm, x, y, z):
        return ident if z < 0.0 else (F if z > gm.L else slab)

    targets = [(global_map.GlobalMap, "eval3", "global_map.eval3", regime)]
    for owner, attr, name in [
        (star_extend.RadialMap, "eval", "star_extend.radial_eval"),
        (star_extend.RadialMap, "inverse", "star_extend.radial_inverse"),
        (star_extend, "psi", "geometry.psi"),
        (zorich, "F_scalar", "zorich.F_scalar"),
        (dynamics, "classify_escape", "dynamics.classify_escape"),
        (dynamics, "max_modulus_estimate", "dynamics.max_modulus_estimate"),
        (dynamics, "fast_escape_test", "dynamics.fast_escape_test"),
        (dynamics, "escape_rate_series", "dynamics.escape_rate_series"),
        (global_map, "audit_seams", "global_map.audit_seams"),
        (global_map, "audit_orientation", "global_map.audit_orientation"),
        (global_map, "audit_dilatation", "global_map.audit_dilatation"),
        (zorich, "expansion_min_ratio", "zorich.expansion_min_ratio"),
        (ctx.example_one, "fn", "example_maps.handle"),
        (ctx.example_two, "fn", "example_maps.handle"),
    ]:
        targets.append((owner, attr, name, None))
    return targets


def run(workloads, name, seed, seconds):
    cls = workloads[name]
    timed_build()
    build_tracer = Tracer()
    with build_tracer.patched([t + (None,) for t in BUILD_PHASES]):
        build, _ = timed_build()
    ctx = Context(build)

    plain, traced = Tally(), Tally()
    check_build(ctx, plain)
    tracer = Tracer()
    targets = layer_targets(tracer, ctx)
    # each round runs untraced, then again on the same inputs with spans,
    # so that drift of the machine's speed cancels in the overhead
    rng = np.random.default_rng(seed)
    bare, spanned = cls(ctx, seed), cls(ctx, seed)
    start = time.perf_counter()
    while not traced.rates or time.perf_counter() - start < seconds:
        state = rng.bit_generator.state
        bare.round(rng, plain)
        rng.bit_generator.state = state
        with tracer.patched(targets):
            spanned.round(rng, traced)
    in_rounds = len(tracer)
    with tracer.patched(targets):
        for other in workloads.values():
            if other is not cls:
                other(ctx, seed).probe()

    work = tracer.summary(0, in_rounds)
    probe = tracer.summary(in_rounds)
    metrics = {}
    for metric, (span, unit, scale) in SELF_TIMES.items():
        calls, self_ns, _ = work[span] if work[span][0] else probe[span]
        metrics[metric] = {"value": self_ns / calls / scale, "unit": unit}
    ops = traced.attempted
    for metric, span in CALLS.items():
        metrics[metric] = {"value": work[span][0] / ops, "unit": "calls/op"}
    under_classify = sum(work[s][2].get("dynamics.classify_escape", 0) for s in EVAL3)
    metrics["dynamics.classify_escape_map_calls"] = {
        "value": under_classify / ops, "unit": "calls/op"}
    phase = build_tracer.summary()
    for _, _, span in BUILD_PHASES:
        metrics[f"{span}_s"] = {"value": phase[span][1] / 1e9, "unit": "s"}
    metrics["bench.trace_overhead_s"] = {
        "value": traced.busy - plain.busy, "unit": "s"}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{name}-seed{seed}.npz")
    build_tracer.write(out / f"spans-{name}-seed{seed}-build.npz")

    merged = Tally(attempted=plain.attempted + traced.attempted,
                   failed=plain.failed + traced.failed,
                   errors=plain.errors + traced.errors)
    return report(merged, metrics)
