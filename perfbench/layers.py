"""Per-layer probe for the traced run.

Times the benchmark's own calls into the public functions of each hlevels
module (cli, harness, salpeter, verifier, spectra, potential) and derives
every per-layer metric from the recorded spans.  `constants` is not
measured: it does microseconds of work once per command.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys

from workloads import (
    CLI_COMMANDS, LADDER_L, LADDER_NB, ROOT, child_env, cli_argv, ladder_config,
)

IMPORT_REPS = 3
MAIN_REPS = 3
MICRO_BATCHES = 5
LEVEL_REPS = 200
EIGH_MAX_NB = 128
VERIFY_LIMIT = 1.0e-5  # the residual limit `hlevels verify` applies

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import hlevels\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)


def _probe_cli(tracer) -> dict:
    import_s = []
    for _ in range(IMPORT_REPS):
        with tracer.span("cli.subprocess", command="import hlevels"):
            proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                                  env=child_env(), cwd=ROOT, timeout=120, check=True)
        seconds, modules = proc.stdout.split()
        import_s.append(float(seconds))

    from hlevels import cli

    for _ in range(MAIN_REPS):
        for command, model, z in CLI_COMMANDS:
            argv = cli_argv(command, model, z, None, "text")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span("cli.main", command=" ".join(argv)):
                    cli.main(argv)
    return {
        "cli.import_ms": (1e3 * statistics.median(import_s), "ms"),
        "cli.modules_loaded": (int(modules), "count"),
        "cli.main_ms": (tracer.median_ms("cli.main"), "ms"),
    }


def _probe_harness_and_salpeter(tracer) -> dict:
    from hlevels import harness, salpeter
    from hlevels import Environment, SolverConfig, default_constants, lowest_levels

    env = Environment()
    builds = 0
    original = salpeter.build_matrices

    def counting_build_matrices(*args, **kwargs):
        nonlocal builds
        builds += 1
        return original(*args, **kwargs)

    salpeter.build_matrices = counting_build_matrices
    try:
        with tracer.span("harness.generate_table1"):
            table1 = harness.generate_table1(env=env)
    finally:
        salpeter.build_matrices = original
    for _ in range(MICRO_BATCHES):
        with tracer.span("harness.generate_table2"):
            table2 = harness.generate_table2(env=env, table1=table1)
        with tracer.span("harness.tables_to_json"):
            json.loads(harness.tables_to_json(table1, table2, env))
    unavailable = sum(flag == "UNAVAILABLE" for row in table2 for flag in row["flags"].values())

    # The Salpeter column, grouped by l as the harness groups it.
    counts = {}
    for st in harness.TABLE_STATES:
        counts[st.l] = max(counts.get(st.l, 0), st.k + 1)
    c = default_constants()
    with tracer.span("salpeter.column"):
        for l, count in sorted(counts.items()):
            with tracer.span("salpeter.lowest_levels", l=l, count=count):
                lowest_levels(l, count, SolverConfig(), c)

    return {
        "harness.table1_ms": (tracer.median_ms("harness.generate_table1"), "ms"),
        "harness.table2_ms": (tracer.median_ms("harness.generate_table2"), "ms"),
        "harness.serialize_ms": (tracer.median_ms("harness.tables_to_json"), "ms"),
        "harness.unavailable_cells": (unavailable, "count"),
        "salpeter.column_ms": (tracer.median_ms("salpeter.column"), "ms"),
        "salpeter.l0_block_ms": (tracer.median_ms("salpeter.lowest_levels", l=0), "ms"),
        "salpeter.matrix_builds": (builds, "count"),
    }


def _probe_salpeter_builds(tracer) -> dict:
    from scipy.linalg import eigh

    from hlevels import IllConditionedBasis, build_matrices, default_constants

    c = default_constants()
    ill = 0
    out = {}
    for nb in LADDER_NB:
        for l in LADDER_L:
            try:
                with tracer.span("salpeter.build_matrices", l=l, nb=nb):
                    m = build_matrices(l, ladder_config(nb), c)
            except IllConditionedBasis:
                ill += 1
                continue
            if nb <= EIGH_MAX_NB:
                with tracer.span("scipy.linalg.eigh", l=l, nb=nb):
                    eigh(m.kinetic_binding + m.potential, m.overlap, eigvals_only=True)
        build_ms = tracer.median_ms("salpeter.build_matrices", nb=nb)
        out[f"salpeter.build_ms.nb{nb}"] = (build_ms, "ms")
        if nb <= EIGH_MAX_NB:
            out[f"salpeter.eigh_ms.nb{nb}"] = (tracer.median_ms("scipy.linalg.eigh", nb=nb), "ms")
    out["salpeter.ill_conditioned"] = (ill, "count")
    return out


def _probe_verifier(tracer) -> dict:
    from hlevels import (
        HlevelsError, PotentialParams, RadialProblem, default_constants, default_params, derive,
        find_turning_points, phase_integral, qc_root_gaps, verification_report,
    )
    from hlevels.harness import TABLE_STATES

    c = default_constants()
    d = derive(c)
    params = default_params(c)
    for st in TABLE_STATES:
        s_plus, _, gap_high = qc_root_gaps(st, d, c)
        problem = RadialProblem(s=s_plus, l=st.l, params=params, derived=d, s_gap_high=gap_high)
        with tracer.span("verifier.find_turning_points", state=st.label):
            tps = find_turning_points(problem)
        with tracer.span("verifier.phase_integral", state=st.label):
            phase_integral(problem, tps)
    failed = 0
    for z in (1, 2):
        for st in TABLE_STATES:
            try:
                with tracer.span("verifier.verification_report", state=st.label, z=z):
                    rows = verification_report([st], d, c, PotentialParams(alpha=c.alpha, z=z))
                failed += not abs(rows[0]["residual"]) <= VERIFY_LIMIT
            except (HlevelsError, ValueError):
                failed += 1
    return {
        "verifier.turning_points_ms": (tracer.median_ms("verifier.find_turning_points"), "ms"),
        "verifier.phase_integral_ms": (tracer.median_ms("verifier.phase_integral"), "ms"),
        "verifier.report_ms": (tracer.median_ms("verifier.verification_report", z=1), "ms"),
        "verifier.failed_states": (failed, "count"),
    }


def _probe_closed_form(tracer) -> dict:
    import numpy as np

    from hlevels import (
        DiracState, default_constants, default_params, derive, kg_level, potential_r, qc_level,
        scalar_coulomb_level, schrodinger_level, sommerfeld_level,
    )
    from hlevels.harness import TABLE_STATES

    c = default_constants()
    d = derive(c)
    calls = []
    for st in TABLE_STATES:
        n = st.n_principal()
        calls += [
            (schrodinger_level, (n, c)),
            (sommerfeld_level, (DiracState(n=n, two_j=2 * st.l + 1), 1, c)),
            (kg_level, (st, 1, c)),
            (scalar_coulomb_level, (st, 1, c)),
            (qc_level, (st, d, c)),
        ]
    params = default_params(c)
    radii = [float(r) for r in np.logspace(-6.0, 9.0, 3000)]
    for _ in range(MICRO_BATCHES):
        with tracer.span("spectra.levels", calls=LEVEL_REPS * len(calls)):
            for _ in range(LEVEL_REPS):
                for fn, args in calls:
                    fn(*args)
        with tracer.span("potential.potential_r", calls=len(radii)):
            for r in radii:
                potential_r(r, params)
    level_us = 1e3 * tracer.median_ms("spectra.levels") / (LEVEL_REPS * len(calls))
    potential_us = 1e3 * tracer.median_ms("potential.potential_r") / len(radii)
    return {
        "spectra.level_us": (level_us, "us"),
        "potential.potential_r_us": (potential_us, "us"),
    }


def probe(tracer) -> dict:
    """Every per-layer metric except the tracing overhead: {name: (value, unit)}."""
    metrics = {}
    for part in (_probe_cli, _probe_harness_and_salpeter, _probe_salpeter_builds,
                 _probe_verifier, _probe_closed_form):
        with tracer.span(f"probe.{part.__name__[len('_probe_'):]}"):
            metrics.update(part(tracer))
    return metrics
