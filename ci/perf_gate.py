#!/usr/bin/env python3
"""Perf regression gate with per-phase attribution for the engine smoke.

Compares a freshly measured ``engine_smoke`` output against the committed
baseline and fails (exit 1) when a gated metric regresses beyond its
tolerance:

* ``steps_per_sec`` and ``cache_hit_ratio`` must not drop below
  ``baseline * (1 - tol)``;
* ``flush_apply_ns_row`` and ``cache_fill_ns_row`` must not rise above
  ``baseline * (1 + tol)`` (each skipped when the baseline predates the
  metric or recorded 0);
* ``mean_gentry_ns`` and ``p95_stall_ns`` are on the modeled clock — a
  pure function of the profile's seed and configuration — and must
  **equal** the baseline exactly; a difference means the model, a price or
  the workload changed, and the baseline is regenerated in that commit.

Both files may carry several workload profiles under ``"profiles"``
(``2gpu`` — the historical smoke workload — ``8gpu`` — the paper's
commodity testbed width — and ``elastic`` — the 8gpu workload with one
mid-run 8→6→8 membership transition). Every profile present in the
*current* file is gated against the matching baseline profile; a profile
the baseline lacks is **fully** recorded-not-gated — including the
absolute ceilings, which print in record-only mode — so the commit that
introduces a profile can never be bricked by its own gate; the ceilings
arm on the next commit, once the baseline carries the profile. Flat
files written before the multi-profile schema are read as a bare
``2gpu`` profile, so an old committed baseline still gates the 2-GPU
numbers of a new measurement (and vice versa).

A ``gentry_mem`` block in the current file is gated against the absolute
CriteoTB feasibility bound: ``bytes_per_key`` must stay below
``FRUGAL_PERF_MAX_GENTRY_BYTES_PER_KEY`` (default 32 — the DESIGN.md §14
budget), independent of any baseline.

Tolerances are fractional and resolve per metric, most specific first:
``FRUGAL_PERF_TOL_<PROFILE>_<METRIC>`` (e.g.
``FRUGAL_PERF_TOL_8GPU_STEPS_PER_SEC`` — the wide profile oversubscribes
small CI hosts heavily, so its wall-clock noise floor is higher) >
``FRUGAL_PERF_TOL_<METRIC>`` > ``FRUGAL_PERF_TOL`` > the per-metric
default below. The modeled metrics take no tolerance.

When both files carry the per-phase ledger (``current.phases``, written by
``engine_smoke`` since the critical-path profiler landed), the gate prints
a per-phase delta table — mean and p95 ns per step for every engine phase
— and attributes any top-level failure to the phases that moved most.
Phase means are also soft-gated: a phase whose baseline mean is at least
``PHASE_MIN_NS`` (1000 ns — below that, a ratio is noise) must not grow
past ``baseline * (1 + phase_tol)`` where ``phase_tol`` resolves via
``FRUGAL_PERF_TOL_PHASE_<NAME>`` > ``FRUGAL_PERF_TOL_PHASE`` (default
2.0). Baselines without phases skip all of this gracefully.

On top of the relative soft gates, the decentralized-reduce phases carry
**hard absolute ceilings** on the 8gpu profile (``HARD_PHASE_CEILINGS``):
``barrier_a`` and ``leader_apply`` mean ns/step each have an absolute
bound, and their sum must stay at or under 3 ms — the leader-serial merge
and apply used to cost 5.67 + 4.11 ms/step there, and a regression that
re-serializes either phase must fail CI even if a new committed baseline
would otherwise ratchet the relative gates. Ceilings are independent of
the baseline file (like ``gentry_mem``) and override via the env var
named per bound (e.g. ``FRUGAL_PERF_MAX_8GPU_BARRIER_A_PLUS_LEADER_APPLY_NS``).
The ``elastic`` profile carries an analogous **hard metric ceiling**:
``membership_transition_ms`` (the run's total drain → re-home → resume
wall time) must stay under an absolute bound
(``FRUGAL_PERF_MAX_ELASTIC_TRANSITION_MS``), so a drain that starts
spinning fails CI even if a regressed baseline is committed alongside.

The delta table is additionally written to the path in
``FRUGAL_PERF_TABLE_OUT`` (when set) so CI can upload it as an artifact.

Usage::

    python3 ci/perf_gate.py [BASELINE_JSON] [CURRENT_JSON]

Defaults: ``BENCH_engine.json`` (committed baseline) and
``BENCH_engine.ci.json`` (fresh measurement).
"""

import json
import os
import sys

# (metric, direction, default fractional tolerance). "floor": current must
# stay above baseline * (1 - tol); "ceil": below baseline * (1 + tol).
GATED = [
    ("steps_per_sec", "floor", 0.35),
    ("flush_apply_ns_row", "ceil", 0.35),
    # Hit ratio is deterministic for a fixed seed+policy, so its floor is
    # tight: a drop means a cache/sharding logic change, not noise.
    ("cache_hit_ratio", "floor", 0.05),
    # Fill cost is a short wall-clock measurement (hundreds of rows per
    # run): gate collapses, not drift.
    ("cache_fill_ns_row", "ceil", 1.00),
]

# Modeled-clock metrics: gated at exact equality with the baseline.
EXACT = ["mean_gentry_ns", "p95_stall_ns"]

# fifo_* track the arrival-order flush ablation, profiled_steps_per_sec the
# instrumented run: recorded every run for the trajectory, never gated.
# post_transition_steps_per_sec (elastic profile only) is the steady-state
# rate with the transition cost excluded; the transition itself is gated by
# the absolute ceiling below. Metrics absent from both files are skipped.
INFORMATIONAL = [
    "fifo_steps_per_sec",
    "fifo_p95_stall_ns",
    "profiled_steps_per_sec",
    "post_transition_steps_per_sec",
]

PHASE_TOL_DEFAULT = 2.0
PHASE_MIN_NS = 1000.0

# Hard absolute ceilings on phase means (ns/step), per profile — the
# decentralization contract. Unlike the relative soft gates these cannot be
# ratcheted by committing a regressed baseline: the serial-leader merge the
# sharded reduce replaced cost 5.67 ms/step of barrier_a and 4.11 ms/step
# of leader_apply at 8 trainers, and the combined bound pins both phases to
# the post-decentralization regime (≤ 3 ms together). Each bound's env var
# overrides it for unusually slow CI hosts.
HARD_PHASE_CEILINGS = {
    "8gpu": [
        (("barrier_a",), 3_000_000.0, "FRUGAL_PERF_MAX_8GPU_BARRIER_A_NS"),
        (("leader_apply",), 1_000_000.0, "FRUGAL_PERF_MAX_8GPU_LEADER_APPLY_NS"),
        (
            ("barrier_a", "leader_apply"),
            3_000_000.0,
            "FRUGAL_PERF_MAX_8GPU_BARRIER_A_PLUS_LEADER_APPLY_NS",
        ),
    ],
}

# Hard absolute ceilings on top-level metrics, per profile — same contract
# as HARD_PHASE_CEILINGS (baseline-independent, env-overridable, armed only
# once the committed baseline carries the profile). The elastic transition
# (drain → re-home → resume, twice per run) takes single-digit milliseconds
# on the smoke workload; the ceiling bounds the whole run's transition time
# far above scheduler noise but far below anything that would indicate the
# drain spinning or the cohort failing to quiesce promptly.
HARD_METRIC_CEILINGS = {
    "elastic": [
        ("membership_transition_ms", 100.0, "FRUGAL_PERF_MAX_ELASTIC_TRANSITION_MS"),
    ],
}


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def profiles_of(doc, path):
    """Profile-name -> profile-object map, treating legacy flat files
    (no ``profiles`` key) as a bare 2-GPU profile."""
    if "profiles" in doc:
        return doc["profiles"]
    if "current" in doc:
        return {"2gpu": doc}
    sys.exit(f"perf-gate: {path} has neither 'profiles' nor 'current'")


def tol_for(metric, default, profile=None):
    env = None
    if profile is not None:
        env = os.environ.get(f"FRUGAL_PERF_TOL_{profile.upper()}_{metric.upper()}")
    if env is None:
        env = os.environ.get(f"FRUGAL_PERF_TOL_{metric.upper()}")
    if env is None:
        env = os.environ.get("FRUGAL_PERF_TOL")
    return float(env) if env is not None else default


def phase_tol_for(phase):
    env = os.environ.get(f"FRUGAL_PERF_TOL_PHASE_{phase.upper()}")
    if env is None:
        env = os.environ.get("FRUGAL_PERF_TOL_PHASE")
    return float(env) if env is not None else PHASE_TOL_DEFAULT


def gate_metrics(base, cur, profile=None):
    """Top-level metric gates. Returns (lines, failures)."""
    lines, failures = [], []
    for name, direction, default in GATED:
        tol = tol_for(name, default, profile)
        b = float(base.get(name, 0.0))
        c = float(cur.get(name, 0.0))
        if b <= 0.0:
            lines.append(f"{name + ':':<20} baseline has none; current {c:.1f} (recorded, not gated)")
            continue
        if direction == "floor":
            bound = (1.0 - tol) * b
            lines.append(
                f"{name + ':':<20} baseline {b:10.1f}  current {c:10.1f}  floor {bound:10.1f}  (tol {tol})"
            )
            if c < bound:
                failures.append(f"{name} {c:.1f} < floor {bound:.1f} (baseline {b:.1f}, tol {tol})")
        else:
            bound = (1.0 + tol) * b
            lines.append(
                f"{name + ':':<20} baseline {b:10.1f}  current {c:10.1f}  ceil  {bound:10.1f}  (tol {tol})"
            )
            if c > bound:
                failures.append(f"{name} {c:.1f} > ceil {bound:.1f} (baseline {b:.1f}, tol {tol})")
    for name in EXACT:
        if name not in base:
            lines.append(f"{name + ':':<20} baseline has none; current {cur.get(name)} (recorded, not gated)")
            continue
        b, c = base[name], cur.get(name)
        lines.append(f"{name + ':':<20} baseline {b:>10}  current {c:>10}  (modeled, exact)")
        if c != b:
            failures.append(f"{name} {c} != baseline {b} (modeled clock: must match exactly)")
    for name in INFORMATIONAL:
        if name not in base and name not in cur:
            continue
        lines.append(
            f"{name + ':':<20} baseline {float(base.get(name, 0)):10.1f}  "
            f"current {float(cur.get(name, 0)):10.1f}  (informational)"
        )
    return lines, failures


def phase_delta_table(base_phases, cur_phases):
    """Per-phase delta rows sorted by the magnitude of the mean move.

    Returns (table_lines, phase_failures, ranked) where ranked is
    [(phase, delta_mean_ns, pct_or_None), ...] most-moved first.
    """
    names = list(cur_phases.keys())
    for n in base_phases:
        if n not in names:
            names.append(n)
    rows = []
    failures = []
    for name in names:
        b = base_phases.get(name, {})
        c = cur_phases.get(name, {})
        b_mean = float(b.get("mean_ns", 0.0))
        c_mean = float(c.get("mean_ns", 0.0))
        b_p95 = float(b.get("p95_ns", 0.0))
        c_p95 = float(c.get("p95_ns", 0.0))
        delta = c_mean - b_mean
        pct = (delta / b_mean * 100.0) if b_mean > 0 else None
        rows.append((name, b_mean, c_mean, delta, pct, b_p95, c_p95))
        if b_mean >= PHASE_MIN_NS:
            tol = phase_tol_for(name)
            ceil = (1.0 + tol) * b_mean
            if c_mean > ceil:
                failures.append(
                    f"phase {name} mean {c_mean:.0f} ns > ceil {ceil:.0f} ns "
                    f"(baseline {b_mean:.0f}, tol {tol})"
                )
    rows.sort(key=lambda r: abs(r[3]), reverse=True)

    lines = [
        "per-phase delta (ns per step, sorted by |Δmean|):",
        f"  {'phase':<14} {'base mean':>10} {'cur mean':>10} {'Δmean':>10} {'Δ%':>8} {'base p95':>10} {'cur p95':>10}",
    ]
    for name, b_mean, c_mean, delta, pct, b_p95, c_p95 in rows:
        pct_s = f"{pct:+7.1f}%" if pct is not None else "     new"
        lines.append(
            f"  {name:<14} {b_mean:>10.0f} {c_mean:>10.0f} {delta:>+10.0f} {pct_s:>8} {b_p95:>10.0f} {c_p95:>10.0f}"
        )
    ranked = [(r[0], r[3], r[4]) for r in rows]
    return lines, failures, ranked


def attribute(failures, ranked):
    """Names the phases most plausibly behind the failed top-level gates."""
    movers = [(n, d, p) for n, d, p in ranked if d > 0][:3]
    if not movers:
        return ["attribution: no phase grew vs baseline (regression is outside the ledger's phases)"]
    lines = ["attribution: phases that grew most vs baseline:"]
    for name, delta, pct in movers:
        pct_s = f" ({pct:+.1f}%)" if pct is not None else ""
        lines.append(f"  {name}: {delta:+.0f} ns per step{pct_s}")
    return lines


def gate_profile(name, base_profile, cur_profile):
    """Gates one profile. Returns (lines, failures); profile-less baselines
    record without gating."""
    lines = [f"=== profile {name} ==="]
    cur = cur_profile.get("current")
    if cur is None:
        return lines + ["  current file has no 'current' block (skipped)"], []

    base = (base_profile or {}).get("current")
    if base is None:
        # A profile the committed baseline has never seen: everything —
        # including the absolute ceilings — records without gating, so the
        # commit that introduces a profile cannot be failed by it. The
        # ceilings arm on the next commit, once the regenerated baseline
        # carries the profile.
        lines.append(f"profile {name}: baseline has no such profile; recorded, not gated")
        for metric in [m for m, _, _ in GATED] + EXACT:
            lines.append(f"{metric + ':':<20} current {float(cur.get(metric, 0.0)):10.1f} (recorded)")
        hard_lines, hard_failures = gate_hard_phases(name, cur.get("phases") or {})
        metric_hard_lines, metric_hard_failures = gate_hard_metrics(name, cur)
        lines += hard_lines + metric_hard_lines
        for f in hard_failures + metric_hard_failures:
            lines.append(f"  note (new profile, not gated): {f}")
        return lines, []

    metric_lines, failures = gate_metrics(base, cur, name)
    failures = [f"[{name}] {f}" for f in failures]
    lines += metric_lines

    metric_hard_lines, metric_hard_failures = gate_hard_metrics(name, cur)
    lines += metric_hard_lines
    failures.extend(f"[{name}] {f}" for f in metric_hard_failures)

    base_phases = base.get("phases") or {}
    cur_phases = cur.get("phases") or {}
    if cur_phases:
        if base_phases:
            table_lines, phase_failures, ranked = phase_delta_table(base_phases, cur_phases)
            failures.extend(f"[{name}] {f}" for f in phase_failures)
            if failures:
                table_lines += attribute(failures, ranked)
            lines += table_lines
        else:
            lines.append("per-phase: baseline has no ledger; current phases recorded, not gated")
        hard_lines, hard_failures = gate_hard_phases(name, cur_phases)
        lines += hard_lines
        failures.extend(f"[{name}] {f}" for f in hard_failures)
    elif HARD_PHASE_CEILINGS.get(name):
        # A profile with hard ceilings must carry a ledger: skipping it
        # silently would turn the absolute bounds off.
        lines.append("per-phase: current run carries no ledger (profiling disabled?)")
        failures.append(f"[{name}] hard phase ceilings configured but run carries no ledger")
    else:
        lines.append("per-phase: current run carries no ledger (profiling disabled?)")
    return lines, failures


def gate_hard_phases(name, cur_phases):
    """Absolute phase-mean ceilings for one profile (baseline-independent).

    Returns (lines, failures). A profile with no configured ceilings, or a
    run that carries no ledger, records nothing — the soft relative gates
    still cover it."""
    lines, failures = [], []
    for phases, default_bound, env in HARD_PHASE_CEILINGS.get(name, []):
        bound = float(os.environ.get(env, default_bound))
        total = sum(float(cur_phases.get(p, {}).get("mean_ns", 0.0)) for p in phases)
        label = "+".join(phases)
        missing = [p for p in phases if p not in cur_phases]
        if missing:
            failures.append(
                f"hard ceiling {label}: phase(s) {', '.join(missing)} absent from ledger "
                "(renamed or dropped?)"
            )
            continue
        lines.append(
            f"hard ceiling {label + ':':<28} mean {total:>10.0f} ns/step  ceil {bound:>10.0f} (absolute)"
        )
        if total > bound:
            failures.append(
                f"hard ceiling {label} mean {total:.0f} ns/step > {bound:.0f} "
                f"(override: {env})"
            )
    return lines, failures


def gate_hard_metrics(name, cur):
    """Absolute top-level metric ceilings for one profile (baseline-
    independent, like the hard phase ceilings). Returns (lines, failures);
    profiles with no configured ceilings record nothing."""
    lines, failures = [], []
    for metric, default_bound, env in HARD_METRIC_CEILINGS.get(name, []):
        bound = float(os.environ.get(env, default_bound))
        if metric not in cur:
            failures.append(
                f"hard ceiling {metric}: metric absent from current block (renamed or dropped?)"
            )
            continue
        val = float(cur.get(metric, 0.0))
        lines.append(
            f"hard ceiling {metric + ':':<28} {val:>10.3f}  ceil {bound:>10.3f} (absolute)"
        )
        if val > bound:
            failures.append(
                f"hard ceiling {metric} {val:.3f} > {bound:.3f} (override: {env})"
            )
    return lines, failures


def gate_gentry_mem(cur_doc):
    """Absolute memory-feasibility gate on the g-entry store probe."""
    mem = cur_doc.get("gentry_mem")
    if not mem:
        return ["gentry_mem: not recorded"], []
    bound = float(os.environ.get("FRUGAL_PERF_MAX_GENTRY_BYTES_PER_KEY", "32"))
    bpk = float(mem.get("bytes_per_key", 0.0))
    keys = int(mem.get("keys", 0))
    lines = [
        f"gentry_mem:          {bpk:.2f} bytes/key at {keys} keys  bound {bound:.1f} (absolute)"
    ]
    failures = []
    if bpk <= 0.0:
        failures.append(f"gentry_mem bytes_per_key {bpk} is not a positive measurement")
    elif bpk >= bound:
        failures.append(f"gentry_mem {bpk:.2f} bytes/key >= bound {bound:.1f}")
    return lines, failures


def main():
    baseline_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_engine.json"
    current_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_engine.ci.json"

    base_doc = load_doc(baseline_path)
    cur_doc = load_doc(current_path)
    base_profiles = profiles_of(base_doc, baseline_path)
    cur_profiles = profiles_of(cur_doc, current_path)

    all_lines, failures = [], []
    for name, cur_profile in cur_profiles.items():
        lines, fails = gate_profile(name, base_profiles.get(name), cur_profile)
        all_lines += lines
        failures += fails
    for name in base_profiles:
        if name not in cur_profiles:
            all_lines.append(f"=== profile {name} ===")
            all_lines.append("  baseline-only profile: current file did not measure it")
            failures.append(f"[{name}] profile present in baseline but missing from current")

    mem_lines, mem_fails = gate_gentry_mem(cur_doc)
    all_lines += mem_lines
    failures += mem_fails

    for line in all_lines:
        print(line)

    table_out = os.environ.get("FRUGAL_PERF_TABLE_OUT")
    if table_out:
        with open(table_out, "w") as f:
            f.write("\n".join(all_lines) + "\n")
        print(f"perf-gate: wrote delta table to {table_out}")

    if failures:
        for f in failures:
            print(f"perf-gate FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print("perf-gate: OK")


if __name__ == "__main__":
    main()
