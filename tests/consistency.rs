//! Cross-crate consistency tests: the executable form of the paper's §3.3
//! proof that P²F preserves synchronous training consistency.

use frugal::baselines::System;
use frugal::core::{train_serial, FrugalConfig, FrugalEngine, PqKind, PullToTarget};
use frugal::data::{KeyDistribution, SyntheticTrace};

const N_KEYS: u64 = 600;
const DIM: usize = 8;
const STEPS: u64 = 20;

fn trace(n_gpus: usize) -> SyntheticTrace {
    SyntheticTrace::new(N_KEYS, KeyDistribution::Zipf(0.9), 48, n_gpus, 77).unwrap()
}

fn frugal_cfg(n_gpus: usize) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, STEPS);
    cfg.flush_threads = 3;
    cfg.lookahead = 6;
    cfg
}

/// Every engine — serial, Frugal (both PQs), Frugal-Sync and Frugal-FIFO —
/// must produce *bit-identical* parameters on the same trace. The three
/// baselines train with the serial oracle itself, so their reported
/// losses must be its losses, bit for bit.
#[test]
fn all_engines_agree_bitwise() {
    let t = trace(2);
    let model = PullToTarget::new(DIM, 5);
    let reference = train_serial(&t, &model, STEPS, 0.1, 42);

    let mut stores: Vec<(String, Vec<Vec<f32>>)> = Vec::new();

    for pq in [PqKind::TwoLevel, PqKind::TreeHeap] {
        let mut cfg = frugal_cfg(2);
        cfg.pq = pq;
        let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
        engine.run(&t, &model);
        stores.push((
            format!("frugal-{pq:?}"),
            (0..N_KEYS).map(|k| engine.store().row_vec(k)).collect(),
        ));
    }
    {
        let engine = FrugalEngine::new(frugal_cfg(2).write_through(), N_KEYS, DIM);
        engine.run(&t, &model);
        stores.push((
            "frugal-sync".into(),
            (0..N_KEYS).map(|k| engine.store().row_vec(k)).collect(),
        ));
    }
    {
        // The arrival-order flush ablation: unselective priorities, but
        // still synchronously consistent.
        let engine = FrugalEngine::new(frugal_cfg(2).fifo(), N_KEYS, DIM);
        engine.run(&t, &model);
        stores.push((
            "frugal-fifo".into(),
            (0..N_KEYS).map(|k| engine.store().row_vec(k)).collect(),
        ));
    }
    for system in [System::PyTorch, System::HugeCtr, System::PyTorchUvm] {
        let mut cfg = frugal_cfg(2);
        cfg.cache_ratio = 0.1;
        let r = system.run(cfg, &t, &model);
        assert_eq!(
            (r.first_loss.to_bits(), r.final_loss.to_bits()),
            (
                reference.first_loss.to_bits(),
                reference.final_loss.to_bits()
            ),
            "baseline-{} diverged from serial",
            system.cli_name()
        );
    }

    for (name, rows) in &stores {
        for k in 0..N_KEYS {
            assert_eq!(
                rows[k as usize],
                reference.store.row_vec(k),
                "{name} diverged from serial at key {k}"
            );
        }
    }
}

/// The full-scale trainer cohort: 8 trainers (the paper's 8-GPU commodity
/// testbed) over both PQs and the FIFO ablation must stay bit-identical to
/// the serial oracle. This is the regime the compact g-entry store, the
/// pure-load PQ bound fast path, and the spin barrier were built for;
/// batch 48 divides evenly across 8 GPUs, so every trainer carries
/// micro-batches every step.
#[test]
fn eight_trainers_agree_with_serial_bitwise() {
    let t = trace(8);
    let model = PullToTarget::new(DIM, 5);
    let reference = train_serial(&t, &model, STEPS, 0.1, 42);
    let mut runs: Vec<(String, FrugalConfig)> = Vec::new();
    for pq in [PqKind::TwoLevel, PqKind::TreeHeap] {
        let mut cfg = frugal_cfg(8);
        cfg.pq = pq;
        runs.push((format!("frugal-{pq:?}-8gpu"), cfg));
    }
    runs.push(("frugal-fifo-8gpu".into(), frugal_cfg(8).fifo()));
    // Checked mode at 8 trainers: the invariant checker and the seqlock
    // race detector must also stay silent at full width.
    runs.push(("frugal-checked-8gpu".into(), frugal_cfg(8).checked()));
    // The double-buffered sample pipeline across lookahead depths: L = 1
    // (ring holds 3 slots, rewritten almost immediately), a mid depth, and
    // L > STEPS (every step's batch is published before step 0 finishes).
    // Publish/consume races or a slot rewritten before its blocking-rows
    // count would show up as a divergence here.
    for lookahead in [1u64, 3, STEPS + 5] {
        let mut cfg = frugal_cfg(8);
        cfg.lookahead = lookahead;
        runs.push((format!("frugal-8gpu-L{lookahead}"), cfg));
    }
    // Write-through at 8 trainers: the sharded (parallel) host apply path.
    runs.push(("frugal-sync-8gpu".into(), frugal_cfg(8).write_through()));
    // Every cache policy at full trainer width: policies only move copies,
    // never semantics, and the owner-cache update order is pinned by the
    // same per-owner update slots the reduce publishes.
    for policy in frugal::embed::CachePolicy::ALL {
        runs.push((
            format!("frugal-8gpu-{}", policy.label()),
            frugal_cfg(8).with_cache_policy(policy),
        ));
    }
    for (name, cfg) in runs {
        let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
        let report = engine.run(&t, &model);
        assert_eq!(report.violations, 0, "{name}: invariant (2) violated");
        assert_eq!(report.races, 0, "{name}: host-row data race detected");
        for k in 0..N_KEYS {
            assert_eq!(
                engine.store().row_vec(k),
                reference.store.row_vec(k),
                "{name} diverged from serial at key {k}"
            );
        }
    }
}

/// Checked mode observes zero invariant violations and zero seqlock races
/// across many flush threads and trainers.
#[test]
fn p2f_checked_mode_is_clean_under_stress() {
    let t = SyntheticTrace::new(400, KeyDistribution::Zipf(0.99), 64, 4, 9).unwrap();
    let model = PullToTarget::new(4, 3);
    let mut cfg = FrugalConfig::commodity(4, 30).checked();
    cfg.flush_threads = 6;
    cfg.lookahead = 3;
    let engine = FrugalEngine::new(cfg, 400, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.violations, 0, "invariant (2) violated");
    assert_eq!(report.races, 0, "host-row data race detected");
}

/// Failure injection: disabling the P²F wait condition must be *caught* by
/// the consistency checker — proving the checker works and that the wait
/// condition is load-bearing.
#[test]
fn skipping_wait_condition_breaks_consistency() {
    // Uniform keys over a space barely larger than the per-step footprint:
    // every step writes ~14k unique rows that the next step reads again, so
    // a single flusher cannot drain between steps and unsynchronized reads
    // must hit rows with pending updates.
    let t = SyntheticTrace::new(16_384, KeyDistribution::Uniform, 4_096, 4, 13).unwrap();
    let model = PullToTarget::new(16, 3);
    let mut cfg = FrugalConfig::commodity(4, 12).checked();
    cfg.flush_threads = 1;
    cfg.flush_batch = 8;
    cfg.flush_throttle_us = 500; // a starved flusher cannot hide the race
    cfg.skip_wait = true;
    cfg.lookahead = 4;
    let engine = FrugalEngine::new(cfg, 16_384, 16);
    let report = engine.run(&t, &model);
    assert!(
        report.violations > 0 || report.races > 0,
        "expected consistency violations once the wait condition is skipped \
         (got violations={}, races={})",
        report.violations,
        report.races
    );
}

/// The flushing pipeline drains completely: after a run, re-reading the
/// store equals the serial result even for keys only written early on
/// (deferred ∞-priority flushes must not be lost at shutdown).
#[test]
fn deferred_updates_are_never_lost() {
    // Uniform keys on a big space: most keys are written once and never
    // read again, living in the ∞ bucket until the final drain.
    let t = SyntheticTrace::new(5_000, KeyDistribution::Uniform, 64, 2, 21).unwrap();
    let model = PullToTarget::new(4, 1);
    let engine = FrugalEngine::new(frugal_cfg(2), 5_000, 4);
    engine.run(&t, &model);
    let serial = train_serial(&t, &model, STEPS, 0.1, 42);
    for k in 0..5_000 {
        assert_eq!(
            engine.store().row_vec(k),
            serial.store.row_vec(k),
            "key {k}"
        );
    }
}

/// Varying the number of flushing threads must not change the result.
#[test]
fn flush_thread_count_does_not_affect_parameters() {
    let t = trace(2);
    let model = PullToTarget::new(DIM, 5);
    let mut results = Vec::new();
    for threads in [1usize, 2, 6] {
        let mut cfg = frugal_cfg(2);
        cfg.flush_threads = threads;
        let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
        engine.run(&t, &model);
        results.push(
            (0..N_KEYS)
                .map(|k| engine.store().row_vec(k))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

/// The cache policy is a performance knob, never a semantics knob: every
/// eviction policy — including the Belady oracle — must leave the host
/// store bit-identical to the serial oracle. Caches only ever hold copies
/// that see the same per-key gradient sequence as the host rows, so which
/// keys happen to be resident cannot change the parameters.
#[test]
fn every_cache_policy_agrees_with_serial_bitwise() {
    use frugal::embed::CachePolicy;
    for n_gpus in [2usize, 4] {
        let t = trace(n_gpus);
        let model = PullToTarget::new(DIM, 5);
        let reference = train_serial(&t, &model, STEPS, 0.1, 42);
        for policy in CachePolicy::ALL {
            let cfg = frugal_cfg(n_gpus).with_cache_policy(policy);
            let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
            engine.run(&t, &model);
            for k in 0..N_KEYS {
                assert_eq!(
                    engine.store().row_vec(k),
                    reference.store.row_vec(k),
                    "{}-{n_gpus}gpu diverged from serial at key {k}",
                    policy.label()
                );
            }
        }
    }
}

/// Adagrad keeps per-row state on both the host path (flushing threads) and
/// the owner-cache path (the slot's state, seeded from the host's at fill
/// time); both see the same per-key gradient sequence through the same
/// kernel, so the concurrent engine must still match the serial reference
/// bitwise. The `OracleBelady` variant evicts and bypasses by next use, so
/// its fills seed slots that a static-hot cache would never admit.
#[test]
fn adagrad_matches_serial_reference() {
    use frugal::core::{train_serial_with, OptimizerKind};
    use frugal::embed::CachePolicy;
    let t = trace(2);
    let model = PullToTarget::new(DIM, 5);
    let serial = train_serial_with(&t, &model, STEPS, 0.5, 42, OptimizerKind::Adagrad);
    for policy in [CachePolicy::StaticHot, CachePolicy::OracleBelady] {
        let mut cfg = frugal_cfg(2).with_cache_policy(policy);
        cfg.optimizer = OptimizerKind::Adagrad;
        cfg.lr = 0.5;
        let engine = FrugalEngine::new(cfg, N_KEYS, DIM);
        let report = engine.run(&t, &model);
        eprintln!("{}: {} fills", policy.label(), report.cache_fills);
        for k in 0..N_KEYS {
            assert_eq!(
                engine.store().row_vec(k),
                serial.store.row_vec(k),
                "Adagrad/{} diverged at key {k}",
                policy.label()
            );
        }
    }
}
