use super::*;
use crate::config::{MembershipPlan, OptimizerKind};
use crate::model::PullToTarget;
use frugal_data::{KeyDistribution, SyntheticTrace};

fn small_cfg(n_gpus: usize, steps: u64) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, steps);
    cfg.flush_threads = 2;
    cfg.lookahead = 4;
    // Mean-normalized gradients: a higher rate keeps the convergence
    // tests fast while staying stable (lr * occurrences/batch < 2).
    cfg.lr = 2.0;
    cfg
}

fn trace(n_keys: u64, batch: usize, n_gpus: usize) -> SyntheticTrace {
    SyntheticTrace::new(n_keys, KeyDistribution::Zipf(0.9), batch, n_gpus, 3).unwrap()
}

#[test]
fn frugal_trains_and_reduces_loss() {
    let t = trace(500, 64, 2);
    let model = PullToTarget::new(8, 1);
    let engine = FrugalEngine::new(small_cfg(2, 30), 500, 8);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 30);
    assert!(
        report.final_loss < report.first_loss * 0.7,
        "loss {} -> {}",
        report.first_loss,
        report.final_loss
    );
    assert!(report.throughput() > 0.0);
    // The flush-path metrics must populate on a P2F run.
    assert!(report.flush_rows > 0, "P2F run must flush rows");
    assert!(report.mean_flush_apply_ns_row() > 0.0);
}

#[test]
fn fifo_trains_and_flushes_in_background() {
    let t = trace(500, 64, 2);
    let model = PullToTarget::new(8, 1);
    let engine = FrugalEngine::new(small_cfg(2, 30).fifo(), 500, 8);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 30);
    assert!(report.final_loss < report.first_loss * 0.7);
    // FIFO is proactive: updates reach the host via the flusher pool.
    assert!(report.flush_rows > 0, "FIFO run must flush rows");
}

#[test]
fn checked_run_has_no_violations_or_races() {
    let t = trace(300, 48, 2);
    let model = PullToTarget::new(4, 2);
    let engine = FrugalEngine::new(small_cfg(2, 25).checked(), 300, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.violations, 0, "P2F must uphold invariant (2)");
    assert_eq!(report.races, 0, "P2F must prevent host-row races");
}

#[test]
fn checked_fifo_run_has_no_races() {
    // FIFO registers no reads, so invariant (2) is trivially clean; the
    // seqlock race detector still covers the store and state table.
    let t = trace(300, 48, 2);
    let model = PullToTarget::new(4, 2);
    let engine = FrugalEngine::new(small_cfg(2, 25).fifo().checked(), 300, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.races, 0, "FIFO must prevent host-row races");
    assert_eq!(report.violations, 0);
}

#[test]
fn write_through_matches_p2f_parameters() {
    // Synchronous consistency: both flushing strategies must produce
    // bit-identical parameters.
    let t = trace(200, 32, 2);
    let model = PullToTarget::new(4, 5);
    let p2f = FrugalEngine::new(small_cfg(2, 20), 200, 4);
    p2f.run(&t, &model);
    let sync = FrugalEngine::new(small_cfg(2, 20).write_through(), 200, 4);
    sync.run(&t, &model);
    for key in 0..200 {
        assert_eq!(
            p2f.store().row_vec(key),
            sync.store().row_vec(key),
            "key {key} diverged"
        );
    }
}

#[test]
fn treeheap_pq_produces_same_parameters() {
    let t = trace(150, 16, 2);
    let model = PullToTarget::new(4, 9);
    let two = FrugalEngine::new(small_cfg(2, 15), 150, 4);
    two.run(&t, &model);
    let mut cfg = small_cfg(2, 15);
    cfg.pq = PqKind::TreeHeap;
    let heap = FrugalEngine::new(cfg, 150, 4);
    heap.run(&t, &model);
    for key in 0..150 {
        assert_eq!(two.store().row_vec(key), heap.store().row_vec(key));
    }
}

#[test]
fn three_gpu_partitions_agree_with_serial() {
    // 3 GPUs: 3 ∤ 64 shards, so the bounded-load rendezvous placement in
    // `ShardMap` leaves the members with unequal shard counts and the
    // greedy cap displaces some shards off their top-ranked member. All
    // five execution strategies must produce bit-identical parameters.
    let n_keys = 180u64;
    let t = trace(n_keys, 33, 3);
    let model = PullToTarget::new(4, 11);
    let p2f = FrugalEngine::new(small_cfg(3, 12), n_keys, 4);
    p2f.run(&t, &model);
    let mut heap_cfg = small_cfg(3, 12);
    heap_cfg.pq = PqKind::TreeHeap;
    let heap = FrugalEngine::new(heap_cfg, n_keys, 4);
    heap.run(&t, &model);
    let sync = FrugalEngine::new(small_cfg(3, 12).write_through(), n_keys, 4);
    sync.run(&t, &model);
    let fifo = FrugalEngine::new(small_cfg(3, 12).fifo(), n_keys, 4);
    fifo.run(&t, &model);
    let cfg = small_cfg(3, 12);
    let serial = crate::serial::train_serial_with(&t, &model, 12, cfg.lr, cfg.seed, cfg.optimizer);
    for key in 0..n_keys {
        let want = serial.store.row_vec(key);
        assert_eq!(p2f.store().row_vec(key), want, "p2f key {key}");
        assert_eq!(heap.store().row_vec(key), want, "treeheap key {key}");
        assert_eq!(sync.store().row_vec(key), want, "write-through key {key}");
        assert_eq!(fifo.store().row_vec(key), want, "fifo key {key}");
    }
}

#[test]
fn eight_gpu_partitions_agree_with_serial() {
    // 8 GPUs — the paper's commodity testbed width; 8 | 64 gives every
    // member exactly 8 shards under the bounded-load rendezvous placement.
    // Both PQs, FIFO, and write-through must stay bit-identical to the
    // serial oracle with every trainer carrying micro-batches (8 | 32).
    let n_keys = 200u64;
    let t = trace(n_keys, 32, 8);
    let model = PullToTarget::new(4, 11);
    let p2f = FrugalEngine::new(small_cfg(8, 12), n_keys, 4);
    p2f.run(&t, &model);
    let mut heap_cfg = small_cfg(8, 12);
    heap_cfg.pq = PqKind::TreeHeap;
    let heap = FrugalEngine::new(heap_cfg, n_keys, 4);
    heap.run(&t, &model);
    let sync = FrugalEngine::new(small_cfg(8, 12).write_through(), n_keys, 4);
    sync.run(&t, &model);
    let fifo = FrugalEngine::new(small_cfg(8, 12).fifo(), n_keys, 4);
    fifo.run(&t, &model);
    let cfg = small_cfg(8, 12);
    let serial = crate::serial::train_serial_with(&t, &model, 12, cfg.lr, cfg.seed, cfg.optimizer);
    for key in 0..n_keys {
        let want = serial.store.row_vec(key);
        assert_eq!(p2f.store().row_vec(key), want, "p2f key {key}");
        assert_eq!(heap.store().row_vec(key), want, "treeheap key {key}");
        assert_eq!(sync.store().row_vec(key), want, "write-through key {key}");
        assert_eq!(fifo.store().row_vec(key), want, "fifo key {key}");
    }
}

#[test]
fn adagrad_multi_flusher_partitions_agree_with_serial() {
    // The dense lock-free Adagrad state under multiple flushers: all
    // five execution strategies (P2F two-level, tree heap, write-through,
    // FIFO, serial oracle) must produce bit-identical parameters, exactly
    // as the SGD variant above.
    let n_keys = 180u64;
    let t = trace(n_keys, 33, 3);
    let model = PullToTarget::new(4, 13);
    let mut cfg = small_cfg(3, 12);
    cfg.optimizer = OptimizerKind::Adagrad;
    cfg.flush_threads = 3;
    let p2f = FrugalEngine::new(cfg.clone(), n_keys, 4);
    p2f.run(&t, &model);
    let mut heap_cfg = cfg.clone();
    heap_cfg.pq = PqKind::TreeHeap;
    let heap = FrugalEngine::new(heap_cfg, n_keys, 4);
    heap.run(&t, &model);
    let sync = FrugalEngine::new(cfg.clone().write_through(), n_keys, 4);
    sync.run(&t, &model);
    let fifo = FrugalEngine::new(cfg.clone().fifo(), n_keys, 4);
    fifo.run(&t, &model);
    let serial = crate::serial::train_serial_with(&t, &model, 12, cfg.lr, cfg.seed, cfg.optimizer);
    for key in 0..n_keys {
        let want = serial.store.row_vec(key);
        assert_eq!(p2f.store().row_vec(key), want, "p2f key {key}");
        assert_eq!(heap.store().row_vec(key), want, "treeheap key {key}");
        assert_eq!(sync.store().row_vec(key), want, "write-through key {key}");
        assert_eq!(fifo.store().row_vec(key), want, "fifo key {key}");
    }
}

#[test]
fn checked_adagrad_run_has_no_violations_or_races() {
    // Checked mode covers both the host store and the dense Adagrad
    // state table; a protocol-respecting run must trip neither.
    let t = trace(300, 48, 2);
    let model = PullToTarget::new(4, 2);
    let mut cfg = small_cfg(2, 25).checked();
    cfg.optimizer = OptimizerKind::Adagrad;
    let engine = FrugalEngine::new(cfg, 300, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.violations, 0, "P2F must uphold invariant (2)");
    assert_eq!(report.races, 0, "no store or state-table races");
    assert!(report.flush_rows > 0);
}

#[test]
fn single_gpu_run_works() {
    let t = trace(100, 16, 1);
    let model = PullToTarget::new(4, 3);
    let engine = FrugalEngine::new(small_cfg(1, 10), 100, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 10);
    assert_eq!(report.violations, 0);
}

#[test]
fn cache_gets_hits_on_skewed_keys() {
    let t = trace(1_000, 128, 2);
    let model = PullToTarget::new(4, 4);
    let mut cfg = small_cfg(2, 20);
    cfg.cache_ratio = 0.10;
    let engine = FrugalEngine::new(cfg, 1_000, 4);
    let report = engine.run(&t, &model);
    assert!(
        report.hit_ratio > 0.05,
        "expected hot-key hits, got {}",
        report.hit_ratio
    );
}

#[test]
fn parked_flushers_still_drain() {
    // A throttled, tiny run leaves flushers mostly idle: they must park
    // (parked_ns grows) yet still drain every deferred update by the
    // time `run` returns (the engine debug-asserts pending_keys == 0).
    let t = trace(120, 16, 2);
    let model = PullToTarget::new(4, 6);
    let telemetry = frugal_telemetry::Telemetry::new();
    let mut cfg = small_cfg(2, 8).with_telemetry(telemetry.clone());
    cfg.flush_throttle_us = 50;
    let engine = FrugalEngine::new(cfg, 120, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 8);
    let summary = report.telemetry.expect("telemetry on");
    let parked = summary
        .metrics
        .counters
        .iter()
        .find(|(name, _)| name == "flusher.parked_ns")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(parked > 0, "idle flushers should park, not spin");
    // And the run's parameters still match the serial oracle.
    let cfg2 = small_cfg(2, 8);
    let serial =
        crate::serial::train_serial_with(&t, &model, 8, cfg2.lr, cfg2.seed, cfg2.optimizer);
    for key in 0..120 {
        assert_eq!(engine.store().row_vec(key), serial.store.row_vec(key));
    }
}

#[test]
fn resolve_segments_splits_at_membership_change_points() {
    let cfg = small_cfg(4, 20).with_membership(
        MembershipPlan::default()
            .change(6, vec![0, 2, 3])
            .change(14, vec![0, 1, 2, 3]),
    );
    let segs = resolve_segments(&cfg);
    assert_eq!(
        segs,
        vec![
            Segment {
                start: 0,
                end: 6,
                members: vec![0, 1, 2, 3]
            },
            Segment {
                start: 6,
                end: 14,
                members: vec![0, 2, 3]
            },
            Segment {
                start: 14,
                end: 20,
                members: vec![0, 1, 2, 3]
            },
        ]
    );
    // A static plan resolves to one full-width segment.
    let one = resolve_segments(&small_cfg(4, 20));
    assert_eq!(one.len(), 1);
    assert_eq!((one[0].start, one[0].end), (0, 20));
    assert_eq!(one[0].members, vec![0, 1, 2, 3]);
}

#[test]
fn elastic_shrink_and_regrow_matches_serial_bitwise() {
    // 3 → 2 → 3: trainer 1 leaves at step 4 and rejoins at step 8. The
    // shrunk cohort still drives all three logical streams, so the
    // parameter trajectory must stay bit-identical to the serial oracle,
    // and the report must account for both quiesced transitions.
    let n_keys = 180u64;
    let t = trace(n_keys, 33, 3);
    let model = PullToTarget::new(4, 11);
    let cfg = small_cfg(3, 12).with_membership(MembershipPlan::kill_and_recover(1, 3, 4, 8));
    let engine = FrugalEngine::new(cfg.clone(), n_keys, 4);
    let report = engine.run(&t, &model);
    assert_eq!(report.stats.len(), 12);
    assert!(
        report.membership_transition_ns > 0,
        "two transitions must be timed"
    );
    let serial = crate::serial::train_serial_with(&t, &model, 12, cfg.lr, cfg.seed, cfg.optimizer);
    for key in 0..n_keys {
        assert_eq!(
            engine.store().row_vec(key),
            serial.store.row_vec(key),
            "key {key}"
        );
    }
}

#[test]
fn elastic_single_survivor_still_trains() {
    // Degenerate shrink: 2 → 1 → 2. One survivor owns every shard and
    // drives both logical streams alone; bit-equality must still hold.
    let n_keys = 150u64;
    let t = trace(n_keys, 32, 2);
    let model = PullToTarget::new(4, 9);
    let cfg = small_cfg(2, 10).with_membership(
        MembershipPlan::default()
            .change(3, vec![0])
            .change(7, vec![0, 1]),
    );
    let engine = FrugalEngine::new(cfg.clone(), n_keys, 4);
    let report = engine.run(&t, &model);
    assert!(report.membership_transition_ns > 0);
    let serial = crate::serial::train_serial_with(&t, &model, 10, cfg.lr, cfg.seed, cfg.optimizer);
    for key in 0..n_keys {
        assert_eq!(
            engine.store().row_vec(key),
            serial.store.row_vec(key),
            "key {key}"
        );
    }
}

#[test]
#[should_panic(expected = "GPU count mismatch")]
fn rejects_mismatched_gpu_count() {
    let t = trace(100, 16, 4);
    let model = PullToTarget::new(4, 3);
    let engine = FrugalEngine::new(small_cfg(2, 10), 100, 4);
    let _ = engine.run(&t, &model);
}

#[test]
#[should_panic(expected = "invalid FrugalConfig")]
fn rejects_invalid_config_at_construction() {
    let mut cfg = small_cfg(2, 10);
    cfg.flush_threads = 0;
    let _ = FrugalEngine::new(cfg, 100, 4);
}
