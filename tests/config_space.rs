//! The engine's configuration space as one covering array: the executable
//! form of the paper's §3.3 claim that P²F keeps synchronous-training
//! consistency, with the coverage stated rather than hand-picked.
//!
//! A greedy generator builds a deterministic set of rows that holds every
//! pair of axis values [`FrugalConfig::validate`] accepts (t = 2) and every
//! triple of flush mode × cache policy × membership (t = 3), where the
//! protocols interact. Each row is a tiny run compared bit for bit with
//! the serial oracle (every host row and both loss values), and record for
//! record with the key-stream walk: every count each member made of every
//! step (unique keys, host reads and fills per stream; reduced rows and
//! blocking rows per member), so a cache residency decision that changes
//! no value still has to match. The walk's flushed-row count must also
//! equal the flushers'.
//!
//! Run with `-- --nocapture` to see the table; every line of it starts
//! with `config-space` and is the same on every run.

use frugal::core::{
    train_serial_with, walk_counts, FlushMode, FrugalConfig, FrugalEngine, MembershipPlan,
    OptimizerKind, PqKind, PullToTarget, System,
};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::embed::CachePolicy;
use frugal::telemetry::Telemetry;
use std::cmp::Reverse;
use std::collections::BTreeSet;

const N_KEYS: u64 = 600;
const DIM: usize = 8;
const STEPS: u64 = 12;
const BATCH_PER_GPU: usize = 48;

const FLUSH: usize = 0;
const PQ: usize = 1;
const POLICY: usize = 2;
const RATIO: usize = 3;
const OPTIMIZER: usize = 4;
const WIDTH: usize = 5;
const MEMBERSHIP: usize = 6;
const LOOKAHEAD: usize = 7;
const FLUSH_THREADS: usize = 8;
const FLUSH_BATCH: usize = 9;
const DISTRIBUTION: usize = 10;
const TELEMETRY: usize = 11;
const CHECKED: usize = 12;

/// Each axis's name and value labels, indexed by the constants above; a
/// row holds one value index per axis and [`config`] maps it to a run.
const AXES: [(&str, &[&str]); 13] = [
    ("flush", &["p2f", "fifo", "sync"]),
    ("pq", &["two-level", "tree-heap"]),
    ("policy", &["static-hot", "lru", "freq"]),
    ("ratio", &["tiny", "0.05", "1.0"]),
    ("optimizer", &["sgd", "adagrad"]),
    ("width", &["1", "2", "3", "4", "8"]),
    ("membership", &["static", "shrink", "shrink-regrow"]),
    ("lookahead", &["1", "3", ">steps"]),
    ("flush-threads", &["1", "2", "4"]),
    ("flush-batch", &["1", "7", "256"]),
    ("distribution", &["uniform", "zipf-0.9", "zipf-1.2"]),
    ("telemetry", &["off", "on"]),
    ("checked", &["off", "on"]),
];

/// Axes whose every triple of values is covered, not only every pair:
/// where the protocols interact, and the elastic engine at each width.
const TRIPLES: [[usize; 3]; 2] = [[FLUSH, POLICY, MEMBERSHIP], [FLUSH, WIDTH, MEMBERSHIP]];

/// Value pairs `validate` rejects: a one-trainer cohort has no member to
/// lose, so the shrink leaves it empty.
const REJECTED: [[(&str, &str); 2]; 2] = [
    [("width", "1"), ("membership", "shrink")],
    [("width", "1"), ("membership", "shrink-regrow")],
];

/// Partial rows the generator completes before anything else: shapes no
/// single pair pins down. The first is the full-width pipeline whose every
/// batch is published before step 0 ends. The other two carry survivors'
/// cached rows (and Adagrad state) through both transitions, the first of
/// them under P²F; under uniform keys the rows a transition moves away and
/// back are read in every epoch, so the last is a shape that a skipped
/// quiesce corrupts. In the fourth, a survivor runs two streams into an
/// LRU cache with room for more than one step's keys: which rows it keeps
/// then depends on the recency its synchronous apply's lookups leave.
const SEEDS: [&[(&str, &str)]; 4] = [
    &[("width", "8"), ("lookahead", ">steps"), ("checked", "on")],
    &[
        ("flush", "p2f"),
        ("width", "8"),
        ("membership", "shrink-regrow"),
        ("optimizer", "adagrad"),
        ("policy", "lru"),
        ("ratio", "1.0"),
        ("checked", "on"),
    ],
    &[
        ("width", "8"),
        ("membership", "shrink-regrow"),
        ("policy", "static-hot"),
        ("ratio", "1.0"),
        ("distribution", "uniform"),
    ],
    &[
        ("policy", "lru"),
        ("ratio", "0.05"),
        ("width", "3"),
        ("membership", "shrink"),
        ("distribution", "zipf-1.2"),
    ],
];

type Row = [usize; AXES.len()];
/// `(axis, value)` components: a tuple to cover, or a partly built row.
type Tuple = Vec<(usize, usize)>;

fn value(axis: &str, label: &str) -> (usize, usize) {
    let a = AXES.iter().position(|&(name, _)| name == axis).unwrap();
    let v = AXES[a].1.iter().position(|&l| l == label).unwrap();
    (a, v)
}

fn rejected(t: &[(usize, usize)]) -> bool {
    REJECTED
        .iter()
        .any(|pair| pair.iter().all(|&(a, v)| t.contains(&value(a, v))))
}

fn covers(row: &Row, t: &[(usize, usize)]) -> bool {
    t.iter().all(|&(a, v)| row[a] == v)
}

fn label(row: &Row) -> String {
    let cells: Vec<String> = AXES
        .iter()
        .zip(row)
        .map(|(&(name, labels), &v)| format!("{name}={}", labels[v]))
        .collect();
    cells.join(" ")
}

/// Every valid pair of axis values, then every triple over [`TRIPLES`].
fn required() -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for (i, (_, xs)) in AXES.iter().enumerate() {
        for (j, (_, ys)) in AXES.iter().enumerate().skip(i + 1) {
            for a in 0..xs.len() {
                for b in 0..ys.len() {
                    out.insert(vec![(i, a), (j, b)]);
                }
            }
        }
    }
    for [x, y, z] in TRIPLES {
        for a in 0..AXES[x].1.len() {
            for b in 0..AXES[y].1.len() {
                for c in 0..AXES[z].1.len() {
                    out.insert(vec![(x, a), (y, b), (z, c)]);
                }
            }
        }
    }
    out.retain(|t| !rejected(t));
    out
}

/// Greedy covering array: each row starts from a seed, or else from the
/// first uncovered tuple, and fixes the remaining axes in order, each to
/// the valid value that completes the most uncovered tuples (the lowest
/// index on ties). No randomness, so the array is the same on every run.
fn covering_array() -> Vec<Row> {
    let mut todo = required();
    let mut seeds = SEEDS
        .iter()
        .map(|s| s.iter().map(|&(a, v)| value(a, v)).collect::<Tuple>());
    let mut rows = Vec::new();
    while let Some(mut fixed) = seeds.next().or_else(|| todo.first().cloned()) {
        for (axis, (_, values)) in AXES.iter().enumerate() {
            if fixed.iter().any(|&(a, _)| a == axis) {
                continue;
            }
            let gain = |v: usize| {
                let mut f = fixed.clone();
                f.push((axis, v));
                let n = todo
                    .iter()
                    .filter(|t| t.contains(&(axis, v)) && t.iter().all(|c| f.contains(c)))
                    .count();
                (!rejected(&f), n, Reverse(v))
            };
            let best = (0..values.len()).max_by_key(|&v| gain(v)).unwrap();
            fixed.push((axis, best));
        }
        let mut row = [0; AXES.len()];
        for (a, v) in fixed {
            row[a] = v;
        }
        todo.retain(|t| !covers(&row, t));
        rows.push(row);
    }
    rows
}

fn config(row: &Row) -> FrugalConfig {
    let width = [1, 2, 3, 4, 8][row[WIDTH]];
    let mut cfg = FrugalConfig::commodity(width, STEPS);
    cfg.flush_mode = [FlushMode::P2f, FlushMode::Fifo, FlushMode::WriteThrough][row[FLUSH]];
    cfg.pq = [PqKind::TwoLevel, PqKind::TreeHeap][row[PQ]];
    cfg.cache_policy = CachePolicy::ALL[row[POLICY]];
    // "tiny" rounds up to one cached row per member.
    cfg.cache_ratio = [1e-6, 0.05, 1.0][row[RATIO]];
    cfg.optimizer = [OptimizerKind::Sgd, OptimizerKind::Adagrad][row[OPTIMIZER]];
    // Member `width / 2` leaves at step 4; under shrink-regrow it rejoins
    // at step 8. At width 2 the survivor trains both streams alone.
    let all: Vec<usize> = (0..width).collect();
    let without: Vec<usize> = (0..width).filter(|&g| g != width / 2).collect();
    let shrink = MembershipPlan::default().change(4, without);
    cfg.membership = match row[MEMBERSHIP] {
        0 => MembershipPlan::default(),
        1 => shrink,
        _ => shrink.change(8, all),
    };
    cfg.lookahead = [1, 3, STEPS + 5][row[LOOKAHEAD]];
    cfg.flush_threads = [1, 2, 4][row[FLUSH_THREADS]];
    cfg.flush_batch = [1, 7, 256][row[FLUSH_BATCH]];
    if row[TELEMETRY] == 1 {
        cfg.telemetry = Telemetry::new();
    }
    cfg.checked = row[CHECKED] == 1;
    cfg
}

/// Runs one row against the serial oracle and the walk; `Err` lists what
/// differed.
fn run(row: &Row) -> Result<(), String> {
    let cfg = config(row);
    cfg.validate().map_err(|e| format!("validate: {e}"))?;
    let distribution = [
        KeyDistribution::Uniform,
        KeyDistribution::Zipf(0.9),
        KeyDistribution::Zipf(1.2),
    ][row[DISTRIBUTION]];
    let trace = SyntheticTrace::new(N_KEYS, distribution, BATCH_PER_GPU, cfg.n_gpus(), 77).unwrap();
    let model = PullToTarget::new(DIM, 5);
    let serial = train_serial_with(&trace, &model, STEPS, cfg.lr, cfg.seed, cfg.optimizer);
    let engine = FrugalEngine::new(cfg.clone(), N_KEYS, DIM);
    let (r, counts) = engine.run_counted(&trace, &model);

    let mut wrong = Vec::new();
    if r.stats.len() != STEPS as usize {
        wrong.push(format!("{} of {STEPS} steps reported", r.stats.len()));
    }
    if r.violations != 0 {
        wrong.push(format!("{} invariant violations", r.violations));
    }
    if row[CHECKED] == 1 && r.races != 0 {
        wrong.push(format!("{} races", r.races));
    }
    let elastic = row[MEMBERSHIP] != 0;
    if (r.membership_transition_ns > 0) != elastic {
        wrong.push(format!("transition_ns {}", r.membership_transition_ns));
    }
    if AXES[RATIO].1[row[RATIO]] == "1.0" && r.hit_ratio <= 0.0 {
        wrong.push("no cache hits with the whole table cached".into());
    }
    if counts != walk_counts(&cfg, &trace) {
        wrong.push("count records differ from the walk's".into());
    }
    // The Frugal variant that runs the row's flush mode.
    let system = [System::Frugal, System::FrugalFifo, System::FrugalSync][row[FLUSH]];
    let modeled = system.price(cfg.clone(), &trace, &model);
    if modeled.flush_rows != r.flush_rows {
        wrong.push(format!(
            "walk prices {} flushed rows, the flushers applied {}",
            modeled.flush_rows, r.flush_rows
        ));
    }
    let losses = |first: f32, last: f32| (first.to_bits(), last.to_bits());
    if losses(r.first_loss, r.final_loss) != losses(serial.first_loss, serial.final_loss) {
        wrong.push("loss bits differ".into());
    }
    let diverged = (0..N_KEYS)
        .filter(|&k| engine.store().row_vec(k) != serial.store.row_vec(k))
        .count();
    if diverged > 0 {
        wrong.push(format!("{diverged} host rows differ"));
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join(", "))
    }
}

#[test]
fn every_covered_configuration_matches_the_serial_oracle() {
    let rows = covering_array();
    let required = required();
    let covered = |t: &Tuple| rows.iter().any(|row| covers(row, t));
    let (triples, pairs): (Vec<&Tuple>, Vec<&Tuple>) = required.iter().partition(|t| t.len() == 3);
    assert!(
        pairs.iter().all(|t| covered(t)),
        "a valid pair is uncovered"
    );
    assert!(triples.iter().all(|t| covered(t)), "a triple is uncovered");
    println!(
        "config-space: {} rows cover all {} valid pairs and all {} valid triples of flush × policy × membership and flush × width × membership",
        rows.len(),
        pairs.len(),
        triples.len()
    );
    for (i, row) in rows.iter().enumerate() {
        println!("config-space row {i:02}: {}", label(row));
    }

    // Every rejected combination is refused by `validate`, named, and
    // absent from the array.
    for pair in REJECTED {
        let t: Tuple = pair.iter().map(|&(a, v)| value(a, v)).collect();
        assert!(!covered(&t));
        let mut row = rows[0];
        for &(a, v) in &t {
            row[a] = v;
        }
        let err = config(&row).validate().unwrap_err();
        let names: Vec<String> = pair.iter().map(|(a, v)| format!("{a}={v}")).collect();
        println!("config-space rejected: {}: {err}", names.join(" × "));
    }
    let mut zero = config(&rows[0]);
    zero.cache_ratio = 0.0;
    println!(
        "config-space rejected: ratio=0: {}",
        zero.validate().unwrap_err()
    );

    let failures: Vec<String> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, row)| {
            run(row)
                .err()
                .map(|e| format!("row {i:02} ({}): {e}", label(row)))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} rows failed:\n{}",
        failures.len(),
        rows.len(),
        failures.join("\n")
    );
}
