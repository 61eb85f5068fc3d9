//! The cache-policy ablation as a standalone CI artifact: policy × skew ×
//! ratio hit-ratio grid of the P²F engine's caches (as the key-stream walk
//! decides them), printed as the table EXPERIMENTS.md records and CI
//! archives.
//!
//! ```sh
//! cargo run --release --bin cache_ablation
//! ```
//!
//! Exits non-zero if the grid violates the ordering the policies are
//! designed around: the `oracle` column, Belady's MIN over the whole run,
//! bounds every policy in every cell, and on the skewed cells (Zipf ≥ 0.9)
//! frequency-aware admission must not lose to plain LRU (churn protection
//! is exactly what it buys on skewed traffic). Every cell is a pure
//! function of the seed and the grid, so the orderings are checked
//! exactly.

use frugal_bench::experiments::ablation_cache_policy;

/// Column order must match the table built by `ablation_cache_policy`.
const COL_STATIC_HOT: usize = 2;
const COL_LRU: usize = 3;
const COL_FREQ: usize = 4;
const COL_ORACLE: usize = 5;

fn parse_pct(cell: &str) -> f64 {
    cell.trim()
        .trim_end_matches('%')
        .parse()
        .expect("hit-ratio cell")
}

fn main() {
    let scale = frugal_bench::experiments::Scale::default();
    let tables = ablation_cache_policy(&scale);
    let mut failures = Vec::new();
    for t in &tables {
        println!("{t}");
        for row in 0..t.n_rows() {
            let dist = t.cell(row, 0).expect("dist cell");
            let hot = parse_pct(t.cell(row, COL_STATIC_HOT).expect("static-hot cell"));
            let lru = parse_pct(t.cell(row, COL_LRU).expect("lru cell"));
            let freq = parse_pct(t.cell(row, COL_FREQ).expect("freq cell"));
            let oracle = parse_pct(t.cell(row, COL_ORACLE).expect("oracle cell"));
            // Oracle is the upper bound everywhere; freq >= lru on the
            // skews its admission filter targets.
            if oracle < hot || oracle < lru || oracle < freq {
                failures.push(format!(
                    "{dist} row {row}: oracle {oracle:.1}% below a policy \
                     (static-hot {hot:.1}%, lru {lru:.1}%, freq {freq:.1}%)"
                ));
            }
            let skewed = dist.contains("0.9");
            if skewed && freq < lru {
                failures.push(format!(
                    "{dist} row {row}: freq {freq:.1}% lost to lru {lru:.1}% on a skewed trace"
                ));
            }
        }
    }
    if !failures.is_empty() {
        eprintln!("cache ablation ordering violations:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("cache ablation: policy ordering holds on all rows");
}
