//! `frugal-bench` — prints the paper's evaluation artifacts as plain
//! stdout tables at [`Scale::default`], in the order named:
//!
//! ```sh
//! cargo run --release -p frugal-bench -- <artifact>... | all
//! ```
//!
//! Exits 1, naming every violating row, when a printed
//! `ablation_cache_policy` grid breaks the policy ordering
//! ([`cache_policy_violations`]), and 2 on an unknown artifact.

use frugal_bench::experiments::{
    cache_policy_grid, cache_policy_table, cache_policy_violations, resolve, Scale,
};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = resolve(&names).unwrap_or_else(|err| {
        eprintln!("frugal-bench: {err}");
        std::process::exit(2);
    });
    let scale = Scale::default();
    let mut violations = Vec::new();
    for (name, build) in artifacts {
        // The policy grid is printed and checked from one computation.
        let tables = if name == "ablation_cache_policy" {
            let grid = cache_policy_grid(&scale);
            violations.extend(cache_policy_violations(&grid));
            if violations.is_empty() {
                eprintln!("cache ablation: policy ordering holds on all rows");
            }
            vec![cache_policy_table(&scale, &grid)]
        } else {
            build(&scale)
        };
        for table in &tables {
            println!("{table}");
        }
    }
    if !violations.is_empty() {
        eprintln!("cache ablation ordering violations:");
        for violation in &violations {
            eprintln!("  {violation}");
        }
        std::process::exit(1);
    }
}
