//! # frugal-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Target (benches/)        | Paper artifact |
//! |--------------------------|----------------|
//! | `table1_gpu_specs`       | Table 1        |
//! | `table2_datasets`        | Table 2        |
//! | `fig3_motivation`        | Fig 3a/3b/3c   |
//! | `exp1_microbenchmark`    | Fig 8          |
//! | `exp2_p2f`               | Fig 9          |
//! | `exp3_uva`               | Fig 10         |
//! | `exp4_pq`                | Fig 11         |
//! | `exp5_breakdown`         | Fig 12         |
//! | `exp6_kg`                | Fig 13         |
//! | `exp7_rec`               | Fig 14         |
//! | `exp8_scalability`       | Fig 15         |
//! | `exp9_cost`              | Fig 16         |
//! | `exp10_flush_threads`    | Fig 17         |
//! | `exp11_models`           | Fig 18         |
//! | `pq_ops`                 | §3.4 micro-ops |
//!
//! Run them all with `cargo bench`; each prints its tables at
//! [`experiments::Scale::default`].

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
