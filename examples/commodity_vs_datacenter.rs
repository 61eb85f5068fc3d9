//! Reproduce the paper's headline economics (Exp #9): Frugal on commodity
//! RTX 3090s approaches the throughput of existing systems on datacenter
//! A30s — at a fraction of the hardware price.
//!
//! ```sh
//! cargo run --release --example commodity_vs_datacenter
//! ```

use frugal::baselines::System;
use frugal::core::{presets, FrugalConfig, PullToTarget};
use frugal::data::{KeyDistribution, SyntheticTrace};
use frugal::sim::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_gpus = 4;
    let steps = 10;
    let dim = 32;
    let trace = SyntheticTrace::new(500_000, KeyDistribution::Zipf(0.9), 1024, n_gpus, 1)?;
    let model = PullToTarget::new(dim, 7);

    // Existing system (HugeCTR-style) on datacenter A30s: P2P collectives,
    // full UVA — the best case for the old architecture.
    let dc = FrugalConfig::on(Topology::datacenter(n_gpus), steps);
    let dc_price = dc.cost.topology().gpu_price_usd();
    let dc_report = System::HugeCtr.run(dc, &trace, &model);

    // The same architecture moved to commodity 3090s: bounced collectives,
    // CPU-involved miss path.
    let commodity = FrugalConfig::commodity(n_gpus, steps);
    let cm_price = commodity.cost.topology().gpu_price_usd();
    let commodity_old_report = System::HugeCtr.run(commodity, &trace, &model);

    // Frugal on the same commodity hardware.
    let frugal_report = System::Frugal.run(presets::demo_commodity(n_gpus, steps), &trace, &model);

    println!("{n_gpus} GPUs, batch 1024/GPU, Zipf-0.9 over 500k keys\n");
    println!(
        "{:<28} {:>12} {:>10} {:>16}",
        "configuration", "samples/s", "price $", "samples/s per $"
    );
    let row = |name: &str, thr: f64, price: f64| {
        println!("{name:<28} {thr:>12.0} {price:>10.0} {:>16.1}", thr / price);
    };
    row("HugeCTR on 4x A30", dc_report.throughput(), dc_price);
    row(
        "HugeCTR on 4x RTX 3090",
        commodity_old_report.throughput(),
        cm_price,
    );
    row(
        "Frugal on 4x RTX 3090",
        frugal_report.throughput(),
        cm_price,
    );

    let thr_ratio = frugal_report.throughput() / dc_report.throughput();
    let cost_eff = (frugal_report.throughput() / cm_price) / (dc_report.throughput() / dc_price);
    println!(
        "\nFrugal reaches {:.0}% of datacenter throughput at {:.1}x better cost-efficiency",
        thr_ratio * 100.0,
        cost_eff
    );
    println!("(paper Exp #9: 89-97% of throughput, 4.0-4.3x cost-effectiveness)");
    Ok(())
}
