//! The comparator systems' behaviour. Each trains the serial oracle's
//! parameters ([`System::run`](crate::System::run)), since all of them are
//! synchronous (§4.1), and is priced by the key-stream walk
//! ([`System::price`](crate::System::price)).

#[cfg(test)]
mod tests {
    use crate::System;
    use frugal_core::{train_serial, FrugalConfig, OptimizerKind, PullToTarget};
    use frugal_data::{KeyDistribution, SyntheticTrace};
    use frugal_sim::{Nanos, Topology};

    fn trace(n_keys: u64, batch: usize, n: usize) -> SyntheticTrace {
        SyntheticTrace::new(n_keys, KeyDistribution::Zipf(0.9), batch, n, 3).unwrap()
    }

    #[test]
    fn all_baselines_match_serial_reference() {
        let t = trace(300, 32, 2);
        let model = PullToTarget::new(4, 1);
        let serial = train_serial(&t, &model, 15, 0.1, 42);
        for system in [System::PyTorch, System::HugeCtr, System::PyTorchUvm] {
            let mut cfg = FrugalConfig::commodity(2, 15);
            cfg.cache_ratio = 0.1;
            let r = system.run(cfg, &t, &model);
            assert_eq!(
                (r.first_loss.to_bits(), r.final_loss.to_bits()),
                (serial.first_loss.to_bits(), serial.final_loss.to_bits()),
                "{system:?} diverged from the serial reference"
            );
        }
    }

    #[test]
    fn baselines_converge() {
        let t = trace(200, 32, 2);
        let model = PullToTarget::new(4, 2);
        // 60 steps: enough for a 30% loss drop on any reasonable PRNG
        // stream (the vendored rand shim is not bit-compatible with
        // upstream StdRng, so the exact trace differs from the original).
        let cfg = FrugalConfig::commodity(2, 60);
        let r = System::PyTorch.run(cfg, &t, &model);
        assert!(
            r.final_loss < r.first_loss * 0.7,
            "first {} final {}",
            r.first_loss,
            r.final_loss
        );
    }

    #[test]
    fn cached_baseline_gets_hits() {
        let t = trace(1_000, 128, 2);
        let model = PullToTarget::new(4, 2);
        let mut cfg = FrugalConfig::commodity(2, 20);
        cfg.cache_ratio = 0.1;
        let r = System::HugeCtr.run(cfg, &t, &model);
        assert!(r.hit_ratio > 0.05, "hit ratio {}", r.hit_ratio);
    }

    #[test]
    fn uvm_is_dramatically_slower() {
        // Exp #1: PyTorch-UVM is "two orders of magnitude slower".
        let t = trace(100_000, 1024, 2);
        let model = PullToTarget::new(4, 2);
        let cfg = FrugalConfig::commodity(2, 3);
        let tb = System::PyTorch.run(cfg.clone(), &t, &model).throughput();
        let tu = System::PyTorchUvm.run(cfg, &t, &model).throughput();
        assert!(tb / tu > 20.0, "base {tb} vs uvm {tu}");
    }

    #[test]
    fn hugectr_slower_on_commodity_than_datacenter() {
        // Fig 3a: up to 37% throughput drop on commodity GPUs.
        let model = PullToTarget::new(4, 2);
        let t = trace(10_000, 512, 4);
        let commodity = FrugalConfig::commodity(4, 5);
        let datacenter = FrugalConfig::on(Topology::datacenter(4), 5);
        let tc = System::HugeCtr.run(commodity, &t, &model).throughput();
        let td = System::HugeCtr.run(datacenter, &t, &model).throughput();
        assert!(
            tc < td,
            "commodity {tc} should be slower than datacenter {td}"
        );
        let drop = 1.0 - tc / td;
        assert!(drop > 0.1, "drop {drop} too small");
    }

    #[test]
    fn stall_is_zero_for_baselines() {
        let t = trace(100, 16, 2);
        let model = PullToTarget::new(4, 2);
        let cfg = FrugalConfig::commodity(2, 5);
        let r = System::HugeCtr.run(cfg, &t, &model);
        assert_eq!(r.mean_stall(), Nanos::ZERO);
        assert_eq!(r.mean_gentry_update, Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "SGD only")]
    fn refuses_an_adagrad_config() {
        let mut cfg = FrugalConfig::commodity(2, 5);
        cfg.optimizer = OptimizerKind::Adagrad;
        System::PyTorch.run(cfg, &trace(100, 16, 2), &PullToTarget::new(4, 2));
    }

    #[test]
    #[should_panic(expected = "static cohort")]
    fn refuses_an_elastic_plan() {
        let mut cfg = FrugalConfig::commodity(2, 5);
        cfg.membership = frugal_core::MembershipPlan::default()
            .change(2, vec![0])
            .change(4, vec![0, 1]);
        System::HugeCtr.run(cfg, &trace(100, 16, 2), &PullToTarget::new(4, 2));
    }
}
