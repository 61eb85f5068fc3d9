//! Ready-made configurations for examples, benchmarks, and demos:
//! [`demo_commodity`] is the laptop-friendly paper setup.

use crate::config::FrugalConfig;

/// The paper's commodity setup (§4.1) scaled for demo runs: one flushing
/// thread per simulated GPU (the full 8-thread pool of the paper's 26-core
/// server oversubscribes the few cores a laptop-scale run has) and the
/// mean-normalized demo learning rate.
pub fn demo_commodity(n_gpus: usize, steps: u64) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, steps);
    cfg.flush_threads = n_gpus.max(1);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_commodity_scales_flushers_to_gpus() {
        let cfg = demo_commodity(4, 10);
        assert_eq!(cfg.flush_threads, 4);
        assert_eq!(cfg.n_gpus(), 4);
        assert_eq!(cfg.steps, 10);
        assert_eq!(cfg.validate(), Ok(()));
    }
}
