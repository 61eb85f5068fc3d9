//! Ready-made configurations and graceful engine construction for
//! examples, benchmarks, and demos.
//!
//! Every example used to repeat the same three lines — build a commodity
//! config, scale the flusher pool down to the demo's size, construct the
//! engine (which panics on a bad config). These helpers centralize that:
//! [`demo_commodity`] is the laptop-friendly paper setup, and
//! [`build_engine`] validates before constructing so binaries report bad
//! arguments as an error instead of a panic.

use crate::config::{ConfigError, FrugalConfig};
use crate::engine::FrugalEngine;

/// The paper's commodity setup (§4.1) scaled for demo runs: one flushing
/// thread per simulated GPU (the full 8-thread pool of the paper's 26-core
/// server oversubscribes the few cores a laptop-scale run has) and the
/// mean-normalized demo learning rate.
pub fn demo_commodity(n_gpus: usize, steps: u64) -> FrugalConfig {
    let mut cfg = FrugalConfig::commodity(n_gpus, steps);
    cfg.flush_threads = n_gpus.max(1);
    cfg
}

/// Validates `cfg` and constructs the engine, turning the construction-time
/// panic of [`FrugalEngine::new`] into an error binaries can print.
pub fn build_engine(
    cfg: FrugalConfig,
    n_keys: u64,
    dim: usize,
) -> Result<FrugalEngine, ConfigError> {
    cfg.validate()?;
    Ok(FrugalEngine::new(cfg, n_keys, dim))
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

    #[test]
    fn build_engine_rejects_invalid_configs_gracefully() {
        let mut cfg = demo_commodity(2, 5);
        cfg.cache_ratio = 0.0;
        match build_engine(cfg, 100, 4) {
            Err(ConfigError::CacheRatio(r)) => assert_eq!(r, 0.0),
            other => panic!("expected CacheRatio error, got {other:?}"),
        }
        let cfg = demo_commodity(2, 5);
        assert!(build_engine(cfg, 100, 4).is_ok());
    }
}
