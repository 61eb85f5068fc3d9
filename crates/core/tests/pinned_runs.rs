//! The baselines' observable results, pinned: the cache decisions (hit
//! ratio, fills), the modeled clock (every step's total) and the losses of
//! four small fixed-seed runs. A change to how a baseline walks its cache
//! or prices a step moves one of these numbers; a refactor must not.

use frugal_core::{FrugalConfig, PullToTarget, System, TrainReport};
use frugal_data::{KeyDistribution, SyntheticTrace};
use frugal_embed::CachePolicy;

const STEPS: u64 = 8;

/// What a run reports, reduced to exact integers.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    hit_ratio_bits: u64,
    cache_fills: u64,
    iter_totals_ns: [u64; STEPS as usize],
    first_loss_bits: u32,
    final_loss_bits: u32,
}

impl Pinned {
    fn of(report: &TrainReport) -> Self {
        let totals: Vec<u64> = report
            .stats
            .iters()
            .iter()
            .map(|it| it.total().as_nanos())
            .collect();
        Pinned {
            hit_ratio_bits: report.hit_ratio.to_bits(),
            cache_fills: report.cache_fills,
            iter_totals_ns: totals.try_into().expect("one breakdown per step"),
            first_loss_bits: report.first_loss.to_bits(),
            final_loss_bits: report.final_loss.to_bits(),
        }
    }
}

fn run(system: System, policy: CachePolicy) -> Pinned {
    let trace = SyntheticTrace::new(2_000, KeyDistribution::Zipf(0.9), 64, 2, 5).unwrap();
    let model = PullToTarget::new(8, 3);
    let mut cfg = FrugalConfig::commodity(2, STEPS);
    // 50 rows a cache: frequency-aware counts decay every 500 lookups, so
    // each lookup an owner cache serves, the apply-side ones included,
    // moves what the cache holds.
    cfg.cache_ratio = 0.05;
    cfg.cache_policy = policy;
    Pinned::of(&system.run(cfg, &trace, &model))
}

#[test]
fn baseline_runs_report_their_pinned_values() {
    // Every baseline trains the serial oracle's parameters, so all four
    // runs share their losses.
    let (first_loss_bits, final_loss_bits) = (1026214192, 1025909974);
    let cases = [
        (
            System::HugeCtr,
            CachePolicy::Lru,
            4593063186590764476,
            667,
            [
                9438337, 9437967, 9423962, 9427770, 9434361, 9419466, 9426564, 9434620,
            ],
        ),
        (
            System::HugeCtr,
            CachePolicy::FrequencyAware,
            4596803262042898649,
            182,
            [
                9438337, 9437601, 9423414, 9426676, 9433265, 9418188, 9425834, 9433160,
            ],
        ),
        (
            System::PyTorch,
            CachePolicy::StaticHot,
            0,
            0,
            [
                3196036, 3197218, 3188670, 3190670, 3194852, 3186488, 3190670, 3194670,
            ],
        ),
        (
            System::PyTorchUvm,
            CachePolicy::StaticHot,
            0,
            0,
            [
                9733380, 9854696, 9485748, 9487748, 9612064, 9363432, 9487748, 9491748,
            ],
        ),
    ];
    for (system, policy, hit_ratio_bits, cache_fills, iter_totals_ns) in cases {
        let expected = Pinned {
            hit_ratio_bits,
            cache_fills,
            iter_totals_ns,
            first_loss_bits,
            final_loss_bits,
        };
        assert_eq!(run(system, policy), expected, "{system:?} {policy:?}");
    }
}
