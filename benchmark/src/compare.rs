//! `compare A.json B.json`: one row per (workload, end-to-end metric) of
//! two results documents, B judged against A.

use crate::jsonio::{field, field_f64, field_str};
use crate::metrics::Better;
use frugal_telemetry::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the run-to-run spread.
    Better,
    /// No worse than the bound allows.
    Within,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: the runs cannot say.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's median and spread (inter-quartile distance over median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn judge(better: Better, bound: f64, base: Side, new: Side) -> Verdict {
    let worsening = better.worsening(base.median, new.median);
    let spread = base.spread().max(new.spread());
    if worsening > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worsening > spread {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn side(metric: &Json) -> Result<Side, String> {
    Ok(Side {
        median: field_f64(metric, "median")?,
        q1: field_f64(metric, "q1")?,
        q3: field_f64(metric, "q3")?,
    })
}

fn failed_share(workload: &Json) -> Result<f64, String> {
    let attempted = field_f64(workload, "attempted")?;
    Ok(if attempted > 0.0 {
        field_f64(workload, "failed")? / attempted
    } else {
        1.0
    })
}

/// Prints the comparison and returns whether B is acceptable: no `worse`
/// row and no larger failed share on any workload.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = field(a, "workloads")?
        .as_object()
        .ok_or("\"workloads\" is not an object")?;
    let mut acceptable = true;
    println!(
        "{:<6} {:<22} {:>14} {:>14} {:>14} {:>14} {:>9}  verdict",
        "load", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
    );
    for (name, wa) in workloads {
        let wb = field(field(b, "workloads")?, name)?;
        let (fa, fb) = (failed_share(wa)?, failed_share(wb)?);
        if fb > fa {
            acceptable = false;
            println!("{name:<6} failed share rose from {fa:.3} to {fb:.3}");
        }
        let metrics = field(wa, "end_to_end")?
            .as_object()
            .ok_or("\"end_to_end\" is not an object")?;
        for (metric, ma) in metrics {
            let mb = field(field(wb, "end_to_end")?, metric)?;
            let better = match field_str(ma, "better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("{metric}: unknown direction {other:?}")),
            };
            let (sa, sb) = (side(ma)?, side(mb)?);
            let verdict = judge(better, field_f64(ma, "bound")?, sa, sb);
            acceptable &= verdict != Verdict::Worse;
            let range = |s: Side| format!("{:.4}..{:.4}", s.q1, s.q3);
            println!(
                "{name:<6} {metric:<22} {:>14.4} {:>14} {:>14.4} {:>14} {:>9.4}  {}",
                sa.median,
                range(sa),
                sb.median,
                range(sb),
                if sa.median != 0.0 {
                    sb.median / sa.median
                } else {
                    0.0
                },
                verdict.label()
            );
        }
        let (ea, eb) = (field(wa, "exact")?, field(wb, "exact")?);
        if ea != eb {
            println!("{name:<6} exact values differ (behaviour changed): A {ea:?} B {eb:?}");
        }
    }
    println!("(B/A is B's median over A's: the base of every ratio is A)");
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Side {
        Side {
            median: v,
            q1: v * 0.99,
            q3: v * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            judge(Higher, 0.10, flat(100.0), flat(101.0)),
            Verdict::Within
        );
        assert_eq!(
            judge(Higher, 0.10, flat(100.0), flat(95.0)),
            Verdict::Within
        );
        assert_eq!(judge(Higher, 0.10, flat(100.0), flat(89.0)), Verdict::Worse);
        assert_eq!(
            judge(Higher, 0.10, flat(100.0), flat(104.0)),
            Verdict::Better
        );
        assert_eq!(judge(Lower, 0.08, flat(100.0), flat(109.0)), Verdict::Worse);
        assert_eq!(judge(Lower, 0.08, flat(100.0), flat(90.0)), Verdict::Better);
        let noisy = Side {
            median: 100.0,
            q1: 90.0,
            q3: 110.0,
        };
        assert_eq!(judge(Higher, 0.10, noisy, flat(100.0)), Verdict::Unresolved);
        assert_eq!(judge(Higher, 0.10, noisy, flat(80.0)), Verdict::Worse);
    }

    #[test]
    fn compare_rejects_a_worse_median_and_a_larger_failed_share() {
        let doc = |keys_per_s: f64, failed: u32| {
            frugal_telemetry::json::parse(&format!(
                r#"{{"workloads":{{"zipf":{{"attempted":7,"failed":{failed},"exact":{{}},
                "end_to_end":{{"keys_per_s":{{"better":"higher","bound":0.1,
                "median":{keys_per_s},"q1":{keys_per_s},"q3":{keys_per_s}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&doc(100.0, 0), &doc(99.0, 0)), Ok(true));
        assert_eq!(compare(&doc(100.0, 0), &doc(80.0, 0)), Ok(false));
        assert_eq!(compare(&doc(100.0, 0), &doc(100.0, 1)), Ok(false));
        assert!(compare(
            &doc(100.0, 0),
            &frugal_telemetry::json::parse("{}").unwrap()
        )
        .is_err());
    }
}
