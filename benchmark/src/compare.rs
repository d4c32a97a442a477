//! The rule that decides whether two sets of runs agree.

use crate::catalog::Better;
use crate::stats::{median, spread};

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the reference's by more
    /// than the bound.
    Ok,
    /// It is worse by more than the bound.
    Worse,
    /// The run-to-run spread of either set is wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse the candidate's median is than the reference's, as a
/// share of the reference (negative when it is better).
pub fn worsening(reference: &[f64], candidate: &[f64], better: Better) -> f64 {
    let (r, c) = (median(reference), median(candidate));
    if r == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (c - r) / r.abs(),
        Better::Higher => (r - c) / r.abs(),
    }
}

/// Applies `bound` to one row. A spread wider than the bound leaves the
/// row unresolved, unless every candidate run reads better than every
/// reference run, which no spread can explain away. A set of one run
/// has no spread to show, so it can be cleared but never convicted.
pub fn judge(reference: &[f64], candidate: &[f64], better: Better, bound: f64) -> Verdict {
    let single = reference.len() < 2 || candidate.len() < 2;
    if single && worsening(reference, candidate, better) <= bound {
        return Verdict::Ok;
    }
    let wide = single || spread(reference).max(spread(candidate)) > bound;
    if wide {
        let all_better = match better {
            Better::Lower => max(candidate) < min(reference),
            Better::Higher => min(candidate) > max(reference),
        };
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(reference, candidate, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 100.5, 99.5, 100.2, 99.8];

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.04).collect();
        assert_eq!(judge(&STEADY, &slower, Better::Lower, 0.05), Verdict::Ok);
        let fewer: Vec<f64> = STEADY.iter().map(|v| v * 0.96).collect();
        assert_eq!(judge(&STEADY, &fewer, Better::Higher, 0.05), Verdict::Ok);
        assert_eq!(judge(&[7.0; 3], &[7.0; 3], Better::Lower, 0.0), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_worse_only_in_the_bad_direction() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.08).collect();
        assert_eq!(judge(&STEADY, &slower, Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(judge(&STEADY, &slower, Better::Higher, 0.05), Verdict::Ok);
        assert!((worsening(&STEADY, &slower, Better::Lower) - 0.08).abs() < 1e-9);
        assert!((worsening(&STEADY, &slower, Better::Higher) + 0.08).abs() < 1e-9);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 90.0];
        assert_eq!(
            judge(&STEADY, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &STEADY, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        let far_better = [50.0, 70.0, 40.0, 60.0, 45.0];
        assert_eq!(judge(&noisy, &far_better, Better::Lower, 0.05), Verdict::Ok);
    }

    #[test]
    fn one_run_can_be_cleared_but_not_convicted() {
        assert_eq!(judge(&[100.0], &[103.0], Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&[100.0], &[130.0], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(judge(&[100.0], &[60.0], Better::Lower, 0.05), Verdict::Ok);
    }
}
