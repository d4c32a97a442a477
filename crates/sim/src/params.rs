//! Physical simulation parameters.

use bgpsim_netsim::time::SimDuration;

/// Delays outside the BGP protocol itself, per the study's §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Link propagation delay (paper: 2 ms).
    pub link_delay: SimDuration,
    /// Lower bound of the per-message processing delay (paper: 0.1 s).
    pub proc_delay_lo: SimDuration,
    /// Upper bound of the per-message processing delay (paper: 0.5 s).
    pub proc_delay_hi: SimDuration,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            link_delay: SimDuration::from_millis(2),
            proc_delay_lo: SimDuration::from_millis(100),
            proc_delay_hi: SimDuration::from_millis(500),
        }
    }
}

impl SimParams {
    /// The paper's settings (same as `Default`).
    pub fn paper_default() -> Self {
        SimParams::default()
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `proc_delay_lo > proc_delay_hi`.
    pub fn validate(&self) {
        assert!(
            self.proc_delay_lo <= self.proc_delay_hi,
            "processing delay bounds out of order: {} > {}",
            self.proc_delay_lo,
            self.proc_delay_hi
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = SimParams::paper_default();
        assert_eq!(p.link_delay, SimDuration::from_millis(2));
        assert_eq!(p.proc_delay_lo, SimDuration::from_millis(100));
        assert_eq!(p.proc_delay_hi, SimDuration::from_millis(500));
        p.validate();
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn inverted_bounds_rejected() {
        SimParams {
            proc_delay_lo: SimDuration::from_secs(1),
            proc_delay_hi: SimDuration::from_millis(1),
            ..SimParams::default()
        }
        .validate();
    }
}
