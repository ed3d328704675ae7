//! Dataflow pipeline timing.
//!
//! Models an HLS dataflow region: a chain of stages, each with an
//! initiation interval (II) and a pipeline depth, connected by FIFOs.
//! [`PipelineTiming::simulate`] computes exact token-level timestamps
//! (classic pipeline recurrence), from which latency and steady-state
//! throughput follow. Two execution modes mirror the designs in the
//! paper:
//!
//! - [`ExecutionMode::Pipelined`] — tokens overlap; throughput is set
//!   by the slowest stage (the hybrid soft demapper);
//! - [`ExecutionMode::Iterative`] — one token occupies the whole chain
//!   (HLS without `#pragma HLS dataflow`); II = end-to-end depth (the
//!   paper's AE-inference and AE-training modules).

/// Timing descriptor of one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTiming {
    /// Initiation interval in cycles (≥1).
    pub ii: u64,
    /// Depth (input-to-output) in cycles (≥1).
    pub depth: u64,
}

/// Whether tokens overlap across the stage chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Stages overlap across tokens (dataflow).
    Pipelined,
    /// The next token starts only after the previous one leaves.
    Iterative,
}

/// A chain of stages with a clock.
#[derive(Clone, Debug)]
pub struct PipelineTiming {
    stages: Vec<StageTiming>,
    mode: ExecutionMode,
    clock_mhz: f64,
}

/// Result of a token-level timing simulation.
#[derive(Clone, Debug)]
pub struct TimingTrace {
    /// Completion cycle of each token.
    pub finish_cycles: Vec<u64>,
    /// First-token latency in cycles.
    pub latency_cycles: u64,
    /// Steady-state initiation interval in cycles.
    pub ii_cycles: u64,
}

impl PipelineTiming {
    /// Builds a chain.
    pub fn new(stages: Vec<StageTiming>, mode: ExecutionMode, clock_mhz: f64) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert!(clock_mhz > 0.0);
        for s in &stages {
            assert!(s.ii >= 1 && s.depth >= 1, "stage timing must be ≥1 cycle");
        }
        Self {
            stages,
            mode,
            clock_mhz,
        }
    }

    /// End-to-end depth in cycles.
    pub fn total_depth_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.depth).sum()
    }

    /// Steady-state II in cycles.
    pub fn ii_cycles(&self) -> u64 {
        match self.mode {
            ExecutionMode::Pipelined => self.stages.iter().map(|s| s.ii).max().unwrap_or(1),
            ExecutionMode::Iterative => self.total_depth_cycles(),
        }
    }

    /// First-token latency in seconds.
    pub(crate) fn latency_s(&self) -> f64 {
        self.total_depth_cycles() as f64 / (self.clock_mhz * 1e6)
    }

    /// Steady-state throughput in tokens per second.
    pub(crate) fn throughput_per_s(&self) -> f64 {
        self.clock_mhz * 1e6 / self.ii_cycles() as f64
    }

    /// Clock frequency in MHz.
    pub fn clock_mhz(&self) -> f64 {
        self.clock_mhz
    }

    /// Token-level simulation of `n_tokens` arrivals (token `k` is
    /// available at cycle 0 — source-saturated operation). Verifies the
    /// analytic formulas and exposes transient behaviour.
    pub fn simulate(&self, n_tokens: usize) -> TimingTrace {
        assert!(n_tokens >= 1);
        match self.mode {
            ExecutionMode::Pipelined => {
                // start(s, k) = max(finish(s−1, k), start(s, k−1) + II_s)
                let ns = self.stages.len();
                let mut prev_start = vec![0u64; ns];
                let mut finishes = Vec::with_capacity(n_tokens);
                for k in 0..n_tokens {
                    let mut upstream_finish = 0u64;
                    for (s, st) in self.stages.iter().enumerate() {
                        let start = if k == 0 {
                            upstream_finish
                        } else {
                            upstream_finish.max(prev_start[s] + st.ii)
                        };
                        prev_start[s] = start;
                        upstream_finish = start + st.depth;
                    }
                    finishes.push(upstream_finish);
                }
                let latency = finishes[0];
                let ii = if n_tokens >= 2 {
                    finishes[n_tokens - 1] - finishes[n_tokens - 2]
                } else {
                    self.ii_cycles()
                };
                TimingTrace {
                    finish_cycles: finishes,
                    latency_cycles: latency,
                    ii_cycles: ii,
                }
            }
            ExecutionMode::Iterative => {
                let depth = self.total_depth_cycles();
                let finishes: Vec<u64> = (1..=n_tokens as u64).map(|k| k * depth).collect();
                TimingTrace {
                    latency_cycles: depth,
                    ii_cycles: depth,
                    finish_cycles: finishes,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages() -> Vec<StageTiming> {
        vec![
            StageTiming { ii: 1, depth: 3 },
            StageTiming { ii: 2, depth: 4 },
            StageTiming { ii: 1, depth: 2 },
        ]
    }

    #[test]
    fn pipelined_latency_and_ii() {
        let p = PipelineTiming::new(stages(), ExecutionMode::Pipelined, 100.0);
        assert_eq!(p.total_depth_cycles(), 9);
        assert_eq!(p.ii_cycles(), 2, "slowest stage dominates");
        let trace = p.simulate(100);
        assert_eq!(trace.latency_cycles, 9);
        assert_eq!(trace.ii_cycles, 2, "simulation agrees with analysis");
        // Monotone completion.
        for w in trace.finish_cycles.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn iterative_ii_equals_depth() {
        let p = PipelineTiming::new(stages(), ExecutionMode::Iterative, 100.0);
        assert_eq!(p.ii_cycles(), 9);
        let trace = p.simulate(10);
        assert_eq!(trace.ii_cycles, 9);
        assert_eq!(trace.latency_cycles, 9);
        assert_eq!(trace.finish_cycles[9], 90);
    }

    #[test]
    fn seconds_conversions() {
        let p = PipelineTiming::new(
            vec![StageTiming { ii: 2, depth: 8 }],
            ExecutionMode::Pipelined,
            150.0,
        );
        // 8 cycles at 150 MHz = 53.33 ns (the paper's soft demapper).
        assert!((p.latency_s() - 53.33e-9).abs() < 0.05e-9);
        // II = 2 ⇒ 75 Msymbols/s.
        assert!((p.throughput_per_s() - 7.5e7).abs() < 1e3);
    }

    #[test]
    fn single_token_uses_analytic_ii() {
        let p = PipelineTiming::new(stages(), ExecutionMode::Pipelined, 100.0);
        let t = p.simulate(1);
        assert_eq!(t.ii_cycles, 2);
        assert_eq!(t.finish_cycles.len(), 1);
    }

    #[test]
    fn pipelined_beats_iterative_in_throughput() {
        let pi = PipelineTiming::new(stages(), ExecutionMode::Pipelined, 100.0);
        let it = PipelineTiming::new(stages(), ExecutionMode::Iterative, 100.0);
        assert!(pi.throughput_per_s() > it.throughput_per_s());
        // Same first-token latency.
        assert_eq!(pi.latency_s(), it.latency_s());
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_rejected() {
        let _ = PipelineTiming::new(vec![], ExecutionMode::Pipelined, 100.0);
    }
}
