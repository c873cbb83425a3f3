//! Low-rank temporal structure for OD-flow rates.
//!
//! Lakhina et al. (*Structural Analysis of Network Traffic Flows*,
//! SIGMETRICS 2004) showed that the ensemble of OD-flow timeseries of a
//! backbone is dominated by a handful of shared temporal patterns
//! ("eigenflows"): strong diurnal cycles, a weekly rhythm, and noise. That
//! observation is the entire justification for the subspace method, so the
//! generator reproduces it directly: every OD flow's rate is a positive
//! mixture of a small shared basis, scaled by a gravity-model base rate.

use crate::distr::standard_normal;
use crate::mix64;
use entromine_net::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bins per day at the paper's 5-minute bin width.
pub const BINS_PER_DAY: usize = 288;
/// Bins per week.
pub const BINS_PER_WEEK: usize = 7 * BINS_PER_DAY;

/// The shared temporal basis: deterministic diurnal/weekly shapes.
///
/// `basis(j, bin)` returns the value of pattern `j` at a bin; patterns are
/// bounded in `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct TemporalBasis {
    phases: Vec<f64>,
}

impl TemporalBasis {
    /// Number of basis patterns (the effective rank of the ensemble).
    ///
    /// Kept small on purpose: entropy responds logarithmically to rate, so
    /// each rate pattern leaks quadratic harmonics into the entropy
    /// timeseries; rank 3 keeps linear + leaked structure within the
    /// paper's m = 10 normal subspace.
    pub const RANK: usize = 3;

    /// Builds the basis with seeded random phases.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0xE16E));
        let phases = (0..Self::RANK)
            .map(|_| rng.random::<f64>() * std::f64::consts::TAU)
            .collect();
        TemporalBasis { phases }
    }

    /// Value of pattern `j` at `bin`.
    ///
    /// Pattern 0 is the diurnal cycle, 1 its second harmonic, 2 the weekly
    /// cycle; all are smooth, as real eigenflows are.
    pub fn value(&self, j: usize, bin: usize) -> f64 {
        debug_assert!(j < Self::RANK);
        let day = bin as f64 / BINS_PER_DAY as f64 * std::f64::consts::TAU;
        let week = bin as f64 / BINS_PER_WEEK as f64 * std::f64::consts::TAU;
        match j {
            0 => (day + self.phases[0]).sin(),
            1 => (2.0 * day + self.phases[1]).sin(),
            2 => (week + self.phases[2]).sin(),
            _ => 0.0,
        }
    }
}

/// Per-OD-flow rate model: gravity base rates mixed with the shared basis.
#[derive(Debug, Clone)]
pub struct RateModel {
    basis: TemporalBasis,
    /// Base rate (mean sampled packets per bin) per OD flow.
    base: Vec<f64>,
    /// Mixing weights: `weights[flow][j]` scales basis pattern `j`.
    weights: Vec<[f64; TemporalBasis::RANK]>,
    /// Std of multiplicative per-bin noise.
    noise: f64,
}

impl RateModel {
    /// Builds rates for every OD pair of `topology`.
    ///
    /// * `mean_packets_per_bin` — network-average sampled packets per bin
    ///   per OD flow (the paper's Abilene average was 2068 pps unsampled =
    ///   6204 sampled packets per 5-minute bin at 1/100 sampling; the
    ///   dataset layer scales this down for tractability and documents it).
    /// * `noise` — relative per-bin noise (0.05 = 5%).
    pub fn new(topology: &Topology, seed: u64, mean_packets_per_bin: f64, noise: f64) -> Self {
        let p = topology.n_pops();
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x8A7E));
        // Gravity model with *lognormal* PoP masses: real OD-flow size
        // distributions span orders of magnitude (a few elephant flows
        // dominate the mean; the median flow is far smaller). This tail is
        // load-bearing for the paper's results — anomalies that are a
        // rounding error in an elephant flow reshape a mouse flow's
        // distributions completely, which is what makes split DDOS attacks
        // *easier* to detect across more flows (Figure 6).
        let masses: Vec<f64> = (0..p)
            .map(|_| (0.9 * standard_normal(&mut rng)).exp())
            .collect();
        let mass_total: f64 = masses.iter().sum();
        let n_flows = p * p;
        // Gravity shares sum to 1 over all OD pairs, so scaling by
        // n_flows * mean sets the network-wide average to `mean`; a floor
        // at 1% of the mean keeps every flow observable under sampling
        // (below that, 1/100 NetFlow sampling sees almost nothing — as in
        // the real archives), after which the ensemble is rescaled to
        // restore the target average.
        let mut base: Vec<f64> = Vec::with_capacity(n_flows);
        for o in 0..p {
            for d in 0..p {
                let gravity = masses[o] * masses[d] / (mass_total * mass_total);
                base.push(gravity * n_flows as f64 * mean_packets_per_bin);
            }
        }
        let floor = 0.02 * mean_packets_per_bin;
        for b in &mut base {
            *b = b.max(floor);
        }
        let avg: f64 = base.iter().sum::<f64>() / n_flows as f64;
        if avg > 0.0 {
            let rescale = mean_packets_per_bin / avg;
            for b in &mut base {
                *b = (*b * rescale).max(floor);
            }
        }
        let weights = (0..n_flows)
            .map(|_| {
                let mut w = [0.0; TemporalBasis::RANK];
                // Diurnal dominates; the harmonic and weekly patterns are
                // weaker. Amplitudes are calibrated so the entropy
                // timeseries' normal subspace captures ~85% of variance at
                // m = 10 on default configurations, matching the knee the
                // paper reports for real Abilene data (§4.1).
                w[0] = 0.25 + 0.15 * rng.random::<f64>();
                w[1] = 0.08 + 0.08 * rng.random::<f64>();
                w[2] = 0.08 + 0.08 * rng.random::<f64>();
                w
            })
            .collect();
        RateModel {
            basis: TemporalBasis::new(seed),
            base,
            weights,
            noise,
        }
    }

    /// Number of OD flows.
    pub fn n_flows(&self) -> usize {
        self.base.len()
    }

    /// Deterministic (noise-free) rate of `flow` at `bin`, in sampled
    /// packets per bin. Always nonnegative.
    pub fn mean_rate(&self, flow: usize, bin: usize) -> f64 {
        let w = &self.weights[flow];
        let mut modulation = 1.0;
        for (j, &wj) in w.iter().enumerate() {
            modulation += wj * self.basis.value(j, bin);
        }
        (self.base[flow] * modulation).max(0.0)
    }

    /// Rate with multiplicative noise drawn from the provided RNG.
    pub fn noisy_rate<R: Rng + ?Sized>(&self, flow: usize, bin: usize, rng: &mut R) -> f64 {
        let m = self.mean_rate(flow, bin);
        (m * (1.0 + self.noise * standard_normal(rng))).max(0.0)
    }

    /// The base (time-average) rate of a flow.
    pub fn base_rate(&self, flow: usize) -> f64 {
        self.base[flow]
    }

    /// Time-of-day weight in `[0, 1]` shared network-wide: 1 at the
    /// diurnal peak, 0 in the trough. Drives the day/night service-mix
    /// interpolation of the baseline generator.
    pub fn day_weight(&self, bin: usize) -> f64 {
        0.5 + 0.5 * self.basis.value(0, bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::Topology;

    #[test]
    fn basis_is_bounded_and_smooth() {
        let b = TemporalBasis::new(1);
        for j in 0..TemporalBasis::RANK {
            let mut prev = b.value(j, 0);
            for bin in 1..BINS_PER_WEEK {
                let v = b.value(j, bin);
                assert!((-1.0..=1.0).contains(&v), "pattern {j} out of range");
                assert!(
                    (v - prev).abs() < 0.2,
                    "pattern {j} jumps at bin {bin}: {prev} -> {v}"
                );
                prev = v;
            }
        }
    }

    #[test]
    fn diurnal_pattern_has_daily_period() {
        let b = TemporalBasis::new(2);
        for bin in 0..BINS_PER_DAY {
            let a = b.value(0, bin);
            let c = b.value(0, bin + BINS_PER_DAY);
            assert!((a - c).abs() < 1e-9, "not periodic at {bin}");
        }
    }

    #[test]
    fn mean_rate_nonnegative_and_scaled() {
        let topo = Topology::abilene();
        let m = RateModel::new(&topo, 7, 600.0, 0.05);
        assert_eq!(m.n_flows(), 121);
        let avg = m.base.iter().sum::<f64>() / m.base.len() as f64;
        // The small-flow floor nudges the rescaled average slightly.
        assert!(
            (avg - 600.0).abs() / 600.0 < 0.05,
            "average base rate {avg} too far from 600"
        );
        for flow in 0..m.n_flows() {
            for bin in (0..BINS_PER_WEEK).step_by(37) {
                assert!(m.mean_rate(flow, bin) >= 0.0);
            }
        }
    }

    #[test]
    fn rates_vary_over_the_day() {
        let topo = Topology::abilene();
        let m = RateModel::new(&topo, 8, 600.0, 0.0);
        let flow = 13;
        let rates: Vec<f64> = (0..BINS_PER_DAY).map(|b| m.mean_rate(flow, b)).collect();
        let max = rates.iter().cloned().fold(f64::MIN, f64::max);
        let min = rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min.max(1e-9) > 1.2,
            "no diurnal variation: {min}..{max}"
        );
    }

    #[test]
    fn flows_are_heterogeneous() {
        let topo = Topology::abilene();
        let m = RateModel::new(&topo, 9, 600.0, 0.0);
        let b0 = m.base_rate(0);
        let distinct = (1..m.n_flows()).any(|f| (m.base_rate(f) - b0).abs() > 1.0);
        assert!(distinct, "all flows identical");
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Topology::abilene();
        let a = RateModel::new(&topo, 10, 600.0, 0.05);
        let b = RateModel::new(&topo, 10, 600.0, 0.05);
        for flow in [0, 17, 99] {
            for bin in [0, 100, 2000] {
                assert_eq!(a.mean_rate(flow, bin), b.mean_rate(flow, bin));
            }
        }
    }

    #[test]
    fn noisy_rate_centers_on_mean() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let topo = Topology::line(3);
        let m = RateModel::new(&topo, 11, 500.0, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean_rate = m.mean_rate(4, 10);
        let avg: f64 = (0..n).map(|_| m.noisy_rate(4, 10, &mut rng)).sum::<f64>() / n as f64;
        assert!(
            (avg - mean_rate).abs() / mean_rate.max(1e-9) < 0.02,
            "avg {avg} vs mean {mean_rate}"
        );
    }
}
