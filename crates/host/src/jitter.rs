//! Per-VM AR(1) "luck" processes.
//!
//! On real shared hardware, VMs competing for a saturated device do not
//! suffer equally: queueing is bursty, and whichever VM's requests land
//! behind an antagonist burst waits disproportionately. The effect persists
//! over seconds (a request stream stuck behind a deep queue stays stuck),
//! which is what makes the paper's *across-VM standard deviation* a usable
//! contention signal at 5-second sampling.
//!
//! We model each VM's luck as a stationary AR(1) process
//! `x ← a·x + √(1−a²)·z`, `z ∼ N(0,1)`, with unit stationary variance and a
//! correlation time of a few seconds. The multiplicative factor applied to
//! that VM's queueing delay is `exp(amp(ρ) · x)`, where the amplitude
//! `amp(ρ)` is ≈0 below a utilization onset and grows smoothly to the
//! configured maximum at saturation — so deviation across VMs stays tiny when
//! the application runs alone and blows up under contention.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A stationary AR(1) process with unit variance.
#[derive(Debug, Clone, PartialEq)]
pub struct Ar1 {
    a: f64,
    noise_scale: f64,
    state: f64,
}

impl Ar1 {
    /// Creates a process whose autocorrelation decays with time constant
    /// `tau_secs` when stepped every `dt_secs`. Panics unless both are
    /// positive.
    pub fn with_time_constant(tau_secs: f64, dt_secs: f64) -> Self {
        assert!(tau_secs > 0.0 && dt_secs > 0.0, "time constants must be positive");
        let a = (-dt_secs / tau_secs).exp();
        Ar1 { a, noise_scale: (1.0 - a * a).sqrt(), state: 0.0 }
    }

    /// Advances one step and returns the new state.
    pub fn step(&mut self, rng: &mut ChaCha8Rng) -> f64 {
        let z = gaussian(rng);
        self.state = self.a * self.state + self.noise_scale * z;
        self.state
    }

    /// Current state without advancing.
    pub fn state(&self) -> f64 {
        self.state
    }
}

/// Standard normal via Box–Muller (avoids a rand_distr dependency).
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    // u1 in (0, 1] so ln is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Smooth jitter amplitude ramp: a small `floor` whenever the resource is
/// in use at all (real VMs never behave identically), rising with a
/// smoothstep from `onset` to `max_amp` at utilization 1. Utilization above
/// 1 (offered overload) saturates at `max_amp`.
pub fn amplitude(utilization: f64, onset: f64, max_amp: f64, floor: f64) -> f64 {
    if utilization <= 0.02 {
        return 0.0;
    }
    if utilization <= onset {
        return floor.min(max_amp);
    }
    let t = ((utilization - onset) / (1.0 - onset)).clamp(0.0, 1.0);
    let s = t * t * (3.0 - 2.0 * t); // smoothstep
    (floor + (max_amp - floor) * s).min(max_amp)
}

/// The multiplicative luck factor for one VM: `exp(amp · x)`. With zero
/// amplitude and a finite state the product is ±0 and `exp` of it exactly
/// 1, so that case (every VM of an idle resource) skips the `exp` call.
pub fn luck_multiplier(ar1_state: f64, amp: f64) -> f64 {
    if amp == 0.0 && ar1_state.is_finite() {
        return 1.0;
    }
    (amp * ar1_state).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfcloud_sim::RngFactory;

    #[test]
    fn ar1_is_stationary_unit_variance() {
        let mut rng = RngFactory::new(11).stream("ar1-test");
        let mut p = Ar1::with_time_constant(5.0, 0.1);
        // Burn in, then measure.
        for _ in 0..1_000 {
            p.step(&mut rng);
        }
        let n = 50_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = p.step(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn ar1_is_temporally_correlated() {
        let mut rng = RngFactory::new(12).stream("ar1-corr");
        let mut p = Ar1::with_time_constant(5.0, 0.1);
        for _ in 0..100 {
            p.step(&mut rng);
        }
        // Lag-1 autocorrelation should be close to a = exp(-0.02) ≈ 0.98.
        let n = 20_000;
        let mut prev = p.state();
        let (mut sxy, mut sxx) = (0.0, 0.0);
        for _ in 0..n {
            let x = p.step(&mut rng);
            sxy += prev * x;
            sxx += prev * prev;
            prev = x;
        }
        let rho = sxy / sxx;
        assert!(rho > 0.9, "lag-1 autocorrelation {rho}");
    }

    #[test]
    fn amplitude_is_floor_below_onset() {
        assert_eq!(amplitude(0.0, 0.5, 1.0, 0.1), 0.0, "idle resource has no jitter");
        assert_eq!(amplitude(0.5, 0.5, 1.0, 0.1), 0.1);
        assert_eq!(amplitude(0.49, 0.5, 1.0, 0.1), 0.1);
        assert_eq!(amplitude(0.3, 0.5, 1.0, 0.0), 0.0, "zero floor behaves as before");
    }

    #[test]
    fn amplitude_saturates_at_max() {
        assert!((amplitude(1.0, 0.5, 0.8, 0.1) - 0.8).abs() < 1e-12);
        assert!((amplitude(3.0, 0.5, 0.8, 0.1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn amplitude_is_monotone_above_idle() {
        let mut last = 0.0;
        for i in 1..=20 {
            let u = 0.05 + i as f64 / 20.0 * 1.45;
            let a = amplitude(u, 0.4, 1.0, 0.1);
            assert!(a >= last, "amp({u}) = {a} < {last}");
            last = a;
        }
    }

    #[test]
    fn luck_multiplier_is_one_without_amplitude() {
        assert_eq!(luck_multiplier(2.5, 0.0), 1.0);
        assert!((luck_multiplier(1.0, 0.5) - (0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn zero_amplitude_shortcut_is_bit_exact() {
        let subnormal = f64::MIN_POSITIVE / 8.0;
        let states =
            [0.0, -0.0, subnormal, -subnormal, 1e-300, 2.5, -3.7, 1e300, f64::MAX, f64::MIN];
        for x in states {
            for amp in [0.0, -0.0] {
                let full = (amp * x).exp();
                assert_eq!(luck_multiplier(x, amp).to_bits(), full.to_bits(), "x={x:e} amp={amp}");
            }
        }
        // Non-finite states are not shortcut: 0 · ∞ is NaN, as before.
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(luck_multiplier(x, 0.0).is_nan());
        }
    }

    #[test]
    fn identical_streams_replay_identically() {
        let f = RngFactory::new(99);
        let run = || {
            let mut rng = f.stream("replay");
            let mut p = Ar1::with_time_constant(3.0, 0.1);
            (0..64).map(|_| p.step(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
