//! Streaming quantile estimation (the P² algorithm, Jain & Chlamtac 1985).
//!
//! [`P2Quantile`] estimates a single quantile of a stream in O(1) memory by
//! maintaining five markers whose heights converge to the quantile via
//! piecewise-parabolic interpolation. Test-only: it is the independent
//! reference the exact tail histograms in [`crate::metrics`] are checked
//! against, not a production tail source. The gate is this file's inner
//! attribute, not one on the `mod` line, so detlint's envelope inference
//! (which skips `#[cfg(test)] mod x;`) keeps linting it.

#![cfg(test)]

/// Streaming estimator for one quantile `q` (e.g. `0.99`).
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated values).
    heights: [f64; 5],
    /// Marker positions (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Samples seen so far.
    count: u64,
    /// Initial samples buffered until five have arrived.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Create an estimator for quantile `q ∈ (0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Feed one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                for (h, &v) in self.heights.iter_mut().zip(&self.initial) {
                    *h = v;
                }
            }
            return;
        }

        // Locate the cell containing x; adjust extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + s / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + s) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - s) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate (exact for < 5 samples; `None` when empty).
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            // Exact small-sample quantile (nearest-rank).
            let mut v = self.initial.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let rank = ((self.q * v.len() as f64).ceil() as usize).clamp(1, v.len());
            return Some(v[rank - 1]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn empty_has_no_estimate() {
        assert_eq!(P2Quantile::new(0.5).estimate(), None);
    }

    #[test]
    fn small_samples_exact() {
        let mut p = P2Quantile::new(0.5);
        p.push(3.0);
        assert_eq!(p.estimate(), Some(3.0));
        p.push(1.0);
        p.push(2.0);
        assert_eq!(p.estimate(), Some(2.0), "median of {{1,2,3}}");
    }

    #[test]
    fn median_of_uniform_converges() {
        let mut p = P2Quantile::new(0.5);
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..50_000 {
            p.push(rng.next_f64());
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p99_of_uniform_converges() {
        let mut p = P2Quantile::new(0.99);
        let mut rng = Xoshiro256StarStar::seed_from_u64(43);
        for _ in 0..100_000 {
            p.push(rng.next_f64());
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.99).abs() < 0.01, "p99 estimate {est}");
    }

    #[test]
    fn p90_of_exponential_converges() {
        // p90 of Exp(mean=1) is ln(10) ≈ 2.3026.
        let mut p = P2Quantile::new(0.9);
        let mut rng = Xoshiro256StarStar::seed_from_u64(44);
        for _ in 0..200_000 {
            p.push(rng.next_exponential(1.0));
        }
        let est = p.estimate().unwrap();
        assert!((est - 10f64.ln()).abs() < 0.1, "p90 estimate {est} vs {}", 10f64.ln());
    }

    #[test]
    fn monotone_stream() {
        let mut p = P2Quantile::new(0.5);
        for i in 1..=1_001 {
            p.push(i as f64);
        }
        let est = p.estimate().unwrap();
        assert!((est - 501.0).abs() < 20.0, "median of 1..=1001 ~ 501, got {est}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn out_of_range_quantile_panics() {
        let _ = P2Quantile::new(1.0);
    }
}
