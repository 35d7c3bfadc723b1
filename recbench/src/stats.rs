//! Exact order statistics over raw samples, the one percentile routine
//! every workload shares. Nothing here buckets: a p99 is a sample that
//! was actually observed.

/// A growable bag of raw samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Arithmetic mean; 0 for an empty bag.
    pub fn mean(&self) -> f64 {
        if self.v.is_empty() {
            0.0
        } else {
            self.v.iter().sum::<f64>() / self.v.len() as f64
        }
    }

    /// Nearest-rank percentile (`q` in `0..=1`): the smallest sample with
    /// at least `q·n` samples at or below it. 0 for an empty bag.
    pub fn pct(&mut self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.v.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = (q * self.v.len() as f64).ceil() as usize;
        self.v[rank.clamp(1, self.v.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.pct(0.5)
    }
}

/// Samples grouped by the slice of the measured window they landed in.
/// On a shared host a slice in which the program lost the CPU completes
/// fewer operations; pooling only the fullest slices (see [`fullest`])
/// keeps such moments out of the figures.
pub struct Sliced {
    slices: Vec<Samples>,
}

impl Sliced {
    pub fn new(slices: usize) -> Sliced {
        Sliced {
            slices: vec![Samples::default(); slices.max(1)],
        }
    }

    /// Add `x` to slice `i` (clamped to the last slice).
    pub fn push(&mut self, i: usize, x: f64) {
        let last = self.slices.len() - 1;
        self.slices[i.min(last)].push(x);
    }

    /// Samples per slice.
    pub fn counts(&self) -> Vec<usize> {
        self.slices.iter().map(Samples::len).collect()
    }

    /// The samples of the given slices, pooled.
    pub fn pooled(&self, idx: &[usize]) -> Samples {
        let mut out = Samples::default();
        for &i in idx {
            for &x in &self.slices[i].v {
                out.push(x);
            }
        }
        out
    }
}

/// Indices of the `share` of slices (at least one) with the largest
/// `counts`; ties go to the earlier slice.
pub fn fullest(counts: &[usize], share: f64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    let keep = (share * idx.len() as f64).ceil() as usize;
    idx.truncate(keep.clamp(1, counts.len().max(1)));
    idx
}

/// Median of a handful of repetition timings.
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut s = Samples::default();
        for x in (1..=100).rev() {
            s.push(f64::from(x));
        }
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.99), 99.0);
        assert_eq!(s.pct(1.0), 100.0);
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(Samples::default().pct(0.5), 0.0);
    }

    #[test]
    fn fullest_slices_pooled() {
        let mut s = Sliced::new(4);
        for (slice, x) in [
            (0, 1.0),
            (1, 5.0),
            (1, 6.0),
            (2, 9.0),
            (7, 100.0),
            (7, 101.0),
        ] {
            s.push(slice, x);
        }
        assert_eq!(s.counts(), vec![1, 2, 1, 2]);
        assert_eq!(fullest(&s.counts(), 0.5), vec![1, 3]);
        assert_eq!(fullest(&s.counts(), 0.0), vec![1]);
        let mut pooled = s.pooled(&fullest(&s.counts(), 0.5));
        assert_eq!(pooled.len(), 4);
        assert_eq!(pooled.pct(1.0), 101.0);
        assert_eq!(pooled.pct(0.25), 5.0);
    }
}
