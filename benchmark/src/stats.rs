//! Percentile and spread arithmetic.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(max - min) / median` — the spread printed beside every metric of the
/// multi-round `run`.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        (s[s.len() - 1] - s[0]) / m.abs()
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// of the benchmark uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range over the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Latency samples of one kind of operation, in microseconds, kept in
/// fixed-size slices of the run: a quantile is computed per slice and the
/// *median over slices* is reported, so a scheduler hiccup that lands in
/// one slice moves one of many slice values instead of the result.
pub struct Sliced {
    slices: Vec<Vec<f64>>,
    per_slice: usize,
}

/// Samples a slice needs beyond the quantile asked of it; adjacent slices
/// are merged until they have them (all into one, if need be).
const BEYOND: f64 = 30.0;

impl Sliced {
    pub fn new(per_slice: usize) -> Sliced {
        Sliced {
            slices: vec![Vec::with_capacity(per_slice)],
            per_slice: per_slice.max(1),
        }
    }

    pub fn push(&mut self, us: f64) {
        if self
            .slices
            .last()
            .is_some_and(|s| s.len() >= self.per_slice)
        {
            self.slices.push(Vec::with_capacity(self.per_slice));
        }
        self.slices.last_mut().expect("one slice").push(us);
    }

    pub fn len(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `q`-quantile of each group of adjacent slices, in order. A group
    /// is as many slices as it takes to have [`BEYOND`] samples on the far
    /// side of the quantile; what is left over joins the last group.
    pub fn per_slice(&self, q: f64) -> Vec<f64> {
        let tail = (1.0 - q).min(q).max(1e-9);
        let need = (BEYOND / tail).ceil() as usize;
        let mut groups: Vec<Vec<f64>> = Vec::new();
        let mut open: Vec<f64> = Vec::new();
        for slice in &self.slices {
            open.extend_from_slice(slice);
            if open.len() >= need.max(self.per_slice) {
                groups.push(std::mem::take(&mut open));
            }
        }
        match groups.last_mut() {
            Some(last) => last.extend(open),
            None => groups.push(open),
        }
        groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|g| percentile(&sorted(g), q))
            .collect()
    }

    /// Median over the slice groups of each group's `q`-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        median(&self.per_slice(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartile_spread(&v), 1.0);
    }

    #[test]
    fn sliced_quantile_ignores_one_bad_slice() {
        let mut s = Sliced::new(100);
        for slice in 0..5 {
            for i in 0..100 {
                // Slice 2 is ten times slower than the rest.
                let scale = if slice == 2 { 10.0 } else { 1.0 };
                s.push(f64::from(i + 1) * scale);
            }
        }
        assert_eq!(s.len(), 500);
        assert_eq!(s.per_slice(0.5), vec![50.0, 50.0, 500.0, 50.0, 50.0]);
        assert_eq!(s.quantile(0.5), 50.0);
        // A partial tail joins the last full slice.
        s.push(1000.0);
        assert_eq!(s.per_slice(0.5).len(), 5);
        assert_eq!(s.quantile(0.5), 50.0);
    }

    #[test]
    fn slices_merge_until_the_tail_has_samples() {
        let mut s = Sliced::new(100);
        for i in 0..7000 {
            s.push(f64::from(i % 1000));
        }
        // The median needs 60 samples a group: every slice stands alone.
        assert_eq!(s.per_slice(0.5).len(), 70);
        // The 99th percentile needs 3000: two groups, the rest in the last.
        assert_eq!(s.per_slice(0.99).len(), 2);
        // Too few samples for even one group: all of them are pooled.
        let mut few = Sliced::new(10);
        for i in 0..50 {
            few.push(f64::from(i));
        }
        assert_eq!(few.per_slice(0.99), vec![49.0]);
    }
}
