//! Order statistics for the reported timings.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`) of `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples support percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Sorts a copy of the samples.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of unsorted samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| percentile(&sorted(samples), 50.0))
}

/// The fewest samples a window holds: enough for a stable rate and
/// median even when the percentile itself would need fewer.
pub const MIN_WINDOW: usize = 100;

/// Samples a window needs so that at least [`MIN_BEYOND`] lie beyond
/// percentile `p` (1000 for the 99th), and never fewer than
/// [`MIN_WINDOW`].
pub fn window_size(p: f64) -> usize {
    (MIN_WINDOW..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("some size supports any p < 100")
}

/// Cuts `0..n` into as many equal-count consecutive windows of at least
/// `min` items as fit (at least one). Small windows keep the median
/// over windows clear of host stalls: a stall spoils the windows it
/// touches, and the more windows there are, the smaller that share.
fn windows(n: usize, min: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / min).max(1);
    (0..count).map(|w| w * n / count..(w + 1) * n / count).collect()
}

/// The median over consecutive windows of percentile `p`: `samples`
/// are ordered by `completed` (completion time), cut into equal-count
/// windows of [`window_size`]`(p)` or more, and `p` is taken per window.
/// A stall that lifts one window moves this less than it moves the
/// percentile of the whole run.
///
/// # Panics
///
/// Panics on empty input or unequal lengths.
pub fn windowed_percentile(samples: &[f64], completed: &[f64], p: f64) -> f64 {
    assert_eq!(samples.len(), completed.len(), "one completion time per sample");
    let mut by_time: Vec<(f64, f64)> =
        completed.iter().copied().zip(samples.iter().copied()).collect();
    by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per_window: Vec<f64> = windows(by_time.len(), window_size(p))
        .into_iter()
        .map(|range| {
            let window: Vec<f64> = by_time[range].iter().map(|&(_, v)| v).collect();
            percentile(&sorted(&window), p)
        })
        .collect();
    percentile(&sorted(&per_window), 50.0)
}

/// The median over consecutive windows of the completion rate (per
/// second): completion times, in seconds since the phase began, are cut
/// into equal-count windows of at least [`MIN_WINDOW`], and each
/// window's rate is its count over the time since the previous window
/// ended.
///
/// # Panics
///
/// Panics on empty input.
pub fn windowed_rate(completed: &[f64]) -> f64 {
    let times = sorted(completed);
    let rates: Vec<f64> = windows(times.len(), MIN_WINDOW)
        .into_iter()
        .map(|range| {
            let start = if range.start == 0 { 0.0 } else { times[range.start - 1] };
            let span = (times[range.end - 1] - start).max(f64::MIN_POSITIVE);
            range.len() as f64 / span
        })
        .collect();
    percentile(&sorted(&rates), 50.0)
}
