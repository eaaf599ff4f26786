//! Coverage measurement — "the coverage of tested protocol can then be
//! measured with percent" (paper §II-B).
//!
//! Both dimensions are fixed-size bitsets so the per-input
//! [`CoverageMap::record`] on the fuzzing hot loop is O(fields) bit
//! arithmetic with no allocation, and shard maps from
//! [`Fuzzer::run`](crate::fuzzer::Fuzzer::run) join via
//! a word-wise [`CoverageMap::merge`].

use serde::{Deserialize, Serialize};

use crate::model::ProtocolModel;
use crate::mutate::{GeneratedInput, ValueClass};

const WORD_BITS: usize = u64::BITS as usize;

fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Sets bit `bit` in `words`, growing the vector if needed. Returns
/// whether the bit was newly set.
fn set_bit(words: &mut Vec<u64>, bit: usize) -> bool {
    let word = bit / WORD_BITS;
    if word >= words.len() {
        words.resize(word + 1, 0);
    }
    let mask = 1u64 << (bit % WORD_BITS);
    let newly = words[word] & mask == 0;
    words[word] |= mask;
    newly
}

/// ORs `other` into `words`, growing `words` to cover `other`.
fn or_bits(words: &mut Vec<u64>, other: &[u64]) {
    if other.len() > words.len() {
        words.resize(other.len(), 0);
    }
    for (dst, src) in words.iter_mut().zip(other) {
        *dst |= src;
    }
}

fn count_bits(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Splits the set bits of a path bitset into (in-range, out-of-range)
/// counts at the `total_paths` boundary. Both counts are derived from the
/// bits alone, so any merge order (and re-merging the same shard)
/// recomputes identical values — the join stays idempotent.
fn split_path_counts(words: &[u64], total_paths: usize) -> (usize, usize) {
    let all = count_bits(words);
    let boundary_word = total_paths / WORD_BITS;
    let mut in_range = 0;
    for (index, word) in words.iter().enumerate() {
        if index < boundary_word {
            in_range += word.count_ones() as usize;
        } else if index == boundary_word {
            let rem = total_paths % WORD_BITS;
            let mask = if rem == 0 { 0 } else { (1u64 << rem) - 1 };
            in_range += (word & mask).count_ones() as usize;
        }
    }
    (in_range, all - in_range)
}

/// Tracks which `(field, value class)` cells and which attack paths have
/// been exercised.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageMap {
    /// Bitset over `total_fields × 4` cells, indexed
    /// `field * 4 + class.index()`.
    field_cells: Vec<u64>,
    field_cell_count: usize,
    total_fields: usize,
    /// Bitset over path indices (grown on demand for out-of-range
    /// indices, which are tracked separately and never inflate the
    /// in-range exercised count).
    exercised_paths: Vec<u64>,
    exercised_path_count: usize,
    /// Distinct out-of-range path indices recorded. Kept out of
    /// `exercised_path_count` so [`CoverageMap::path_coverage_percent`]
    /// can never exceed 100; surfaced via the `fuzz.paths.out_of_range`
    /// counter.
    #[serde(default)]
    out_of_range_path_count: usize,
    total_paths: usize,
    structural_seen: bool,
}

impl CoverageMap {
    /// Creates a map for `model` and `total_paths` attack paths.
    pub fn new(model: &ProtocolModel, total_paths: usize) -> Self {
        CoverageMap {
            field_cells: vec![0; words_for(model.fields.len() * ValueClass::ALL.len())],
            field_cell_count: 0,
            total_fields: model.fields.len(),
            exercised_paths: vec![0; words_for(total_paths)],
            exercised_path_count: 0,
            out_of_range_path_count: 0,
            total_paths,
            structural_seen: false,
        }
    }

    /// Records one generated input executed under attack path
    /// `path_index`. O(1) per choice: two bitset writes, no allocation
    /// once the map is sized (only an out-of-range `path_index` grows
    /// storage).
    pub fn record(&mut self, path_index: usize, input: &GeneratedInput) {
        if set_bit(&mut self.exercised_paths, path_index) {
            if path_index < self.total_paths {
                self.exercised_path_count += 1;
            } else {
                self.out_of_range_path_count += 1;
            }
        }
        if input.structural {
            self.structural_seen = true;
        } else {
            for &(field, class) in &input.choices {
                if set_bit(&mut self.field_cells, field * ValueClass::ALL.len() + class.index()) {
                    self.field_cell_count += 1;
                }
            }
        }
    }

    /// Merges another map (typically a shard's) into this one. Cells and
    /// paths union word-wise; counts are recomputed from the merged bits,
    /// so the result is identical regardless of merge order.
    ///
    /// # Panics
    ///
    /// Panics — in every build profile — when the maps were built for
    /// different models or path sets. A silent word-wise OR of
    /// differently-shaped bitsets would produce garbage counts; the old
    /// `debug_assert_eq!` let exactly that happen in release builds.
    pub fn merge(&mut self, other: &CoverageMap) {
        assert_eq!(self.total_fields, other.total_fields, "merging maps of equal models");
        assert_eq!(self.total_paths, other.total_paths, "merging maps of equal path sets");
        or_bits(&mut self.field_cells, &other.field_cells);
        or_bits(&mut self.exercised_paths, &other.exercised_paths);
        self.field_cell_count = count_bits(&self.field_cells);
        let (in_range, out_of_range) = split_path_counts(&self.exercised_paths, self.total_paths);
        self.exercised_path_count = in_range;
        self.out_of_range_path_count = out_of_range;
        self.structural_seen |= other.structural_seen;
    }

    /// Percentage of `(field, class)` cells exercised (0–100).
    pub fn field_coverage_percent(&self) -> f64 {
        let total = self.total_fields * ValueClass::ALL.len();
        if total == 0 {
            return 100.0;
        }
        self.field_cell_count as f64 / total as f64 * 100.0
    }

    /// Percentage of attack paths exercised (0–100). Out-of-range path
    /// indices never contribute, and the value is clamped, so the result
    /// is ≤ 100 for every input history.
    pub fn path_coverage_percent(&self) -> f64 {
        if self.total_paths == 0 {
            return 100.0;
        }
        (self.exercised_path_count as f64 / self.total_paths as f64 * 100.0).min(100.0)
    }

    /// Distinct out-of-range path indices ever recorded — a campaign
    /// misconfiguration signal (more paths executed than the attack tree
    /// defines), surfaced via obs rather than inflating coverage.
    pub fn out_of_range_paths(&self) -> usize {
        self.out_of_range_path_count
    }

    /// Whether at least one structural (length-changing) input ran.
    pub fn structural_exercised(&self) -> bool {
        self.structural_seen
    }

    /// Number of exercised `(field, class)` cells.
    pub fn cells(&self) -> usize {
        self.field_cell_count
    }

    /// Number of distinct in-range path indices exercised.
    pub fn paths_exercised(&self) -> usize {
        self.exercised_path_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::v2x_warning_model;
    use crate::mutate::Mutator;

    fn input(field: usize, class: ValueClass) -> GeneratedInput {
        GeneratedInput { bytes: vec![0], choices: vec![(field, class)], structural: false }
    }

    #[test]
    fn coverage_accumulates() {
        let model = v2x_warning_model(); // 2 fields → 8 cells
        let mut map = CoverageMap::new(&model, 3);
        assert_eq!(map.field_coverage_percent(), 0.0);
        map.record(0, &input(0, ValueClass::Min));
        map.record(0, &input(0, ValueClass::Min)); // duplicate: no change
        assert_eq!(map.cells(), 1);
        assert!((map.field_coverage_percent() - 12.5).abs() < 1e-9);
        assert!((map.path_coverage_percent() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn structural_inputs_tracked_separately() {
        let model = v2x_warning_model();
        let mut map = CoverageMap::new(&model, 1);
        let structural = GeneratedInput { bytes: vec![], choices: vec![], structural: true };
        map.record(0, &structural);
        assert!(map.structural_exercised());
        assert_eq!(map.cells(), 0);
        assert_eq!(map.path_coverage_percent(), 100.0);
    }

    #[test]
    fn empty_denominators_are_full_coverage() {
        let empty_model = ProtocolModel::new("e", vec![]);
        let map = CoverageMap::new(&empty_model, 0);
        assert_eq!(map.field_coverage_percent(), 100.0);
        assert_eq!(map.path_coverage_percent(), 100.0);
    }

    #[test]
    fn out_of_range_path_index_is_tracked_not_counted() {
        let model = v2x_warning_model();
        let mut map = CoverageMap::new(&model, 2);
        map.record(70, &input(0, ValueClass::Min));
        assert_eq!(map.path_coverage_percent(), 0.0, "out-of-range paths are not coverage");
        assert_eq!(map.out_of_range_paths(), 1);
        map.record(70, &input(0, ValueClass::Min)); // duplicate: no change
        assert_eq!(map.out_of_range_paths(), 1);
    }

    #[test]
    fn path_coverage_percent_never_exceeds_100() {
        // Regression: distinct out-of-range indices used to grow
        // `exercised_path_count` past `total_paths` — paths {0, 1, 2, 3}
        // with total_paths = 2 reported 200 %.
        let model = v2x_warning_model();
        let mut map = CoverageMap::new(&model, 2);
        for path in 0..4 {
            map.record(path, &input(0, ValueClass::Min));
        }
        assert_eq!(map.path_coverage_percent(), 100.0);
        assert_eq!(map.out_of_range_paths(), 2);
        // The invariant survives a merge (counts recomputed from bits).
        let clone = map.clone();
        map.merge(&clone);
        assert_eq!(map.path_coverage_percent(), 100.0);
        assert_eq!(map.out_of_range_paths(), 2);
        assert_eq!(map, clone, "merge with self is the identity");
    }

    #[test]
    #[should_panic(expected = "merging maps of equal path sets")]
    fn merge_rejects_mismatched_path_sets_in_all_profiles() {
        let model = v2x_warning_model();
        let mut a = CoverageMap::new(&model, 2);
        let b = CoverageMap::new(&model, 3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "merging maps of equal models")]
    fn merge_rejects_mismatched_models_in_all_profiles() {
        let mut a = CoverageMap::new(&v2x_warning_model(), 2);
        let b = CoverageMap::new(&crate::model::keyless_command_model(), 2);
        a.merge(&b);
    }

    #[test]
    fn merge_unions_cells_paths_and_structural() {
        let model = v2x_warning_model();
        let mut a = CoverageMap::new(&model, 4);
        let mut b = CoverageMap::new(&model, 4);
        a.record(0, &input(0, ValueClass::Min));
        a.record(0, &input(1, ValueClass::Max));
        b.record(1, &input(0, ValueClass::Min)); // overlaps a's first cell
        b.record(2, &input(1, ValueClass::Invalid));
        b.record(2, &GeneratedInput { bytes: vec![], choices: vec![], structural: true });
        a.merge(&b);
        assert_eq!(a.cells(), 3, "overlapping cells counted once");
        assert!((a.path_coverage_percent() - 75.0).abs() < 1e-9);
        assert!(a.structural_exercised());
    }

    #[test]
    fn merge_equals_serial_recount() {
        // Splitting one input stream across maps and merging them must
        // equal recording the whole stream into one map.
        let model = v2x_warning_model();
        let mut mutator = Mutator::new(model.clone(), 21);
        let inputs: Vec<GeneratedInput> = (0..200).map(|_| mutator.generate()).collect();
        let mut whole = CoverageMap::new(&model, 5);
        let mut left = CoverageMap::new(&model, 5);
        let mut right = CoverageMap::new(&model, 5);
        for (i, input) in inputs.iter().enumerate() {
            whole.record(i % 5, input);
            if i < 100 {
                left.record(i % 5, input);
            } else {
                right.record(i % 5, input);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }
}
