//! The gain table behind the gain-cached OEE exchange loop.

use std::cmp::Reverse;

/// Entries per chunk (see [`GainTable`]).
const CHUNK: usize = 64;

/// Marks a chunk with no storage yet: all of its entries are 0.
const UNALLOCATED: u32 = u32::MAX;

/// Upper-triangular table of positive exchange gains: entry `(lo, hi)`
/// (for `lo < hi`) holds the cached gain of swapping the pair, with 0
/// meaning "not a candidate". Row `lo` covers partners `lo + 1..n`, cut
/// into chunks of [`CHUNK`] entries; a chunk gets its storage on its first
/// positive write, so the table costs at most `n(n−1)/2 × 8` bytes (16.8 MB
/// at 2048 qubits, 67 MB at 4096, plus row-end padding), and a sparse one
/// far less.
///
/// Each row tracks its best entry `(max gain, smallest hi)`. A write that
/// raises or ties past the row best updates it in O(1); a write that lowers
/// the current row best only marks the row dirty, keeping the old best as
/// an upper bound. [`GainTable::best`] takes the maximum over the clean row
/// bests (ties to the smallest row) and rescans only the dirty rows whose
/// bound could still beat it. The pick is therefore the highest gain and,
/// among equal gains, the lexicographically first `(lo, hi)` pair — the
/// full-rescan rail's strictly-greater, first-in-scan-order winner.
///
/// Every chunk also keeps an upper bound on its gains (raised by every
/// write, tightened by rescans): a row rescan reads only the chunks whose
/// bound could hold the row max, and a chunk bounded by 0 is known to be
/// all zeros without loading it.
#[derive(Clone, Debug, Default)]
pub(crate) struct GainTable {
    n: usize,
    /// Chunk storage, [`CHUNK`] entries per allocated chunk.
    entries: Vec<i64>,
    /// Per chunk: its block index in `entries`, or [`UNALLOCATED`].
    chunk_at: Vec<u32>,
    /// Per chunk: an upper bound on its gains (0 for unallocated chunks).
    chunk_bound: Vec<i64>,
    /// Index of each row's first chunk; `n + 1` entries.
    chunk_start: Vec<usize>,
    /// Per row: `(max gain, smallest hi holding it)`; gain 0 = empty row.
    /// While the row is dirty only the gain is meaningful, as an upper
    /// bound on the row's max.
    row_best: Vec<(i64, u32)>,
    dirty: Vec<bool>,
    dirty_rows: Vec<u32>,
}

/// The position of one pair: its row, its partner, its chunk, and its
/// offset within the chunk.
#[derive(Clone, Copy)]
struct Slot {
    lo: usize,
    hi: u32,
    chunk: usize,
    offset: usize,
}

impl GainTable {
    /// An all-zero table over `n` qubits.
    pub(crate) fn new(n: usize) -> Self {
        let mut chunk_start = Vec::with_capacity(n + 1);
        let mut chunks = 0;
        for lo in 0..=n {
            chunk_start.push(chunks);
            chunks += n.saturating_sub(lo + 1).div_ceil(CHUNK);
        }
        GainTable {
            n,
            entries: Vec::new(),
            chunk_at: vec![UNALLOCATED; chunks],
            chunk_bound: vec![0; chunks],
            chunk_start,
            row_best: vec![(0, 0); n],
            dirty: vec![false; n],
            dirty_rows: Vec::new(),
        }
    }

    /// Empties the table for reuse over `n` qubits, keeping its storage.
    pub(crate) fn clear(&mut self, n: usize) {
        if self.n != n {
            *self = GainTable::new(n);
            return;
        }
        self.entries.clear();
        self.chunk_at.fill(UNALLOCATED);
        self.chunk_bound.fill(0);
        self.row_best.fill((0, 0));
        self.dirty.fill(false);
        self.dirty_rows.clear();
    }

    /// Writes a cold scan's positive gains — `rows[lo]` lists row `lo`'s
    /// ascending `(hi, gain)` pairs — reserving their chunk storage in one
    /// allocation instead of growing it chunk by chunk.
    pub(crate) fn load(&mut self, rows: &[Vec<(u32, i64)>]) {
        let chunks: usize = rows
            .iter()
            .enumerate()
            .map(|(lo, row)| {
                let mut last = usize::MAX;
                row.iter()
                    .filter(|&&(hi, _)| {
                        let chunk = (hi as usize - lo - 1) / CHUNK;
                        std::mem::replace(&mut last, chunk) != chunk
                    })
                    .count()
            })
            .sum();
        self.entries.reserve_exact(chunks * CHUNK);
        for (lo, row) in rows.iter().enumerate() {
            for &(hi, gain) in row {
                self.set(lo as u32, hi, gain);
            }
        }
    }

    /// Where the unordered pair `{x, y}` lives.
    #[inline]
    fn locate(&self, x: u32, y: u32) -> Slot {
        let (lo, hi) = if x < y { (x as usize, y as usize) } else { (y as usize, x as usize) };
        let col = hi - lo - 1;
        Slot { lo, hi: hi as u32, chunk: self.chunk_start[lo] + col / CHUNK, offset: col % CHUNK }
    }

    /// The entries of an allocated chunk.
    #[inline]
    fn chunk(&self, chunk: usize) -> &[i64] {
        let at = self.chunk_at[chunk] as usize * CHUNK;
        &self.entries[at..at + CHUNK]
    }

    #[inline]
    fn read(&self, slot: Slot) -> i64 {
        if self.chunk_bound[slot.chunk] == 0 {
            return 0;
        }
        self.chunk(slot.chunk)[slot.offset]
    }

    #[inline]
    fn write(&mut self, slot: Slot, gain: i64) {
        let Slot { lo, hi, chunk, offset } = slot;
        let gain = gain.max(0);
        if gain == 0 && self.chunk_bound[chunk] == 0 {
            return;
        }
        if self.chunk_at[chunk] == UNALLOCATED {
            self.chunk_at[chunk] =
                u32::try_from(self.entries.len() / CHUNK).expect("chunk index fits in u32");
            self.entries.resize(self.entries.len() + CHUNK, 0);
        }
        let idx = self.chunk_at[chunk] as usize * CHUNK + offset;
        if self.entries[idx] == gain {
            return;
        }
        self.entries[idx] = gain;
        self.chunk_bound[chunk] = self.chunk_bound[chunk].max(gain);
        let (best_gain, best_hi) = self.row_best[lo];
        if self.dirty[lo] {
            // A dirty row's best is only an upper bound; keep it one.
            self.row_best[lo].0 = best_gain.max(gain);
        } else if gain > best_gain || (gain == best_gain && gain > 0 && hi < best_hi) {
            self.row_best[lo] = (gain, hi);
        } else if hi == best_hi && gain < best_gain {
            self.dirty[lo] = true;
            self.dirty_rows.push(lo as u32);
        }
    }

    /// The cached gain of the unordered pair `{x, y}` (0 = not a candidate).
    #[cfg(test)]
    fn get(&self, x: u32, y: u32) -> i64 {
        self.read(self.locate(x, y))
    }

    /// Stores `max(gain, 0)` for the unordered pair `{x, y}` (`x ≠ y`).
    #[inline]
    pub(crate) fn set(&mut self, x: u32, y: u32, gain: i64) {
        self.write(self.locate(x, y), gain);
    }

    /// Moves a candidate pair's gain by `delta` (dropping it at 0 or
    /// below) and returns true; returns false, changing nothing, when
    /// `{x, y}` is not a candidate.
    #[inline]
    pub(crate) fn shift(&mut self, x: u32, y: u32, delta: i64) -> bool {
        let slot = self.locate(x, y);
        let old = self.read(slot);
        if old > 0 {
            self.write(slot, old + delta);
        }
        old > 0
    }

    /// The highest-gain candidate pair, ties to the lexicographically first
    /// `(lo, hi)`; `None` when no pair has a positive gain.
    pub(crate) fn best(&mut self) -> Option<(u32, u32)> {
        // The exact winner among clean rows, as `(gain, lo)`; gain 0 = none.
        let mut pick = (0i64, 0usize);
        for (lo, &(gain, _)) in self.row_best.iter().enumerate() {
            if gain > pick.0 && !self.dirty[lo] {
                pick = (gain, lo);
            }
        }
        // A dirty row can only win if its bound beats the pick. Rescanning
        // the contenders by descending bound (ties by row) lets the first
        // one that no longer can end the sweep; the other dirty rows keep
        // their bounds for later picks.
        let beats = |(gain, lo): (i64, usize), pick: (i64, usize)| {
            gain > pick.0 || (gain == pick.0 && gain > 0 && lo < pick.1)
        };
        let row_best = &self.row_best;
        let mut contenders: Vec<(i64, usize)> = self
            .dirty_rows
            .iter()
            .map(|&lo| (row_best[lo as usize].0, lo as usize))
            .filter(|&bound| beats(bound, pick))
            .collect();
        if !contenders.is_empty() {
            contenders.sort_unstable_by_key(|&(bound, lo)| (Reverse(bound), lo));
            for bound in contenders {
                if !beats(bound, pick) {
                    break;
                }
                let lo = bound.1;
                let row_max = self.rescan(lo);
                if beats((row_max, lo), pick) {
                    pick = (row_max, lo);
                }
            }
            let dirty = &self.dirty;
            self.dirty_rows.retain(|&lo| dirty[lo as usize]);
        }
        (pick.0 > 0).then(|| (pick.1 as u32, self.row_best[pick.1].1))
    }

    /// Recomputes a dirty row's exact best and marks it clean; returns the
    /// row's max gain.
    fn rescan(&mut self, lo: usize) -> i64 {
        let first = self.chunk_start[lo];
        let chunks = first..self.chunk_start[lo + 1];
        self.dirty[lo] = false;
        loop {
            // The first chunk with the highest bound: every earlier chunk is
            // bounded strictly below it, every later one sits at later `hi`.
            let mut top = (0i64, first);
            for c in chunks.clone() {
                if self.chunk_bound[c] > top.0 {
                    top = (self.chunk_bound[c], c);
                }
            }
            if top.0 == 0 {
                self.row_best[lo] = (0, 0);
                return 0;
            }
            // Padding past the row's end stays 0, so whole chunks scan
            // safely.
            let entries = self.chunk(top.1);
            let max = entries.iter().copied().max().unwrap_or(0);
            if max == top.0 {
                let at = entries.iter().position(|&gain| gain == max).unwrap_or(0);
                self.row_best[lo] = (max, (lo + 1 + (top.1 - first) * CHUNK + at) as u32);
                return max;
            }
            self.chunk_bound[top.1] = max;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    /// The ordered-set oracle: every positive pair keyed `(gain,
    /// Reverse((lo, hi)))`, whose `last()` is the pick the table must match.
    #[derive(Default)]
    struct Model {
        gains: BTreeMap<(u32, u32), i64>,
        best: BTreeSet<(i64, Reverse<(u32, u32)>)>,
    }

    impl Model {
        fn set(&mut self, x: u32, y: u32, gain: i64) {
            let pair = (x.min(y), x.max(y));
            if let Some(old) = self.gains.remove(&pair) {
                self.best.remove(&(old, Reverse(pair)));
            }
            if gain > 0 {
                self.gains.insert(pair, gain);
                self.best.insert((gain, Reverse(pair)));
            }
        }

        fn best(&self) -> Option<(u32, u32)> {
            self.best.last().map(|&(_, Reverse(pair))| pair)
        }
    }

    /// One step of a replay: `set(x, y, gain)`, or `shift(x, y, gain)`
    /// when `shift`; the picks are compared after the step when `pick`.
    struct Op {
        x: u32,
        y: u32,
        gain: i64,
        shift: bool,
        pick: bool,
    }

    /// Applies `(x, y, gain)` writes to both containers, comparing the pick
    /// after every write and every stored gain at the end.
    fn replay(n: usize, writes: &[(u32, u32, i64)]) -> Result<(), String> {
        let ops: Vec<Op> = writes
            .iter()
            .map(|&(x, y, gain)| Op { x, y, gain, shift: false, pick: true })
            .collect();
        replay_ops(n, &ops)
    }

    fn replay_ops(n: usize, ops: &[Op]) -> Result<(), String> {
        let mut table = GainTable::new(n);
        let mut model = Model::default();
        for (step, &Op { x, y, gain, shift, pick }) in ops.iter().enumerate() {
            if shift {
                let old = model.gains.get(&(x.min(y), x.max(y))).copied().unwrap_or(0);
                if old > 0 {
                    model.set(x, y, old + gain);
                }
                if table.shift(x, y, gain) != (old > 0) {
                    return Err(format!("step {step} shift({x}, {y}, {gain}) misreported {old}"));
                }
            } else {
                table.set(x, y, gain);
                model.set(x, y, gain);
            }
            if pick && table.best() != model.best() {
                return Err(format!(
                    "step {step} ({x}, {y}, {gain}, shift {shift}): table picked {:?}, model {:?}",
                    table.best(),
                    model.best()
                ));
            }
        }
        for x in 0..n as u32 {
            for y in x + 1..n as u32 {
                let expected = model.gains.get(&(x, y)).copied().unwrap_or(0);
                if table.get(y, x) != expected {
                    return Err(format!("gain({x}, {y}) = {}, model {expected}", table.get(x, y)));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn empty_table_has_no_pick() {
        assert_eq!(GainTable::new(0).best(), None);
        assert_eq!(GainTable::new(1).best(), None);
        let mut table = GainTable::new(5);
        assert_eq!(table.best(), None);
        table.set(1, 3, -4);
        assert_eq!(table.best(), None, "non-positive gains are not candidates");
        table.set(1, 3, 2);
        table.set(3, 1, 0);
        assert_eq!(table.best(), None, "a zeroed pair leaves the table");
    }

    #[test]
    fn cleared_table_is_empty_and_reusable() {
        let mut table = GainTable::new(150);
        for (x, y, gain) in [(0, 149, 5), (3, 70, 9), (3, 140, 9), (148, 149, 2)] {
            table.set(x, y, gain);
        }
        table.set(3, 70, 1);
        assert_eq!(table.best(), Some((3, 140)));
        table.clear(150);
        assert_eq!(table.best(), None);
        assert!(table.entries.is_empty(), "the clear kept chunk storage in use");
        // Chunks that held gains before the clear start from zero again.
        assert_eq!(table.get(70, 3), 0);
        table.set(3, 140, 2);
        table.set(2, 9, 4);
        assert_eq!((table.get(3, 140), table.get(3, 141), table.get(3, 70)), (2, 0, 0));
        assert_eq!(table.best(), Some((2, 9)));
        table.clear(7);
        assert_eq!(table.best(), None);
        table.set(6, 5, 1);
        assert_eq!(table.best(), Some((5, 6)));
    }

    #[test]
    fn load_matches_writing_each_gain() {
        let rows: Vec<Vec<(u32, i64)>> = (0..150u32)
            .map(|lo| {
                (lo + 1..150)
                    .filter(|hi| (lo * 7 + hi * 3) % 11 == 0)
                    .map(|hi| (hi, i64::from(hi % 5) + 1))
                    .collect()
            })
            .collect();
        let mut loaded = GainTable::new(150);
        loaded.load(&rows);
        let mut written = GainTable::new(150);
        for (lo, row) in rows.iter().enumerate() {
            for &(hi, gain) in row {
                written.set(lo as u32, hi, gain);
            }
        }
        assert_eq!(loaded.entries.len(), written.entries.len());
        for x in 0..150 {
            for y in x + 1..150 {
                assert_eq!(loaded.get(x, y), written.get(x, y), "({x}, {y})");
            }
        }
        while let Some((x, y)) = written.best() {
            assert_eq!(loaded.best(), Some((x, y)));
            loaded.set(x, y, 0);
            written.set(x, y, 0);
        }
        assert_eq!(loaded.best(), None);
    }

    #[test]
    fn equal_gains_tie_to_the_first_pair() {
        // Across rows: the smaller `lo` wins.
        replay(6, &[(3, 5, 4), (1, 4, 4), (2, 3, 4), (0, 5, 1)]).unwrap();
        // Within a row: the smaller `hi` wins, whichever is written first.
        replay(6, &[(2, 5, 4), (2, 3, 4), (2, 4, 4)]).unwrap();
        let mut table = GainTable::new(6);
        for (x, y) in [(3, 5), (2, 5), (2, 3), (4, 1)] {
            table.set(x, y, 7);
        }
        assert_eq!(table.best(), Some((1, 4)));
    }

    #[test]
    fn lowering_or_zeroing_the_row_best_falls_back_to_the_next() {
        // Lowered below a later entry of the same row.
        replay(6, &[(1, 2, 9), (1, 4, 5), (1, 3, 5), (1, 2, 3)]).unwrap();
        // Zeroed: the row's next best (or another row) takes over.
        replay(6, &[(1, 2, 9), (1, 4, 5), (0, 5, 5), (2, 1, 0), (1, 4, -1)]).unwrap();
        // Lowered to a tie with a later entry: the earlier `hi` keeps it.
        replay(6, &[(1, 2, 9), (1, 5, 5), (1, 2, 5), (1, 2, 5)]).unwrap();
    }

    #[test]
    fn raising_a_non_best_entry_past_the_row_best_takes_over() {
        replay(6, &[(0, 1, 5), (0, 4, 2), (0, 4, 8), (3, 5, 8), (0, 1, 8)]).unwrap();
        // Raised while the row is dirty, then rescanned.
        replay(6, &[(2, 3, 5), (2, 4, 4), (2, 3, 1), (2, 5, 6), (2, 4, 6)]).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write sequences over small registers with a narrow gain
        /// range, so ties, zeroings and lowered bests are frequent; half
        /// the steps are shifts, and picks follow a third of them.
        #[test]
        fn matches_the_ordered_set_model(
            n in 2usize..10,
            raw in proptest::collection::vec((0u32..64, 0u32..64, -3i64..6, 0u8..6), 0..80),
        ) {
            let n32 = n as u32;
            let ops: Vec<Op> = raw
                .iter()
                .map(|&(x, y, gain, mode)| {
                    let x = x % n32;
                    let y = (x + 1 + y % (n32 - 1)) % n32;
                    Op { x, y, gain, shift: mode % 2 == 1, pick: mode < 2 }
                })
                .collect();
            let outcome = replay_ops(n, &ops);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        /// Rows several chunks long, with writes crowded into the first few
        /// rows so that ties and lowered bests land in different chunks.
        #[test]
        fn matches_the_ordered_set_model_across_chunks(
            n in 130usize..200,
            raw in proptest::collection::vec((0u32..4, 0u32..200, -2i64..4, 0u8..8), 0..300),
        ) {
            let ops: Vec<Op> = raw
                .iter()
                .map(|&(x, y, gain, mode)| {
                    let y = x + 1 + y % (n as u32 - 1 - x);
                    Op { x, y, gain, shift: mode % 2 == 1, pick: mode < 2 }
                })
                .collect();
            let outcome = replay_ops(n, &ops);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
