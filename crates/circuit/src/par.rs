//! Deterministic fork-join map for the embarrassingly-parallel compile
//! stages (chunked QASM parsing, per-gate unrolling, per-block assignment,
//! per-item lower planning).
//!
//! Same std-thread idiom as the CLI batch runner: scoped threads, no
//! external thread-pool crates. Unlike the batch runner's work-stealing
//! queue, items are split into **contiguous chunks** joined in spawn
//! order, so the output is exactly `items.iter().map(f).collect()` — the
//! deterministic-merge rail the incremental-recompile goldens rely on.
//!
//! This module lives in `dqc-circuit` (the bottom of the crate graph) so
//! the front end (parse/unroll) and the core passes share one threshold
//! and one fork-join implementation; `autocomm` re-exports both.

use std::num::NonZeroUsize;

/// Minimum number of items before forking threads pays for itself; below
/// this every `par_map` call site runs sequentially (typical suite
/// programs stay well under it, so small compiles never touch the thread
/// machinery). Single-sourced here and re-exported as
/// `autocomm::PAR_THRESHOLD` — call sites must not repeat the literal.
pub const PAR_THRESHOLD: usize = 4096;

/// Number of worker threads `par_map` forks: the machine's available
/// parallelism, capped at 8 (the fan-out stops paying past that on the
/// memory-bound compile stages).
fn worker_count() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1).min(8)
}

/// Maps `f` over `items`, forking onto scoped threads when the slice is
/// large enough. Output order always matches input order; panics in `f`
/// propagate to the caller.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut parts = par_chunks(items, |part| part.iter().map(&f).collect::<Vec<U>>());
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(items.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Calls `f` once per contiguous chunk of `items` and returns the results
/// in input order: one call on the whole slice below [`PAR_THRESHOLD`] items
/// (or on one core), else one chunk per worker thread. Lets a stage that
/// emits a variable number of outputs per item fill one buffer per chunk
/// instead of one per item. Panics in `f` propagate to the caller.
pub(crate) fn par_chunks<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    let threads = worker_count();
    if items.len() < PAR_THRESHOLD || threads < 2 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.chunks(chunk).map(|part| scope.spawn(move || f(part))).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_inputs_stay_sequential_and_ordered() {
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(par_map(&items, |&x| x * 2), items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn large_inputs_preserve_order() {
        let items: Vec<usize> = (0..3 * PAR_THRESHOLD + 17).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
        assert_eq!(par_map(&items, |&x| x.wrapping_mul(31) ^ 7), expected);
    }

    #[test]
    fn chunks_cover_the_input_in_order() {
        for len in [0, 100, 3 * PAR_THRESHOLD + 17] {
            let items: Vec<usize> = (0..len).collect();
            let parts = par_chunks(&items, |part| part.to_vec());
            assert!(!parts.is_empty());
            assert_eq!(parts.concat(), items, "len {len}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        assert!(par_map(&items, |&x| x).is_empty());
    }
}
