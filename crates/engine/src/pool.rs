//! The scoped worker pool behind both parallel stages.
//!
//! The engine shards work over *blocks*: contiguous slices of a per-user
//! output vector (Top-K heaps in the similarity stage, mapping slots in
//! the refined stage). Workers steal blocks from a shared job list until
//! it drains, which load-balances the refined stage's highly variable
//! per-user cost (classifier training time depends on candidate post
//! counts) without any per-item synchronization.
//!
//! The configured block size is a cap: a small batch is cut into blocks
//! of `⌈n / (8 · threads)⌉` items, so a batch of ten users on two threads
//! keeps both busy, and large batches keep the capped block. The
//! calling thread is one of the workers.
//!
//! Everything runs on `std::thread::scope` — the workspace stays
//! dependency-free, and borrowing the (`Sync`) similarity engine and
//! attack sides straight into the workers needs no `Arc` plumbing.

use std::sync::Mutex;

/// Blocks per worker a small batch is cut into, so that stealing can
/// still balance uneven per-item costs.
const BLOCKS_PER_WORKER: usize = 8;

/// The block length [`run_blocks`] cuts `n_items` items into:
/// `⌈n_items / (8 · n_threads)⌉`, at least 1 and at most `block_size`.
#[must_use]
pub fn block_len(n_items: usize, block_size: usize, n_threads: usize) -> usize {
    let per_worker_share = n_items.div_ceil(n_threads.max(1).saturating_mul(BLOCKS_PER_WORKER));
    per_worker_share.clamp(1, block_size.max(1))
}

/// The workers [`run_blocks`] runs for `n_items` items: `n_threads`, but
/// no more than the blocks of [`block_len`] items, and at least one. That
/// is `min(n_threads, n_items)` whenever both are at least one.
#[must_use]
pub fn workers(n_items: usize, block_size: usize, n_threads: usize) -> usize {
    let blocks = n_items.div_ceil(block_len(n_items, block_size, n_threads));
    n_threads.clamp(1, blocks.max(1))
}

/// Process `items` in contiguous blocks of [`block_len`] items, stealing
/// blocks across [`workers`] workers: the calling thread and
/// `workers − 1` scoped helpers. `block_size` caps the block length; a
/// batch of `n ≥ n_threads` items always runs on `n_threads` workers, and
/// never more workers than blocks run.
///
/// Each worker owns a private state `S` created by `init` (score bounds,
/// pair counters, scratch buffers); `work` receives the block's offset
/// into `items`, the block itself, and that state. The per-worker states
/// are returned for order-independent merging — the caller must not rely
/// on their order. Panics in `work` propagate.
pub fn run_blocks<T, S, G, F>(
    items: &mut [T],
    block_size: usize,
    n_threads: usize,
    init: G,
    work: F,
) -> Vec<S>
where
    T: Send,
    S: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    let block = block_len(items.len(), block_size, n_threads);
    let n_workers = workers(items.len(), block_size, n_threads);
    let jobs: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        items.chunks_mut(block).enumerate().map(|(b, chunk)| (b * block, chunk)).collect(),
    );
    let steal = || {
        let mut state = init();
        loop {
            let job = jobs.lock().expect("job list poisoned").pop();
            match job {
                Some((offset, chunk)) => work(offset, chunk, &mut state),
                None => break,
            }
        }
        state
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..n_workers).map(|_| scope.spawn(steal)).collect();
        let mut states = vec![steal()];
        states.extend(helpers.into_iter().map(|h| h.join().expect("engine worker panicked")));
        states
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_items_visited_exactly_once() {
        for &(n, bs, threads) in
            &[(0usize, 4usize, 3usize), (1, 4, 3), (100, 7, 4), (64, 64, 8), (10, 1, 2)]
        {
            let mut items = vec![0u32; n];
            run_blocks(
                &mut items,
                bs,
                threads,
                || (),
                |offset, block, ()| {
                    for (i, x) in block.iter_mut().enumerate() {
                        assert_eq!(*x, 0);
                        // Record the item's global index to verify offsets.
                        *x = u32::try_from(offset + i).unwrap() + 1;
                    }
                },
            );
            let got: Vec<u32> = items;
            let expect: Vec<u32> = (1..=u32::try_from(n).unwrap()).collect();
            assert_eq!(got, expect, "n={n} bs={bs} threads={threads}");
        }
    }

    #[test]
    fn workers_never_outnumber_blocks() {
        // Small batches are cut into blocks small enough for every thread
        // asked for, up to one worker per item; 100 items on 8 threads
        // are 50 blocks of 2.
        for (n, threads) in [(100usize, 8usize), (3, 8), (1, 2), (10, 2), (2000, 2)] {
            let mut items = vec![0u8; n];
            let states = run_blocks(&mut items, 64, threads, || (), |_, _, ()| {});
            assert_eq!(states.len(), threads.min(n), "{n} items, {threads} threads");
            assert_eq!(workers(n, 64, threads), threads.min(n));
        }
        assert_eq!(block_len(100, 64, 8), 2);
        assert_eq!(workers(0, 64, 8), 1);
    }

    #[test]
    fn block_len_shrinks_small_batches_and_caps_large_ones() {
        // ⌈n / (8 · threads)⌉, at least 1, at most the configured cap.
        assert_eq!(block_len(0, 64, 2), 1);
        assert_eq!(block_len(9, 64, 2), 1);
        assert_eq!(block_len(17, 64, 2), 2);
        assert_eq!(block_len(1000, 64, 2), 63);
        assert_eq!(block_len(1949, 64, 2), 64);
        assert_eq!(block_len(1949, 64, 1), 64);
        assert_eq!(block_len(100, 4, 1), 4);
        // A thread count of 0 counts as 1; a huge one cannot overflow.
        assert_eq!(block_len(100, 64, 0), block_len(100, 64, 1));
        assert_eq!(block_len(100, 64, usize::MAX), 1);
        assert_eq!(workers(100, 64, usize::MAX), 100);
    }

    #[test]
    fn worker_states_merge_to_global_sum() {
        let mut items: Vec<u64> = (0..1000).collect();
        let states = run_blocks(
            &mut items,
            16,
            8,
            || 0u64,
            |_, block, sum| {
                *sum += block.iter().sum::<u64>();
            },
        );
        let total: u64 = states.into_iter().sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn the_calling_thread_is_a_worker() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 64];
        let states: Vec<HashSet<ThreadId>> =
            run_blocks(&mut items, 64, 2, HashSet::new, |_, _, seen| {
                seen.insert(std::thread::current().id());
            });
        // Two workers: the caller, whose state comes back first, and one
        // spawned helper.
        assert_eq!(states.len(), 2);
        assert!(states[0].iter().all(|&t| t == caller));
        assert!(states[1].iter().all(|&t| t != caller));
    }

    #[test]
    fn single_thread_path_matches_parallel() {
        let mut a: Vec<u64> = (0..200).collect();
        let mut b = a.clone();
        let sa: u64 = run_blocks(&mut a, 9, 1, || 0u64, |_, bl, s| *s += bl.iter().sum::<u64>())
            .into_iter()
            .sum();
        let sb: u64 = run_blocks(&mut b, 9, 5, || 0u64, |_, bl, s| *s += bl.iter().sum::<u64>())
            .into_iter()
            .sum();
        assert_eq!(sa, sb);
    }
}
