//! The scoped worker pool behind both parallel stages.
//!
//! The engine shards work over *blocks*: contiguous slices of a per-user
//! output vector (Top-K heaps in the similarity stage, mapping slots in
//! the refined stage). Workers steal blocks from a shared job list until
//! it drains, which load-balances the refined stage's highly variable
//! per-user cost (classifier training time depends on candidate post
//! counts) without any per-item synchronization.
//!
//! Everything runs on `std::thread::scope` — the workspace stays
//! dependency-free, and borrowing the (`Sync`) similarity engine and
//! attack sides straight into the workers needs no `Arc` plumbing.

use std::sync::Mutex;

/// Process `items` in contiguous blocks of `block_size`, stealing blocks
/// across `n_threads` scoped workers — never more workers than blocks,
/// so a thread count taken from a request costs at most one worker per
/// block.
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
    let block_size = block_size.max(1);
    let n_threads = n_threads.clamp(1, items.len().div_ceil(block_size).max(1));
    if n_threads == 1 {
        let mut state = init();
        for (b, block) in items.chunks_mut(block_size).enumerate() {
            work(b * block_size, block, &mut state);
        }
        return vec![state];
    }

    let jobs: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        items
            .chunks_mut(block_size)
            .enumerate()
            .map(|(b, block)| (b * block_size, block))
            .collect(),
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let job = jobs.lock().expect("job list poisoned").pop();
                        match job {
                            Some((offset, block)) => work(offset, block, &mut state),
                            None => break,
                        }
                    }
                    state
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("engine worker panicked")).collect()
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
        // 100 items in 64-item blocks are two blocks, whatever the thread
        // count asked for.
        let mut items = vec![0u8; 100];
        let states = run_blocks(&mut items, 64, 8, || (), |_, _, ()| {});
        assert_eq!(states.len(), 2);
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
