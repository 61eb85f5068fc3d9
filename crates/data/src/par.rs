//! Filling one large buffer on every core.
//!
//! Set-up builds two tables whose elements are each a pure function of
//! their index: the host store's initial rows (`frugal_embed::HostStore`)
//! and the alias sampler's Zipf weights ([`crate::ZipfAlias`]). Such a
//! buffer can be cut anywhere without changing a bit of it, so
//! [`fill_chunks`] cuts it into one contiguous chunk per core and fills the
//! chunks at once on scoped threads.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Below this many elements [`fill_chunks`] fills the buffer on the calling
/// thread. With the cheapest element kernel (an initial row's, about 4 ns
/// an element) a second core would save at most about 130 µs here, and a
/// thread's start costs tens of microseconds of it; the small stores and
/// samplers the unit tests build start no threads.
const SERIAL_BELOW: usize = 1 << 16;

/// Fills `out` by calling `fill(start, chunk)` once for each of a few
/// contiguous chunks that together cover `out`, where `start` is the index
/// of `chunk[0]` in `out`.
///
/// Every chunk starts at a multiple of `align` (a row length), and every
/// one but the last ends at one, so no row is split between two calls.
/// Buffers of 65 536 elements or more (`SERIAL_BELOW`) get one chunk per
/// core the host reports (`std::thread::available_parallelism`, asked
/// once), the last filled on the calling thread and the others on scoped
/// threads; smaller ones are one chunk on the calling thread. The result
/// can depend on the split only if `fill` makes an element depend on
/// something other than its index.
///
/// # Panics
///
/// Panics if `align == 0`, or if `fill` panics on any chunk.
pub fn fill_chunks<T: Send>(out: &mut [T], align: usize, fill: impl Fn(usize, &mut [T]) + Sync) {
    let workers = if out.len() < SERIAL_BELOW { 1 } else { cores() };
    fill_chunks_on(workers, out, align, &fill);
}

/// The host's core count, asked once per process. The question reads
/// cgroup files through short-lived heap buffers; asked at every build, it
/// left a process that repeats its set-up (the benchmark's `hot` workload
/// builds its 12.8 MB table seven times) with a second table resident.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`fill_chunks`] on `workers` chunks (fewer if `out` has fewer rows).
fn fill_chunks_on<T: Send>(
    workers: usize,
    out: &mut [T],
    align: usize,
    fill: &(impl Fn(usize, &mut [T]) + Sync),
) {
    assert!(align > 0, "chunks align to rows of at least one element");
    let (len, rows) = (out.len(), out.len().div_ceil(align));
    let workers = workers.clamp(1, rows.max(1));
    if workers == 1 {
        return fill(0, out);
    }
    std::thread::scope(|scope| {
        let (mut rest, mut start) = (out, 0);
        for w in 1..=workers {
            let end = (w * rows / workers * align).min(len);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            if w == workers {
                fill(start, chunk);
            } else {
                scope.spawn(move || fill(start, chunk));
            }
            (rest, start) = (tail, end);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Fills `0..len` on `workers` chunks, each element with its index +
    /// 1, and returns the buffer and the chunks' `(start, len)`.
    fn run(workers: usize, len: usize, align: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut out = vec![0usize; len];
        let chunks = Mutex::new(Vec::new());
        fill_chunks_on(workers, &mut out, align, &|start, chunk: &mut [usize]| {
            chunks.lock().unwrap().push((start, chunk.len()));
            for (i, v) in chunk.iter_mut().enumerate() {
                assert_eq!(*v, 0, "element {} visited twice", start + i);
                *v = start + i + 1;
            }
        });
        let mut chunks = chunks.into_inner().unwrap();
        chunks.sort_unstable();
        (out, chunks)
    }

    #[test]
    fn every_element_is_filled_once_with_its_index_in_row_aligned_chunks() {
        for align in [1, 3, 32] {
            for workers in [1, 2, 3, 7] {
                for len in 0..=3 * workers * align + 1 {
                    let at = format!("len {len} align {align} workers {workers}");
                    let (out, chunks) = run(workers, len, align);
                    assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1), "{at}");
                    // The chunks tile `0..len` in order, each starting on a
                    // row; only the last may end inside one.
                    let mut next = 0;
                    for &(start, n) in &chunks {
                        assert_eq!(start, next, "{at}: chunks {chunks:?}");
                        assert_eq!(start % align, 0, "{at}: chunks {chunks:?}");
                        next = start + n;
                    }
                    assert_eq!(next, len, "{at}: chunks {chunks:?}");
                    let rows = len.div_ceil(align);
                    assert_eq!(chunks.len(), workers.min(rows).max(1), "{at}");
                    // Balanced: chunk sizes in rows differ by at most one.
                    let sizes: Vec<usize> =
                        chunks.iter().map(|&(_, n)| n.div_ceil(align)).collect();
                    let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                    assert!(hi.unwrap() - lo.unwrap() <= 1, "{at}: chunks {chunks:?}");
                }
            }
        }
    }

    fn threads_used(len: usize) -> Vec<ThreadId> {
        let mut out = vec![0u8; len];
        let threads = Mutex::new(Vec::new());
        fill_chunks(&mut out, 1, |_, chunk| {
            threads.lock().unwrap().push(std::thread::current().id());
            chunk.fill(1);
        });
        assert!(out.iter().all(|&v| v == 1));
        threads.into_inner().unwrap()
    }

    #[test]
    fn below_the_minimum_the_calling_thread_fills_everything() {
        let me = std::thread::current().id();
        for len in [0, 1, 4097, SERIAL_BELOW - 1] {
            assert_eq!(threads_used(len), vec![me], "len {len}");
        }
        // At the minimum, one chunk per core the host reports.
        let cores = cores();
        let threads = threads_used(SERIAL_BELOW);
        assert_eq!(threads.len(), cores);
        assert!(threads.contains(&me));
        let distinct: HashSet<&ThreadId> = threads.iter().collect();
        assert_eq!(distinct.len(), cores, "every chunk on its own thread");
    }

    #[test]
    #[should_panic(expected = "rows of at least one element")]
    fn align_zero_is_rejected() {
        fill_chunks(&mut [0u8; 4], 0, |_, _| {});
    }
}
