//! Offline stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! parallel-iterator surface the workspace uses — `par_iter`,
//! `into_par_iter`, `par_chunks_mut`, `chunks`, thread pools, `join` — with
//! **sequential** execution. Inside [`ThreadPool::install`],
//! [`current_num_threads`] reports the installed pool's size, as rayon
//! does, so code that sizes its work by the thread count sees the count it
//! would see under real rayon.
//!
//! Sequential execution hides any dependence of a result on how work is
//! split, so the workspace's kernels keep that dependence out by
//! construction: every `par_*` consumer splits only over independent
//! outputs (rows, messages, samples) and reduces in index order, and none
//! of them sums partial results whose boundaries follow the thread count.
//! Swapping back to real rayon is a one-line change in the workspace
//! manifest.

#![warn(missing_docs)]

use std::cell::Cell;

thread_local! {
    /// Size of the pool whose [`ThreadPool::install`] is running on this
    /// thread (0 outside any pool).
    static INSTALLED: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads the current pool would use: the installed
/// pool's size inside [`ThreadPool::install`], and the machine's available
/// parallelism (the global pool's size) outside it.
pub fn current_num_threads() -> usize {
    match INSTALLED.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Run two closures (sequentially here) and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

/// Builder mirroring `rayon::ThreadPoolBuilder`; thread count is recorded
/// but execution stays sequential.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a worker count (recorded for introspection only).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the (sequential) pool. Never fails.
    pub fn build(self) -> Result<ThreadPool, BuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                current_num_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced).
#[derive(Debug)]
pub struct BuildError(());

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool construction failed")
    }
}

impl std::error::Error for BuildError {}

/// A scoped execution context; `install` simply runs the closure.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` "inside" the pool: [`current_num_threads`] reports this
    /// pool's size until `op` returns or unwinds.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        /// Restores the enclosing pool's size on drop.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.replace(self.num_threads)));
        op()
    }

    /// Configured worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

pub mod prelude {
    //! Drop-in traits mirroring `rayon::prelude`: the `par_*` entry points
    //! return ordinary sequential iterators, so every downstream `Iterator`
    //! combinator (`map`, `enumerate`, `for_each`, `collect`, …) works
    //! unchanged.

    /// `.par_iter()` on shared slices and collections.
    pub trait IntoParallelRefIterator<'a> {
        /// The sequential iterator standing in for the parallel one.
        type Iter: Iterator;

        /// Iterate by reference ("in parallel").
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for [T] {
        type Iter = std::slice::Iter<'a, T>;

        fn par_iter(&'a self) -> Self::Iter {
            self.iter()
        }
    }

    impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for Vec<T> {
        type Iter = std::slice::Iter<'a, T>;

        fn par_iter(&'a self) -> Self::Iter {
            self.iter()
        }
    }

    /// `.par_iter_mut()` on mutable slices and collections.
    pub trait IntoParallelRefMutIterator<'a> {
        /// The sequential iterator standing in for the parallel one.
        type Iter: Iterator;

        /// Iterate by mutable reference ("in parallel").
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    impl<'a, T: 'a + Send> IntoParallelRefMutIterator<'a> for [T] {
        type Iter = std::slice::IterMut<'a, T>;

        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.iter_mut()
        }
    }

    impl<'a, T: 'a + Send> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Iter = std::slice::IterMut<'a, T>;

        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.iter_mut()
        }
    }

    /// `.into_par_iter()` on owning collections and ranges.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item;
        /// The sequential iterator standing in for the parallel one.
        type Iter: Iterator<Item = Self::Item>;

        /// Consume into a ("parallel") iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = std::vec::IntoIter<T>;

        fn into_par_iter(self) -> Self::Iter {
            self.into_iter()
        }
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Item = usize;
        type Iter = std::ops::Range<usize>;

        fn into_par_iter(self) -> Self::Iter {
            self
        }
    }

    /// `.par_chunks_mut(n)` on mutable slices.
    pub trait ParallelSliceMut<T> {
        /// Mutable chunks of at most `chunk_size` elements.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }

    /// `.par_chunks(n)` on shared slices.
    pub trait ParallelSlice<T> {
        /// Chunks of at most `chunk_size` elements.
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }

    /// Rayon's `ParallelIterator::chunks` adapter — groups an owning
    /// iterator's items into `Vec`s of at most `n` elements. Provided for
    /// every sequential iterator so glob-importing this prelude makes
    /// `(0..k).into_par_iter().chunks(c)` compile unchanged.
    pub trait IteratorChunks: Iterator + Sized {
        /// Group items into vectors of at most `size` elements.
        fn chunks(self, size: usize) -> ChunksIter<Self> {
            assert!(size > 0, "chunk size must be positive");
            ChunksIter { inner: self, size }
        }
    }

    impl<I: Iterator> IteratorChunks for I {}

    /// Iterator returned by [`IteratorChunks::chunks`].
    pub struct ChunksIter<I> {
        inner: I,
        size: usize,
    }

    impl<I: Iterator> Iterator for ChunksIter<I> {
        type Item = Vec<I::Item>;

        fn next(&mut self) -> Option<Self::Item> {
            let mut chunk = Vec::with_capacity(self.size);
            for item in self.inner.by_ref() {
                chunk.push(item);
                if chunk.len() == self.size {
                    break;
                }
            }
            if chunk.is_empty() {
                None
            } else {
                Some(chunk)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn range_chunks_groups_in_order() {
        let chunks: Vec<Vec<usize>> = (0..7).into_par_iter().chunks(3).collect();
        assert_eq!(chunks, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    fn par_chunks_mut_mutates() {
        let mut v = [1, 1, 1, 1, 1];
        v.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x += i;
            }
        });
        assert_eq!(v, [1, 1, 2, 2, 3]);
    }

    #[test]
    fn pool_installs_and_reports_threads() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("pool");
        assert_eq!(pool.current_num_threads(), 3);
        assert_eq!(pool.install(|| 41 + 1), 42);
    }

    #[test]
    fn install_reports_the_pool_size_and_restores_it() {
        let outer = super::current_num_threads();
        let pool = |n| {
            super::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool")
        };
        let (one, four) = (pool(1), pool(4));
        let nested = four.install(|| {
            let inner = one.install(super::current_num_threads);
            (super::current_num_threads(), inner)
        });
        assert_eq!(nested, (4, 1));
        assert_eq!(super::current_num_threads(), outer);
        let unwound = std::panic::catch_unwind(|| four.install(|| panic!("inside the pool")));
        assert!(unwound.is_err());
        assert_eq!(super::current_num_threads(), outer);
    }

    #[test]
    fn join_returns_both() {
        assert_eq!(super::join(|| 1, || "x"), (1, "x"));
    }
}
