//! Offline stand-in for `crossbeam`, patched in by
//! `benchmark/Cargo.toml`. The repository uses exactly one item,
//! `crossbeam::thread::scope`, at four fan-out sites; this maps it onto
//! `std::thread::scope` with the same shape (`spawn` closures take the
//! scope, the call returns `Err` with the panic payload if a worker
//! panicked).

pub mod thread {
    //! Scoped threads.

    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A scope threads can be spawned in; they may borrow from the
    /// caller's stack and are all joined before [`scope`] returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a spawned scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread; `Err` carries its panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread that receives this scope, as crossbeam's does.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Run `f` with a scope; every spawned thread is joined before this
    /// returns. A panic is reported as `Err` with its payload, as
    /// crossbeam does, where `std::thread::scope` would resume it; every
    /// call site in the repository `expect`s the result.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}
