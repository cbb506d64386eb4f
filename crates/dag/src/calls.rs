//! Per-thread tallies of whole-input passes, for tests that must show a
//! code path never runs one.
//!
//! A pass that walks its whole input — a graph rebuild, a topological
//! sort, a state construction — calls [`note`] on entry under a fixed
//! name; a test reads [`count`] before and after the path it checks.
//! The tallies are thread-local, so tests running side by side do not see
//! each other's calls (the checked path must run on the test's thread),
//! and they exist in debug builds only: in a release build [`note`] is
//! empty and [`count`] is always 0, so such a test is `#[cfg(debug_assertions)]`.
//!
//! ```
//! fn rebuild() {
//!     bsp_dag::calls::note("rebuild");
//! }
//! let before = bsp_dag::calls::count("rebuild");
//! rebuild();
//! // 1 when `bsp_dag` itself was built with debug assertions, else 0.
//! assert!(bsp_dag::calls::count("rebuild") - before <= 1);
//! ```

#[cfg(debug_assertions)]
thread_local! {
    static TALLIES: std::cell::RefCell<Vec<(&'static str, u64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Records one call of the pass `name` on this thread (debug builds).
#[inline]
pub fn note(name: &'static str) {
    #[cfg(debug_assertions)]
    TALLIES.with_borrow_mut(|t| match t.iter_mut().find(|(n, _)| *n == name) {
        Some((_, c)) => *c += 1,
        None => t.push((name, 1)),
    });
    #[cfg(not(debug_assertions))]
    let _ = name;
}

/// Calls of the pass `name` recorded on this thread so far (always 0 in
/// a release build).
pub fn count(name: &'static str) -> u64 {
    #[cfg(debug_assertions)]
    return TALLIES.with_borrow(|t| t.iter().find(|(n, _)| *n == name).map_or(0, |&(_, c)| c));
    #[cfg(not(debug_assertions))]
    {
        let _ = name;
        0
    }
}
