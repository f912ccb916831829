//! Hands freed heap pages back to the OS after a snapshot swap.
//!
//! Each `apply-delta` frees a whole graph version plus the plans rebuilt
//! around it: a few MB of large blocks per delta. Under concurrent
//! queries glibc keeps those pages in its arenas, so resident memory of
//! a long-running server creeps up with the delta rate even though
//! nothing leaks. `malloc_trim(0)` releases the free pages at the top
//! of every arena and `madvise`s away free pages inside them.
//!
//! Only glibc on Linux has `malloc_trim`; elsewhere this is a no-op.

/// Returns free heap memory to the OS where the allocator supports it.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` is a thread-safe glibc entry point that takes
    // the allocator's own arena locks; it has no preconditions on its
    // argument and only returns pages no live allocation uses. The
    // return value (whether memory was released) carries no obligation.
    unsafe {
        malloc_trim(0);
    }
}

/// Returns free heap memory to the OS where the allocator supports it.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn release_free_memory() {}
