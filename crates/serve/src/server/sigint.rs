//! SIGINT → the same graceful shutdown a `shutdown` request triggers
//! (Unix only; the module is not compiled elsewhere).

use super::Shared;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

static FIRED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_sig: i32) {
    // Async-signal-safe: set a flag; the watcher thread does the work.
    FIRED.store(true, Ordering::SeqCst);
}

extern "C" {
    // `signal(2)` from the C runtime std already links against —
    // enough for a graceful-shutdown hook without a libc crate.
    fn signal(signum: i32, handler: usize) -> usize;
}

pub(super) fn install(shared: Arc<Shared>) {
    // SAFETY: `signal` is the C library's own; the handler it installs
    // only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(2 /* SIGINT */, on_sigint as *const () as usize);
    }
    std::thread::Builder::new()
        .name("bsp-serve-sigint".to_string())
        .spawn(move || loop {
            if FIRED.swap(false, Ordering::SeqCst) {
                shared.begin_shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .expect("spawn sigint watcher");
}
