//! Deterministic fault injection for resilience testing.
//!
//! A fault *site* is a named point in the pipeline that asks
//! [`fire`] whether it should fail this time. [`SITES`] is the
//! canonical vocabulary — every site the workspace defines, in one
//! place:
//!
//! | site        | effect at the call site                              |
//! |-------------|------------------------------------------------------|
//! | `nan_grad`  | trainer poisons the captured gradients with NaN      |
//! | `ckpt_io`   | checkpoint writer returns an I/O error               |
//! | `abort`     | trainer panics (or hard-aborts) mid-epoch            |
//! | `nan_val`   | `validation_loss` returns NaN                        |
//! | `serve_io`  | serving-snapshot read returns a transient I/O error  |
//! | `reload`    | serving-snapshot decode reports corruption           |
//! | `serve_nan` | serve engine treats one batched forward as non-finite|
//! | `serve_panic` | serve worker thread panics outside any catch_unwind |
//!
//! The trainer sites (`nan_grad`/`ckpt_io`/`abort`/`nan_val`) exercise
//! training resilience (skip-and-recover, checkpoint retry, resume);
//! the serve sites (`serve_io`/`reload`/`serve_nan`/`serve_panic`)
//! exercise the serving degradation ladder (reload retry,
//! validate-then-swap keeping last-good, circuit breaker tripping to
//! `DEGRADED`, and the worker-death guard that answers `ERROR` to
//! every stranded client instead of hanging them).
//!
//! Triggers are **call-count based**, never time- or randomness-based:
//! the N-th call to `fire(site)` fires, exactly once, so a run with a
//! fixed seed and a fixed fault plan is fully reproducible. Faults are
//! armed programmatically ([`arm`]) or from the `TRAFFIC_FAULTS`
//! environment variable, parsed once on first use:
//!
//! ```text
//! TRAFFIC_FAULTS="nan_grad@5,abort@12:hard,ckpt_io@1"
//! ```
//!
//! `site@N` fires on the N-th call (1-based); an optional `:hard`
//! suffix upgrades the mode (meaningful for `abort`, where the default
//! is a catchable panic and `hard` is `std::process::abort`, i.e. a
//! SIGKILL-grade death no destructor or unwind handler sees).
//!
//! **Cell filter.** Under the parallel experiment scheduler, cells on
//! other threads would otherwise advance a site's global call counter
//! nondeterministically. A filter ([`set_cell_filter`] or the
//! `TRAFFIC_FAULT_CELL` env var) restricts counting to calls made
//! inside a cell scope whose label contains the given substring (see
//! [`crate::scope`]), making fault plans reproducible in both serial
//! and parallel sweeps. Plans and the filter stay process-wide, so
//! tests that share a process still serialise: every test that arms a
//! fault **or reaches a fault site** (training and sweeps reach one on
//! every batch) holds its binary's fault lock, or its calls can use up
//! another test's plan.
//!
//! The disabled fast path is one relaxed atomic load — safe to leave
//! `fire` calls on hot paths.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::{counter, emit_with, Event};

/// Every fault site defined across the workspace, as
/// `(site, effect at the call site)` pairs — the single source of
/// truth for the vocabulary (the module table above renders the same
/// list). Tools that validate `TRAFFIC_FAULTS` plans or enumerate
/// chaos coverage iterate this instead of hard-coding names.
pub const SITES: &[(&str, &str)] = &[
    ("nan_grad", "trainer poisons the captured gradients with NaN"),
    ("ckpt_io", "checkpoint writer returns an I/O error"),
    ("abort", "trainer panics (or hard-aborts) mid-epoch"),
    ("nan_val", "validation_loss returns NaN"),
    ("serve_io", "serving-snapshot read returns a transient I/O error"),
    ("reload", "serving-snapshot decode reports corruption"),
    ("serve_nan", "serve engine treats one batched forward as non-finite"),
    ("serve_panic", "serve worker thread panics outside any catch_unwind"),
];

/// How the site should fail when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Recoverable failure: the site reports an error / poisons a value.
    Soft,
    /// Unrecoverable: the site should kill the process outright
    /// (`std::process::abort`), simulating SIGKILL / power loss.
    Hard,
}

struct Plan {
    /// Fires on the `at`-th call (1-based).
    at: u64,
    mode: FaultMode,
    calls: u64,
    fired: bool,
}

/// Number of armed-but-unfired faults; the `fire` fast path.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static ENV_PARSED: AtomicBool = AtomicBool::new(false);

fn plans() -> &'static Mutex<HashMap<String, Plan>> {
    static PLANS: OnceLock<Mutex<HashMap<String, Plan>>> = OnceLock::new();
    PLANS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cell_filter() -> &'static Mutex<Option<String>> {
    static FILTER: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    FILTER.get_or_init(|| Mutex::new(None))
}

/// Restricts [`fire`] to calls made inside a cell scope whose label
/// contains `filter` (substring match); calls from other cells — or
/// from outside any cell — neither count nor fire. `None` removes the
/// restriction. [`reset`] also clears it.
pub fn set_cell_filter(filter: Option<&str>) {
    *cell_filter().lock().unwrap_or_else(|e| e.into_inner()) = filter.map(str::to_string);
}

fn cell_matches() -> bool {
    let f = cell_filter().lock().unwrap_or_else(|e| e.into_inner());
    match f.as_deref() {
        None => true,
        Some(f) => crate::scope::current_cell().is_some_and(|c| c.contains(f)),
    }
}

fn ensure_env_parsed() {
    if ENV_PARSED.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Ok(spec) = std::env::var("TRAFFIC_FAULTS") {
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match parse_item(item) {
                Some((site, at, mode)) => arm(&site, at, mode),
                None => eprintln!("TRAFFIC_FAULTS: ignoring malformed entry {item:?}"),
            }
        }
    }
    if let Ok(cell) = std::env::var("TRAFFIC_FAULT_CELL") {
        let cell = cell.trim();
        if !cell.is_empty() {
            set_cell_filter(Some(cell));
        }
    }
}

fn parse_item(item: &str) -> Option<(String, u64, FaultMode)> {
    let (site, rest) = item.split_once('@')?;
    let (at, mode) = match rest.split_once(':') {
        Some((n, "hard")) => (n, FaultMode::Hard),
        Some((n, "soft")) => (n, FaultMode::Soft),
        Some(_) => return None,
        None => (rest, FaultMode::Soft),
    };
    let at: u64 = at.parse().ok()?;
    (at > 0 && !site.is_empty()).then(|| (site.to_string(), at, mode))
}

/// Arms `site` to fire on its `at`-th call from now (1-based), once.
/// Re-arming a site replaces its previous plan and resets its counter.
pub fn arm(site: &str, at: u64, mode: FaultMode) {
    assert!(at > 0, "fault trigger counts are 1-based");
    let mut map = plans().lock().unwrap_or_else(|e| e.into_inner());
    let prev = map.insert(site.to_string(), Plan { at, mode, calls: 0, fired: false });
    if prev.is_none_or(|p| p.fired) {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarms every fault, resets call counters, and clears the cell
/// filter (tests).
pub fn reset() {
    let mut map = plans().lock().unwrap_or_else(|e| e.into_inner());
    map.clear();
    ARMED.store(0, Ordering::SeqCst);
    drop(map);
    set_cell_filter(None);
}

/// True when at least one fault is armed and unfired.
pub fn any_armed() -> bool {
    ensure_env_parsed();
    ARMED.load(Ordering::Relaxed) > 0
}

/// Counts one call of `site`; returns the fault mode when this call is
/// the one that should fail. Fires at most once per [`arm`].
pub fn fire(site: &str) -> Option<FaultMode> {
    ensure_env_parsed();
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    if !cell_matches() {
        return None;
    }
    let mut map = plans().lock().unwrap_or_else(|e| e.into_inner());
    let plan = map.get_mut(site)?;
    if plan.fired {
        return None;
    }
    plan.calls += 1;
    if plan.calls != plan.at {
        return None;
    }
    plan.fired = true;
    let mode = plan.mode;
    drop(map);
    ARMED.fetch_sub(1, Ordering::SeqCst);
    counter("faults/injected").inc();
    emit_with(|| {
        Event::new("fault_injected")
            .with("site", site.to_string())
            .with("mode", if mode == FaultMode::Hard { "hard" } else { "soft" })
    });
    Some(mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global fault state: tests serialise on one lock.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn fires_on_nth_call_exactly_once() {
        let _g = lock();
        reset();
        arm("t.site", 3, FaultMode::Soft);
        assert!(any_armed());
        assert_eq!(fire("t.site"), None);
        assert_eq!(fire("t.site"), None);
        assert_eq!(fire("t.site"), Some(FaultMode::Soft));
        for _ in 0..5 {
            assert_eq!(fire("t.site"), None);
        }
        assert!(!any_armed());
        reset();
    }

    #[test]
    fn unknown_sites_do_not_fire() {
        let _g = lock();
        reset();
        arm("t.a", 1, FaultMode::Hard);
        assert_eq!(fire("t.other"), None);
        assert_eq!(fire("t.a"), Some(FaultMode::Hard));
        reset();
    }

    #[test]
    fn rearming_resets_the_counter() {
        let _g = lock();
        reset();
        arm("t.r", 2, FaultMode::Soft);
        assert_eq!(fire("t.r"), None);
        arm("t.r", 2, FaultMode::Soft); // counter back to 0
        assert_eq!(fire("t.r"), None);
        assert_eq!(fire("t.r"), Some(FaultMode::Soft));
        reset();
    }

    #[test]
    fn cell_filter_scopes_counting() {
        let _g = lock();
        reset();
        set_cell_filter(Some("fig1/METR-LA/STGCN"));
        arm("t.cell", 2, FaultMode::Soft);
        // Outside any cell: neither counts nor fires.
        assert_eq!(fire("t.cell"), None);
        {
            // A non-matching cell: still ignored.
            let _scope = crate::scope::CellScope::enter("fig1/METR-LA/DCRNN");
            assert_eq!(fire("t.cell"), None);
        }
        {
            let _scope = crate::scope::CellScope::enter("fig1/METR-LA/STGCN");
            assert_eq!(fire("t.cell"), None); // call 1
            assert_eq!(fire("t.cell"), Some(FaultMode::Soft)); // call 2
        }
        reset(); // must clear the filter too
        arm("t.cell2", 1, FaultMode::Soft);
        assert_eq!(fire("t.cell2"), Some(FaultMode::Soft));
        reset();
    }

    #[test]
    fn env_spec_parsing() {
        assert_eq!(parse_item("nan_grad@5"), Some(("nan_grad".into(), 5, FaultMode::Soft)));
        assert_eq!(parse_item("abort@12:hard"), Some(("abort".into(), 12, FaultMode::Hard)));
        assert_eq!(parse_item("x@1:soft"), Some(("x".into(), 1, FaultMode::Soft)));
        assert_eq!(parse_item("x@0"), None);
        assert_eq!(parse_item("x@"), None);
        assert_eq!(parse_item("@3"), None);
        assert_eq!(parse_item("x@3:weird"), None);
        assert_eq!(parse_item("no-at"), None);
    }
}
