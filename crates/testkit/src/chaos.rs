//! A deterministic chaos / fault-injection harness.
//!
//! Robustness claims ("every engine degrades gracefully") are only
//! testable if failures can be *provoked on demand, reproducibly*. This
//! module provides seeded fault injection at named **injection points**
//! scattered through the workspace (`"par.worker"`, `"sat.budget"`,
//! `"parse.design"`, `"compose.threat.panic"`, ...). Each point asks
//! [`fires`] whether to inject, passing a caller-chosen `salt` (an item
//! index, a solve ordinal, an input length). The decision is a pure
//! function of `(seed, point, salt)` — **never** of call order or thread
//! schedule — so a chaos run is bit-identical across worker counts and
//! repeat invocations.
//!
//! Activation, in priority order:
//!
//! 1. a scoped override installed by [`with_seed`], [`with_forced`] or
//!    [`without_chaos`] (tests). Scopes are **thread-local**: a scope
//!    binds the thread that entered it and the [`crate::par`] workers
//!    that thread spawns while the scope is live, which inherit it so a
//!    chaos run is the same at every worker count. Any other thread,
//!    scoped or unscoped, never observes it. Scopes nest; leaving one
//!    restores the enclosing configuration;
//! 2. the `SECEDA_CHAOS=<seed>` environment variable (decimal or
//!    `0x`-prefixed hex), read once on first use, process-wide.
//!
//! When neither is present the harness is off and every check is a
//! thread-local read — the production hot paths pay one predictable
//! branch.
//!
//! Injected effects are the small set the engines must survive:
//! panics ([`maybe_panic`]), budget exhaustion ([`maybe_exhaust`]), and
//! truncated parser input ([`truncate_input`]). Every actual injection
//! increments a process-wide counter ([`injections`]) that callers
//! surface as the `chaos.injections` trace counter.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Total number of faults injected since process start.
static INJECTIONS: AtomicU64 = AtomicU64::new(0);

/// The configuration `SECEDA_CHAOS` supplies (off when unset), read on
/// first use.
static ENV: OnceLock<ChaosConfig> = OnceLock::new();

thread_local! {
    /// The innermost scoped override live on this thread, if any.
    static SCOPE: RefCell<Option<Arc<ChaosConfig>>> = const { RefCell::new(None) };
}

#[derive(Debug, Clone, Default)]
struct ChaosConfig {
    /// Seed for probabilistic firing; `None` disables random injection
    /// (a forced point may still fire).
    seed: Option<u64>,
    /// A point forced to always fire, optionally only at one salt.
    forced: Option<(String, Option<u64>)>,
}

impl ChaosConfig {
    fn is_on(&self) -> bool {
        self.seed.is_some() || self.forced.is_some()
    }
}

/// Parses a `SECEDA_CHAOS` value: decimal, or hex with a `0x` prefix.
fn parse_seed(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Runs `f` on the configuration in effect on this thread: the
/// innermost scope, else the environment.
fn with_config<R>(f: impl FnOnce(&ChaosConfig) -> R) -> R {
    SCOPE.with(|s| match &*s.borrow() {
        Some(cfg) => f(cfg),
        None => f(ENV.get_or_init(|| ChaosConfig {
            seed: std::env::var("SECEDA_CHAOS")
                .ok()
                .and_then(|v| parse_seed(&v)),
            forced: None,
        })),
    })
}

/// Whether chaos injection is currently enabled on this thread (scoped
/// override or `SECEDA_CHAOS` in the environment).
#[inline]
pub fn active() -> bool {
    with_config(ChaosConfig::is_on)
}

/// The seed in effect on this thread: the innermost scope's, else the
/// one `SECEDA_CHAOS` supplies.
pub fn current_seed() -> Option<u64> {
    with_config(|cfg| cfg.seed)
}

/// Total number of faults injected so far in this process (panics,
/// exhaustions, truncations). Monotonic; callers mirror deltas into the
/// `chaos.injections` trace counter.
pub fn injections() -> u64 {
    INJECTIONS.load(Ordering::Relaxed)
}

/// SplitMix64 — the workspace's standard seed scrambler.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the point name, so the decision stream differs per point.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The pure decision function: does injection point `point` fire at
/// `salt` under the current configuration?
///
/// Roughly 1-in-8 of `(point, salt)` pairs fire under a seed; a forced
/// point fires always (or at exactly its pinned salt). The result
/// depends only on the configuration, the point name, and the salt —
/// never on call order — which is what makes chaos runs deterministic
/// across thread schedules.
pub fn fires(point: &str, salt: u64) -> bool {
    with_config(|cfg| {
        let forced = cfg
            .forced
            .as_ref()
            .is_some_and(|(fp, fsalt)| fp == point && fsalt.is_none_or(|s| s == salt));
        forced
            || cfg.seed.is_some_and(|seed| {
                let mix = splitmix64(seed ^ fnv1a(point) ^ splitmix64(salt));
                mix & 7 == 0
            })
    })
}

/// Records one actual injection.
fn record() {
    INJECTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Panics with a recognizable chaos payload if `point` fires at `salt`.
///
/// # Panics
///
/// Deliberately, when the injection fires.
pub fn maybe_panic(point: &str, salt: u64) {
    if fires(point, salt) {
        record();
        panic!("chaos: injected panic at {point}#{salt}");
    }
}

/// Returns `true` — "pretend the budget is exhausted" — if `point`
/// fires at `salt`.
pub fn maybe_exhaust(point: &str, salt: u64) -> bool {
    if fires(point, salt) {
        record();
        true
    } else {
        false
    }
}

/// Truncates `text` at a seed-chosen char boundary if `point` fires
/// (salted by the input length). `None` means "no injection — use the
/// input as is".
pub fn truncate_input(point: &str, text: &str) -> Option<String> {
    let salt = text.len() as u64;
    if text.is_empty() || !fires(point, salt) {
        return None;
    }
    let seed = current_seed().unwrap_or(0);
    let mut cut = (splitmix64(seed ^ fnv1a(point) ^ salt) % salt) as usize;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    record();
    Some(text[..cut].to_string())
}

/// The scoped configuration of one thread, captured so the workers it
/// spawns run under it too.
#[derive(Debug, Clone)]
pub(crate) struct Inherited(Option<Arc<ChaosConfig>>);

/// Captures this thread's scoped configuration (none outside every
/// scope, so workers then read the environment like their parent).
pub(crate) fn inherit() -> Inherited {
    Inherited(SCOPE.with(|s| s.borrow().clone()))
}

impl Inherited {
    /// Runs `f` on the current (worker) thread under the captured
    /// configuration.
    pub(crate) fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = install(self.0.clone());
        f()
    }
}

/// Restores the enclosing configuration when a scope ends (also on
/// panic — chaos scopes inject panics on purpose).
struct Restore(Option<Arc<ChaosConfig>>);

impl Drop for Restore {
    fn drop(&mut self) {
        let prev = self.0.take();
        SCOPE.with(|s| *s.borrow_mut() = prev);
    }
}

fn install(cfg: Option<Arc<ChaosConfig>>) -> Restore {
    Restore(SCOPE.with(|s| s.replace(cfg)))
}

fn scoped<R>(cfg: ChaosConfig, f: impl FnOnce() -> R) -> R {
    let _restore = install(Some(Arc::new(cfg)));
    f()
}

/// Runs `f` with chaos enabled under `seed` on this thread (and the
/// `par` workers it spawns), restoring the previous configuration
/// afterwards.
pub fn with_seed<R>(seed: u64, f: impl FnOnce() -> R) -> R {
    scoped(
        ChaosConfig {
            seed: Some(seed),
            forced: None,
        },
        f,
    )
}

/// Runs `f` with exactly one injection point forced to fire — at every
/// salt, or only at `salt` when given — and no random injection.
/// Restores the previous configuration afterwards.
pub fn with_forced<R>(point: &str, salt: Option<u64>, f: impl FnOnce() -> R) -> R {
    scoped(
        ChaosConfig {
            seed: None,
            forced: Some((point.to_string(), salt)),
        },
        f,
    )
}

/// Runs `f` with chaos disabled, even if `SECEDA_CHAOS` is set. Chaos
/// tests use this for their straight-through reference runs.
pub fn without_chaos<R>(f: impl FnOnce() -> R) -> R {
    scoped(ChaosConfig::default(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_when_env_unset() {
        // the test environment must not set SECEDA_CHAOS; under an
        // explicit scope the harness switches on and back off
        without_chaos(|| {
            assert!(!active());
            assert!(!fires("any.point", 0));
            assert!(truncate_input("any.point", "abcdef").is_none());
        });
    }

    #[test]
    fn decisions_are_pure_in_point_and_salt() {
        with_seed(0xDEAD_BEEF, || {
            let a: Vec<bool> = (0..256).map(|s| fires("par.worker", s)).collect();
            let b: Vec<bool> = (0..256).map(|s| fires("par.worker", s)).collect();
            assert_eq!(a, b, "same (seed, point, salt) must agree across calls");
            let hits = a.iter().filter(|&&x| x).count();
            // ~1/8 rate: loose band, but never all-or-nothing
            assert!(hits > 8 && hits < 96, "hit rate off: {hits}/256");
            let other: Vec<bool> = (0..256).map(|s| fires("sat.budget", s)).collect();
            assert_ne!(a, other, "different points must see different streams");
        });
    }

    #[test]
    fn forced_point_fires_only_at_pinned_salt() {
        with_forced("compose.threat.panic", Some(2), || {
            assert!(fires("compose.threat.panic", 2));
            assert!(!fires("compose.threat.panic", 1));
            assert!(!fires("other.point", 2));
        });
        with_forced("compose.threat.panic", None, || {
            assert!(fires("compose.threat.panic", 0));
            assert!(fires("compose.threat.panic", 77));
        });
    }

    #[test]
    fn maybe_panic_payload_is_recognizable() {
        let before = injections();
        let caught = std::panic::catch_unwind(|| {
            with_forced("unit.panic", None, || maybe_panic("unit.panic", 5));
        })
        .expect_err("forced point must panic");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("chaos: injected panic at unit.panic#5"),
            "{msg}"
        );
        assert!(injections() > before);
    }

    #[test]
    fn truncation_is_deterministic_and_shorter() {
        with_forced("parse.design", None, || {
            let text = "INPUT(a)\nINPUT(b)\nOUTPUT(c)\nc = AND(a, b)\n";
            let t1 = truncate_input("parse.design", text).expect("forced fire");
            let t2 = truncate_input("parse.design", text).expect("forced fire");
            assert_eq!(t1, t2);
            assert!(t1.len() < text.len());
            assert!(text.starts_with(&t1));
        });
    }

    #[test]
    fn scopes_are_invisible_to_other_threads() {
        // a forced point fires at every salt; a random seed (ambient
        // SECEDA_CHAOS) fires at about one in eight
        let all_fire = || (0..64).all(|s| fires("unit.scope", s));
        with_forced("unit.scope", None, || {
            assert!(all_fire());
            let elsewhere = std::thread::spawn(all_fire).join().expect("thread");
            assert!(!elsewhere, "an unscoped thread saw another thread's scope");
        });
    }

    #[test]
    fn nested_scopes_restore_the_enclosing_one() {
        with_seed(7, || {
            without_chaos(|| assert!(!active()));
            assert_eq!(current_seed(), Some(7));
            with_seed(8, || assert_eq!(current_seed(), Some(8)));
            assert_eq!(current_seed(), Some(7));
        });
    }

    #[test]
    fn scopes_restore_on_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_seed(1, || panic!("boom"));
        });
        without_chaos(|| assert!(!active()));
    }
}
