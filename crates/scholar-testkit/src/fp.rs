//! The failpoint registry: named fault-injection sites with seeded,
//! reproducible schedules.
//!
//! Production code marks a site with `failpoint!("site")` (unit form) or
//! `failpoint!("site", <on-trigger expr>)` (error form). The macro lives
//! in each instrumented crate and expands to [`hit`] only when that
//! crate's `failpoints` feature is on; otherwise it expands to nothing,
//! so release builds carry zero overhead — not even a branch.
//!
//! A test arms sites through a [`Scenario`] guard:
//!
//! ```
//! use scholar_testkit::fp::{self, Action, Scenario};
//!
//! let scenario = Scenario::begin(); // serializes failpoint tests, resets on drop
//! fp::set("corpus.jsonl.io", Action::Trigger); // every hit fires
//! fp::script("swap.publish", vec![Action::DelayMs(5), Action::Off]);
//! fp::seeded("serve.respond", 42, fp::FaultMix { trigger: 0.0, delay: 0.1, panic: 0.05, max_delay_ms: 2 });
//! assert!(fp::hit("corpus.jsonl.io")); // what the macro calls
//! assert_eq!(fp::fired("corpus.jsonl.io"), 1);
//! drop(scenario);
//! assert!(!fp::hit("corpus.jsonl.io")); // disarmed again
//! ```
//!
//! Every decision a seeded site takes is driven by its own
//! [`srand::rngs::SmallRng`], so a schedule is a pure function of
//! `(seed, hit sequence)`: re-running the same test with the same seed
//! replays the exact same faults.

use srand::rngs::SmallRng;
use srand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The canonical catalogue of every `failpoint!` site in the workspace.
///
/// scholar-lint's FAILPOINT-SYNC rule holds this list, the sites that
/// actually appear in production code, and the DESIGN.md §2.7 table in
/// exact three-way agreement — adding, renaming, or deleting a site
/// without updating all three fails CI. Keep the list sorted.
pub const SITES: &[&str] = &[
    "corpus.aan.parse",
    "corpus.colstore.io",
    "corpus.colstore.map",
    "corpus.jsonl.io",
    "corpus.jsonl.parse",
    "corpus.mag.parse",
    "incremental.extend",
    "reindex.coalesce",
    "reindex.publish",
    "replay.record.io",
    "serve.accept",
    "serve.handle",
    "serve.io.read",
    "serve.io.write",
    "serve.respond",
    "snapshot.io",
    "swap.publish",
    "swap.retire",
    "wal.append",
    "wal.replay",
];

/// What a site does on one hit.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Do nothing (the state of every unarmed site).
    Off,
    /// Fire the site's trigger arm: the `failpoint!("site", expr)` form
    /// runs `expr` (typically `return Err(...)`); the unit form ignores
    /// a trigger.
    Trigger,
    /// Sleep this many milliseconds, then continue normally. The lever
    /// for widening race windows deterministically.
    DelayMs(u64),
    /// Panic with a message naming the site — exercises catch/recovery
    /// paths.
    Panic,
}

/// Probabilities for a seeded random schedule. Whatever probability mass
/// is left over (`1 - trigger - delay - panic`) does nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Probability a hit fires the trigger arm.
    pub trigger: f64,
    /// Probability a hit sleeps.
    pub delay: f64,
    /// Probability a hit panics.
    pub panic: f64,
    /// Upper bound (exclusive, in ms) for injected delays; 0 disables.
    pub max_delay_ms: u64,
}

impl FaultMix {
    /// A mix that only fires the trigger arm, with probability `p`.
    pub fn errors(p: f64) -> Self {
        FaultMix { trigger: p, delay: 0.0, panic: 0.0, max_delay_ms: 0 }
    }

    /// A mix that only injects delays below `max_delay_ms`, with
    /// probability `p`.
    pub fn delays(p: f64, max_delay_ms: u64) -> Self {
        FaultMix { trigger: 0.0, delay: p, panic: 0.0, max_delay_ms }
    }

    /// A mix that only panics, with probability `p`.
    pub fn panics(p: f64) -> Self {
        FaultMix { trigger: 0.0, delay: 0.0, panic: p, max_delay_ms: 0 }
    }
}

/// How an armed site decides what each hit does.
#[derive(Debug)]
enum Schedule {
    /// The same action on every hit.
    Fixed(Action),
    /// A finite script consumed one action per hit; [`Action::Off`] after
    /// it runs out.
    Script(Vec<Action>, usize),
    /// Seeded random draws from a [`FaultMix`].
    Seeded(SmallRng, FaultMix),
}

impl Schedule {
    fn next(&mut self) -> Action {
        match self {
            Schedule::Fixed(a) => a.clone(),
            Schedule::Script(actions, pos) => {
                let a = actions.get(*pos).cloned().unwrap_or(Action::Off);
                *pos += 1;
                a
            }
            Schedule::Seeded(rng, mix) => {
                let roll: f64 = rng.gen();
                if roll < mix.trigger {
                    Action::Trigger
                } else if roll < mix.trigger + mix.delay {
                    if mix.max_delay_ms == 0 {
                        Action::Off
                    } else {
                        Action::DelayMs(rng.gen_range(0u64..mix.max_delay_ms))
                    }
                } else if roll < mix.trigger + mix.delay + mix.panic {
                    Action::Panic
                } else {
                    Action::Off
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct SiteState {
    schedule: Option<Schedule>,
    /// Times the site was evaluated.
    hits: u64,
    /// Times the evaluation did something (trigger, delay, or panic).
    fired: u64,
}

#[derive(Debug, Default)]
struct Registry {
    sites: HashMap<String, SiteState>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    // A panic *while holding the lock* can only happen between bookkeeping
    // statements (the injected panic itself is raised after the guard is
    // dropped), so a poisoned registry is still structurally sound.
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Evaluate the site: the function the `failpoint!` macro expands to.
///
/// Executes [`Action::DelayMs`] and [`Action::Panic`] internally; returns
/// `true` when the action is [`Action::Trigger`], telling the macro's
/// error arm to run. Unarmed sites return `false` after a map lookup.
pub fn hit(site: &str) -> bool {
    let action = {
        let mut reg = registry();
        let state = reg.sites.entry(site.to_string()).or_default();
        state.hits += 1;
        let action = match &mut state.schedule {
            Some(s) => s.next(),
            None => Action::Off,
        };
        if action != Action::Off {
            state.fired += 1;
        }
        action
        // Lock released here: the sleep/panic below must not hold it.
    };
    match action {
        Action::Off => false,
        Action::Trigger => true,
        Action::DelayMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Action::Panic => panic!("failpoint {site:?} injected a panic"),
    }
}

/// Arm `site` with the same action on every hit.
pub fn set(site: &str, action: Action) {
    registry().sites.entry(site.to_string()).or_default().schedule = Some(Schedule::Fixed(action));
}

/// Arm `site` with a finite script, one action per hit (then off).
pub fn script(site: &str, actions: Vec<Action>) {
    registry().sites.entry(site.to_string()).or_default().schedule =
        Some(Schedule::Script(actions, 0));
}

/// Arm `site` with a seeded random schedule drawing from `mix`. The
/// decision sequence is a pure function of `seed`, so any failure it
/// provokes replays exactly from the same seed.
pub fn seeded(site: &str, seed: u64, mix: FaultMix) {
    registry().sites.entry(site.to_string()).or_default().schedule =
        Some(Schedule::Seeded(SmallRng::seed_from_u64(seed), mix));
}

/// Disarm `site` (its counters survive until [`reset`]).
pub fn clear(site: &str) {
    if let Some(state) = registry().sites.get_mut(site) {
        state.schedule = None;
    }
}

/// Disarm every site and zero every counter.
pub fn reset() {
    registry().sites.clear();
}

/// Times `site` was evaluated (armed or not).
pub fn hits(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.hits)
}

/// Times `site` actually did something (trigger, delay, or panic).
pub fn fired(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.fired)
}

/// RAII guard for one failpoint scenario.
///
/// The registry is process-global and Rust runs tests in one binary
/// concurrently, so scenarios must not overlap: `begin()` takes a global
/// scenario lock (held for the guard's lifetime) and `Drop` resets the
/// registry. Tests that arm failpoints should hold one of these for
/// their whole body.
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

impl Scenario {
    /// Acquire the scenario lock and start from a clean registry.
    pub fn begin() -> Self {
        static SCENARIO_LOCK: Mutex<()> = Mutex::new(());
        // A previous scenario that panicked mid-test poisons the lock;
        // the registry reset below restores the invariant either way.
        let guard = SCENARIO_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        Scenario { _guard: guard }
    }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_catalogue_is_sorted_and_unique() {
        assert!(SITES.windows(2).all(|w| w[0] < w[1]), "SITES must be sorted and deduplicated");
        assert!(SITES.iter().all(|s| s.contains('.')), "site names are dotted lowercase");
    }

    #[test]
    fn unarmed_sites_do_nothing() {
        let _s = Scenario::begin();
        assert!(!hit("tests.nothing"));
        assert_eq!(hits("tests.nothing"), 1);
        assert_eq!(fired("tests.nothing"), 0);
    }

    #[test]
    fn fixed_trigger_fires_every_hit() {
        let _s = Scenario::begin();
        set("tests.fixed", Action::Trigger);
        for _ in 0..5 {
            assert!(hit("tests.fixed"));
        }
        assert_eq!(fired("tests.fixed"), 5);
        clear("tests.fixed");
        assert!(!hit("tests.fixed"));
        assert_eq!(hits("tests.fixed"), 6);
    }

    #[test]
    fn scripts_run_once_then_disarm() {
        let _s = Scenario::begin();
        script("tests.script", vec![Action::Off, Action::Trigger, Action::DelayMs(0)]);
        assert!(!hit("tests.script"));
        assert!(hit("tests.script"));
        assert!(!hit("tests.script")); // the delay
        assert!(!hit("tests.script")); // past the end
        assert_eq!(fired("tests.script"), 2);
    }

    #[test]
    fn seeded_schedules_replay_exactly() {
        let _s = Scenario::begin();
        let mix = FaultMix { trigger: 0.3, delay: 0.2, panic: 0.0, max_delay_ms: 1 };
        let run = |seed: u64| -> Vec<bool> {
            seeded("tests.seeded", seed, mix);
            (0..64).map(|_| hit("tests.seeded")).collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.iter().any(|&t| t), "p=0.3 over 64 hits should trigger at least once");
        let c = run(8);
        assert_ne!(a, c, "different seeds should explore different schedules");
    }

    #[test]
    fn injected_panic_names_the_site() {
        let _s = Scenario::begin();
        set("tests.panic", Action::Panic);
        let err = std::panic::catch_unwind(|| hit("tests.panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("tests.panic"), "panic message must name the site: {msg}");
        // The registry survives the panic and keeps counting.
        assert_eq!(fired("tests.panic"), 1);
    }

    #[test]
    fn scenario_drop_resets_the_registry() {
        {
            let _s = Scenario::begin();
            set("tests.reset", Action::Trigger);
            assert!(hit("tests.reset"));
        }
        let _s = Scenario::begin();
        assert!(!hit("tests.reset"));
        assert_eq!(hits("tests.reset"), 1, "counters must reset between scenarios");
    }
}
