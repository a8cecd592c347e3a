//! §3.3 speculation policy: from the paper's static retry limit `L` to a
//! per-fork-site feedback controller.
//!
//! The paper bounds optimistic re-execution with a single constant: after a
//! fork site has been retried `L` times the process "proceeds
//! pessimistically". That knob is load-bearing at both extremes — too small
//! and clean streaming pipelines are cut short, too large and a contended
//! site burns the server with doomed speculation — and the right value
//! changes as contention shifts at runtime. [`SpeculationPolicy`] makes the
//! choice explicit:
//!
//! * [`SpeculationPolicy::Pessimistic`] — never fork. The sequential
//!   baseline as a first-class mode rather than `limit: 0` folklore.
//! * [`SpeculationPolicy::Static`] — the paper's `L`, unchanged semantics:
//!   a site that has aborted `limit` times since its last commit is denied.
//! * [`SpeculationPolicy::Adaptive`] — a per-site controller driven by the
//!   guess-resolution stream the core already produces (no telemetry sink
//!   required). Each site tracks a success EWMA and a fork→resolve latency
//!   EWMA; commits at a healthy site *deepen* the pipeline (raise the
//!   effective in-flight budget, up to [`MAX_LIMIT`]), root aborts at an
//!   unhealthy site halve it, and a site driven to zero enters a *cooloff*:
//!   fully pessimistic for [`COOLOFF`] denied fork attempts, then a single
//!   probe fork whose outcome decides whether the site ramps back up. Its
//!   tuning is the constants below.
//!
//! Every controller decision is recorded as a [`PolicyShift`] (surfaced as
//! `TelemetryEvent::PolicyShift` by the engines) so traces can show *why* a
//! site was throttled.

use std::collections::HashMap;

/// Success-EWMA threshold separating "deepen" from "back off".
pub const TARGET_SUCCESS: f64 = 0.7;
/// Ceiling for an adaptive site's in-flight budget. (Its floor is 0: a
/// site may collapse to fully pessimistic, and recovers by cooloff and
/// probe.)
pub const MAX_LIMIT: u32 = 16;
/// EWMA smoothing factor in `(0, 1]`; larger reacts faster. The latency
/// and success EWMAs run at this rate under every policy.
pub const EWMA_ALPHA: f64 = 0.5;
/// Denied fork attempts a collapsed site sits out before probing.
pub const COOLOFF: u32 = 4;

/// How a process decides whether a fork site may run optimistically.
///
/// Replaces the old `CoreConfig::retry_limit: u32`; construct via
/// `CoreConfig::pessimistic()`, `CoreConfig::static_limit(L)` or
/// `CoreConfig::adaptive()`, or parse a CLI spec with
/// [`SpeculationPolicy::parse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeculationPolicy {
    /// Never fork: pure sequential execution.
    Pessimistic,
    /// The paper's §3.3 liveness limit `L`: deny a site after `limit`
    /// optimistic re-executions since its last commit.
    Static { limit: u32 },
    /// Per-site feedback control (see module docs).
    Adaptive,
}

impl SpeculationPolicy {
    /// The historical default `L`, kept as the `Static` default and the
    /// adaptive controller's initial per-site budget.
    pub const DEFAULT_STATIC_LIMIT: u32 = 3;

    /// Parse a CLI policy spec.
    ///
    /// Grammar: `pessimistic` | `static:N` | `adaptive`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (head, rest) = match spec.split_once(':') {
            Some((h, r)) => (h, Some(r)),
            None => (spec, None),
        };
        match (head, rest) {
            ("pessimistic", None) => Ok(SpeculationPolicy::Pessimistic),
            ("adaptive", None) => Ok(SpeculationPolicy::Adaptive),
            ("pessimistic" | "adaptive", Some(r)) => {
                Err(format!("{head} takes no arguments, got `{r}`"))
            }
            ("static", rest) => {
                let r = rest.ok_or("static needs a limit, e.g. `static:3`")?;
                let limit = r
                    .parse::<u32>()
                    .map_err(|e| format!("bad static limit `{r}`: {e}"))?;
                Ok(SpeculationPolicy::Static { limit })
            }
            (other, _) => Err(format!(
                "unknown speculation policy `{other}` (expected pessimistic | static:N | adaptive)"
            )),
        }
    }
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy::Static {
            limit: Self::DEFAULT_STATIC_LIMIT,
        }
    }
}

impl std::fmt::Display for SpeculationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeculationPolicy::Pessimistic => write!(f, "pessimistic"),
            SpeculationPolicy::Static { limit } => write!(f, "static:{limit}"),
            SpeculationPolicy::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// Why the controller changed a site's effective limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShiftReason {
    /// A commit at a healthy site raised the budget by one.
    Deepen,
    /// A root abort at an unhealthy site halved the budget.
    BackOff,
    /// The budget hit zero: the site goes pessimistic for [`COOLOFF`]
    /// denied fork attempts.
    Cooloff,
    /// Cooloff expired (or a late commit lifted the EWMA): the site gets a
    /// single-guess probe budget.
    Probe,
}

impl std::fmt::Display for ShiftReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShiftReason::Deepen => "deepen",
            ShiftReason::BackOff => "backoff",
            ShiftReason::Cooloff => "cooloff",
            ShiftReason::Probe => "probe",
        })
    }
}

/// One controller decision, in decision order. Engines drain these into the
/// telemetry stream as `TelemetryEvent::PolicyShift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyShift {
    pub site: u32,
    pub from_limit: u32,
    pub to_limit: u32,
    /// Success EWMA at decision time, in per-mille (integral so telemetry
    /// events stay `Eq`).
    pub success_pm: u32,
    pub reason: ShiftReason,
}

/// Per-fork-site controller state.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteController {
    /// Optimistic re-executions since the last commit (the paper's
    /// per-site retry count; `Static` gates on this).
    pub retries: u32,
    /// Own guesses forked at this site and not yet resolved.
    pub in_flight: u32,
    /// EWMA of resolution outcomes (commit = 1.0, root abort = 0.0;
    /// cascade victims are not sampled — they were dependent, not wrong).
    pub success_ewma: f64,
    /// Effective in-flight budget (`Adaptive` gates on this).
    pub limit: u32,
    /// Remaining denied attempts before this collapsed site probes again.
    pub cooloff: u32,
}

impl SiteController {
    fn new(policy: &SpeculationPolicy) -> Self {
        let limit = match policy {
            SpeculationPolicy::Pessimistic => 0,
            SpeculationPolicy::Static { limit } => *limit,
            SpeculationPolicy::Adaptive => SpeculationPolicy::DEFAULT_STATIC_LIMIT,
        };
        SiteController {
            retries: 0,
            in_flight: 0,
            success_ewma: 1.0,
            limit,
            cooloff: 0,
        }
    }
}

/// All per-site controllers of one process, plus the decision log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeculationState {
    sites: HashMap<u32, SiteController>,
    shifts: Vec<PolicyShift>,
}

impl SpeculationState {
    fn site_mut(&mut self, policy: &SpeculationPolicy, site: u32) -> &mut SiteController {
        self.sites
            .entry(site)
            .or_insert_with(|| SiteController::new(policy))
    }

    fn shift(&mut self, site: u32, from: u32, to: u32, ewma: f64, reason: ShiftReason) {
        self.shifts.push(PolicyShift {
            site,
            from_limit: from,
            to_limit: to,
            success_pm: (ewma.clamp(0.0, 1.0) * 1000.0) as u32,
            reason,
        });
    }

    /// §3.3 fork gate. `&mut` because a denial at a cooling-off site counts
    /// down toward its probe.
    pub fn can_fork(&mut self, policy: &SpeculationPolicy, site: u32) -> bool {
        match policy {
            SpeculationPolicy::Pessimistic => false,
            SpeculationPolicy::Static { limit } => self.retries_at(site) < *limit,
            SpeculationPolicy::Adaptive => {
                let c = self.site_mut(policy, site);
                if c.cooloff > 0 {
                    c.cooloff -= 1;
                    if c.cooloff > 0 {
                        return false;
                    }
                    // Cooloff served: grant a single-guess probe budget.
                    let (from, ewma) = (c.limit, c.success_ewma);
                    c.limit = 1;
                    self.shift(site, from, 1, ewma, ShiftReason::Probe);
                }
                let c = self.site_mut(policy, site);
                c.in_flight < c.limit
            }
        }
    }

    /// A fork happened at `site` (the gate said yes, or an engine forced
    /// it): one more own guess in flight.
    pub fn note_fork(&mut self, policy: &SpeculationPolicy, site: u32) {
        self.site_mut(policy, site).in_flight += 1;
    }

    /// Feed one own-guess resolution into the controller. `is_root` is
    /// false for cascade victims (`DependencyAbort`): they decrement the
    /// in-flight count but are not a success sample and do not count as a
    /// retry.
    pub fn resolved(
        &mut self,
        policy: &SpeculationPolicy,
        site: u32,
        committed: bool,
        is_root: bool,
    ) {
        // The success EWMA runs under every policy (Static sites show up
        // in telemetry too); only Adaptive acts on it.
        let c = self.site_mut(policy, site);
        c.in_flight = c.in_flight.saturating_sub(1);
        if committed || is_root {
            let sample = if committed { 1.0 } else { 0.0 };
            c.success_ewma = EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * c.success_ewma;
        }
        if committed {
            c.retries = 0;
        } else if is_root {
            c.retries += 1;
        }

        if !matches!(policy, SpeculationPolicy::Adaptive) {
            return;
        }
        let (from, ewma) = (c.limit, c.success_ewma);
        if committed {
            if c.cooloff > 0 {
                if ewma >= TARGET_SUCCESS {
                    // A late commit proved the site healthy again: cut the
                    // cooloff short with a probe budget.
                    c.cooloff = 0;
                    c.limit = 1;
                    self.shift(site, from, 1, ewma, ShiftReason::Probe);
                }
            } else if ewma >= TARGET_SUCCESS && c.limit < MAX_LIMIT {
                c.limit += 1;
                let to = c.limit;
                self.shift(site, from, to, ewma, ShiftReason::Deepen);
            }
        } else if is_root && ewma < TARGET_SUCCESS {
            if c.limit > 0 {
                let to = c.limit / 2;
                c.limit = to;
                if to == 0 {
                    c.cooloff = COOLOFF;
                    self.shift(site, from, to, ewma, ShiftReason::Cooloff);
                } else {
                    self.shift(site, from, to, ewma, ShiftReason::BackOff);
                }
            } else if c.cooloff == 0 {
                // A probe (or stray in-flight guess) failed at an already
                // collapsed site: sit out another cooloff.
                c.cooloff = COOLOFF;
                self.shift(site, from, 0, ewma, ShiftReason::Cooloff);
            }
        }
    }

    pub fn retries_at(&self, site: u32) -> u32 {
        self.sites.get(&site).map(|c| c.retries).unwrap_or(0)
    }

    /// Controller state for one site, if it ever forked or was gated.
    pub fn site(&self, site: u32) -> Option<&SiteController> {
        self.sites.get(&site)
    }

    /// All sites with controller state, in unspecified order.
    pub fn sites(&self) -> impl Iterator<Item = (u32, &SiteController)> {
        self.sites.iter().map(|(s, c)| (*s, c))
    }

    /// The decision log, in decision order (cursor-synced into telemetry).
    pub fn shifts(&self) -> &[PolicyShift] {
        &self.shifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one root abort through fork+resolve.
    fn abort_once(s: &mut SpeculationState, p: &SpeculationPolicy, site: u32) {
        s.note_fork(p, site);
        s.resolved(p, site, false, true);
    }

    fn commit_once(s: &mut SpeculationState, p: &SpeculationPolicy, site: u32) {
        s.note_fork(p, site);
        s.resolved(p, site, true, true);
    }

    #[test]
    fn pessimistic_never_forks() {
        let p = SpeculationPolicy::Pessimistic;
        let mut s = SpeculationState::default();
        assert!(!s.can_fork(&p, 1));
        assert!(!s.can_fork(&p, 7));
    }

    #[test]
    fn static_matches_paper_semantics() {
        let p = SpeculationPolicy::Static { limit: 2 };
        let mut s = SpeculationState::default();
        assert!(s.can_fork(&p, 1));
        abort_once(&mut s, &p, 1);
        assert!(s.can_fork(&p, 1));
        abort_once(&mut s, &p, 1);
        assert!(!s.can_fork(&p, 1), "budget of 2 exhausted");
        assert_eq!(s.retries_at(1), 2);
        // A commit resets the budget (a fork there is a new computation).
        commit_once(&mut s, &p, 1);
        assert_eq!(s.retries_at(1), 0);
        assert!(s.can_fork(&p, 1));
        // Other sites are independent.
        assert!(s.can_fork(&p, 2));
    }

    #[test]
    fn adaptive_denies_after_thrash() {
        let p = SpeculationPolicy::Adaptive;
        let mut s = SpeculationState::default();
        // Fresh site forks (initial budget = DEFAULT_STATIC_LIMIT).
        assert!(s.can_fork(&p, 1));
        // Repeated root aborts collapse the limit to zero.
        for _ in 0..8 {
            abort_once(&mut s, &p, 1);
        }
        let c = s.site(1).unwrap();
        assert_eq!(c.limit, 0, "thrashing site collapsed");
        assert!(c.cooloff > 0, "collapsed site is cooling off");
        assert!(!s.can_fork(&p, 1), "cooling-off site denies forks");
        assert!(
            s.shifts()
                .iter()
                .any(|sh| sh.reason == ShiftReason::Cooloff),
            "collapse recorded as a PolicyShift"
        );
    }

    #[test]
    fn adaptive_recovers_after_cooloff() {
        let p = SpeculationPolicy::Adaptive;
        let mut s = SpeculationState::default();
        for _ in 0..8 {
            abort_once(&mut s, &p, 1);
        }
        assert_eq!(s.site(1).unwrap().limit, 0);
        // Denied attempts serve the cooloff; the last one grants a probe.
        let mut granted = 0;
        for _ in 0..16 {
            if s.can_fork(&p, 1) {
                granted += 1;
                break;
            }
        }
        assert_eq!(granted, 1, "cooloff expires into a probe");
        assert_eq!(s.site(1).unwrap().limit, 1);
        assert!(s.shifts().iter().any(|sh| sh.reason == ShiftReason::Probe));
        // Successful probes lift the EWMA past target and the budget ramps.
        for _ in 0..6 {
            commit_once(&mut s, &p, 1);
        }
        assert!(
            s.site(1).unwrap().limit > 1,
            "committed probes re-deepen the site: {:?}",
            s.site(1)
        );
        assert!(s.can_fork(&p, 1));
    }

    #[test]
    fn adaptive_failed_probe_recools() {
        let p = SpeculationPolicy::Adaptive;
        let mut s = SpeculationState::default();
        for _ in 0..8 {
            abort_once(&mut s, &p, 1);
        }
        let probed = (0..16).any(|_| s.can_fork(&p, 1));
        assert!(probed, "cooloff must expire into a probe");
        // The probe fork fails → back to cooloff.
        abort_once(&mut s, &p, 1);
        let c = s.site(1).unwrap();
        assert_eq!(c.limit, 0);
        assert!(c.cooloff > 0);
        assert!(
            s.shifts()
                .iter()
                .filter(|sh| sh.reason == ShiftReason::Cooloff)
                .count()
                >= 2
        );
    }

    #[test]
    fn adaptive_never_exceeds_max_limit() {
        let p = SpeculationPolicy::Adaptive;
        let mut s = SpeculationState::default();
        for _ in 0..50 {
            commit_once(&mut s, &p, 1);
            assert!(s.site(1).unwrap().limit <= MAX_LIMIT);
        }
        assert_eq!(
            s.site(1).unwrap().limit,
            MAX_LIMIT,
            "budget saturates at max"
        );
        // In-flight at max: gate closes exactly at the budget.
        for _ in 0..MAX_LIMIT {
            assert!(s.can_fork(&p, 1));
            s.note_fork(&p, 1);
        }
        assert!(!s.can_fork(&p, 1), "in-flight reached the budget");
    }

    #[test]
    fn dependency_aborts_are_not_success_samples() {
        let p = SpeculationPolicy::Adaptive;
        let mut s = SpeculationState::default();
        s.note_fork(&p, 1);
        s.note_fork(&p, 1);
        let before = s.site(1).unwrap().success_ewma;
        // A cascade victim resolves: in-flight drops, EWMA untouched.
        s.resolved(&p, 1, false, false);
        let c = s.site(1).unwrap();
        assert_eq!(c.in_flight, 1);
        assert_eq!(c.success_ewma, before);
        assert_eq!(c.retries, 0);
    }

    #[test]
    fn parse_accepts_the_grammar() {
        assert_eq!(
            SpeculationPolicy::parse("pessimistic").unwrap(),
            SpeculationPolicy::Pessimistic
        );
        assert_eq!(
            SpeculationPolicy::parse("static:7").unwrap(),
            SpeculationPolicy::Static { limit: 7 }
        );
        assert_eq!(
            SpeculationPolicy::parse("adaptive").unwrap(),
            SpeculationPolicy::Adaptive
        );
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "optimistic",
            "static",
            "static:x",
            "static:-1",
            "adaptive:",
            "adaptive:target",
            "adaptive:target=0.9",
            "adaptive:max=8",
            "adaptive:frobnicate=3",
            "pessimistic:3",
        ] {
            assert!(
                SpeculationPolicy::parse(bad).is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn display_round_trips() {
        for p in [
            SpeculationPolicy::Pessimistic,
            SpeculationPolicy::Static { limit: 4 },
            SpeculationPolicy::Adaptive,
        ] {
            assert_eq!(SpeculationPolicy::parse(&p.to_string()).unwrap(), p);
        }
    }
}
