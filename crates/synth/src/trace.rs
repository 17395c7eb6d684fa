//! Browsing-trace generation.
//!
//! A [`Trace`] is the ground-truth request stream: time-stamped
//! `(user, host)` pairs, millisecond resolution, spanning a configurable
//! number of days. Visiting a site fires its CDN/API/tracker dependencies
//! within ~1.5 s — the co-request structure the SKIPGRAM model learns from —
//! and interactive (streaming) sites open several connections per visit,
//! which the profiler must deduplicate (Section 4.1: "the algorithm only
//! takes into account the first visit").

use crate::config::TraceConfig;
use crate::ids::{HostId, UserId};
use crate::sampling::{log_normal, poisson, WeightedIndex};
use crate::user::Population;
use crate::world::World;
pub use hostprof_store::{span_range, window_range};
pub use hostprof_store::{TraceAccess, TraceColumns, TraceColumnsBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Milliseconds in a simulated day.
pub const DAY_MS: u64 = 86_400_000;

/// One observed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Milliseconds since experiment start.
    pub t_ms: u64,
    /// Requesting user.
    pub user: UserId,
    /// Requested host.
    pub host: HostId,
}

/// Hour-of-day activity weights (Spanish-flavored diurnal curve: quiet
/// nights, lunch peak, strong evenings).
pub(crate) const DIURNAL: [f64; 24] = [
    0.4, 0.2, 0.1, 0.1, 0.1, 0.2, 0.5, 1.0, 1.6, 2.0, 2.2, 2.4, 2.6, 2.2, 1.8, 1.9, 2.2, 2.6, 3.0,
    3.2, 3.0, 2.4, 1.6, 0.8,
];

/// The generated request stream, time-sorted, with a per-user index.
#[derive(Debug, Clone)]
pub struct Trace {
    requests: Vec<Request>,
    /// `user_index[u]` = indices into `requests`, ascending in time.
    user_index: Vec<Vec<u32>>,
    days: u32,
}

/// Emit one user's requests for every simulated day, in generation order
/// (NOT time order). This is the per-user unit `Trace::generate` runs for
/// each user in turn against one shared RNG; the columnar lane generator
/// (`crate::lane`) calls it with the same RNG discipline, which is what
/// keeps the two representations bit-identical — the RNG stream is
/// consumed strictly per-user, in user-id order, in both paths.
pub(crate) fn emit_user_requests<R: Rng>(
    world: &World,
    user: &crate::user::UserProfile,
    config: &TraceConfig,
    hour_sampler: &WeightedIndex,
    rng: &mut R,
    mut emit: impl FnMut(u64, HostId),
) {
    for day in 0..config.days {
        let n_sessions = poisson(rng, user.sessions_per_day);
        for _ in 0..n_sessions {
            let hour = hour_sampler.sample(rng) as u64;
            let mut t = day as u64 * DAY_MS + hour * 3_600_000 + rng.gen_range(0..3_600_000u64);
            let day_end = (day as u64 + 1) * DAY_MS;
            let pages =
                (1.0 + log_normal(rng, config.pages_mu, config.pages_sigma)).min(80.0) as usize;
            let mut topic = user.sample_topic(rng);
            for _ in 0..pages {
                if t >= day_end {
                    break;
                }
                if !rng.gen_bool(config.topic_persistence) {
                    topic = user.sample_topic(rng);
                }
                let host = if rng.gen_bool(config.core_visit_prob) {
                    world.sample_core(rng)
                } else {
                    world.sample_site(rng, topic)
                };
                emit(t, host);
                // Dependencies fire within ~1.5 s of the page load.
                for &dep in &world.host(host).deps {
                    if rng.gen_bool(config.dependency_fire_prob) {
                        emit(t + rng.gen_range(50..1500u64), dep);
                    }
                }
                // Dwell on the page; interactive hosts keep opening
                // connections while the user watches.
                let dwell_s = log_normal(rng, 30f64.ln(), 0.9).clamp(3.0, 300.0);
                if world.host(host).interactive {
                    let extra = rng.gen_range(2..=6u64);
                    for _ in 0..extra {
                        let dt = rng.gen_range(1_000..(dwell_s as u64 * 1000).max(2_000));
                        emit(t + dt, host);
                    }
                }
                t += (dwell_s * 1000.0) as u64;
            }
        }
    }
}

/// Headline counts for the E6/E7 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total connections (the paper's 75 M during the profiling month).
    pub connections: usize,
    /// Distinct hostnames contacted (the paper's 470 K).
    pub unique_hosts: usize,
    /// Users with at least one request.
    pub active_users: usize,
    /// Simulated days.
    pub days: u32,
}

impl Trace {
    /// Generate a trace. Deterministic per (world, population, config).
    pub fn generate(world: &World, population: &Population, config: &TraceConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let hour_sampler = WeightedIndex::new(&DIURNAL).expect("diurnal weights positive");
        let mut requests: Vec<Request> = Vec::new();

        for user in population.users() {
            emit_user_requests(
                world,
                user,
                config,
                &hour_sampler,
                &mut rng,
                |t_ms, host| {
                    requests.push(Request {
                        t_ms,
                        user: user.id,
                        host,
                    });
                },
            );
        }

        requests.sort_by_key(|r| (r.t_ms, r.user, r.host));
        let mut user_index: Vec<Vec<u32>> = vec![Vec::new(); population.len()];
        for (i, r) in requests.iter().enumerate() {
            user_index[r.user.index()].push(i as u32);
        }
        Self {
            requests,
            user_index,
            days: config.days,
        }
    }

    /// All requests in time order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of simulated days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Number of users the trace was generated for (indexed population
    /// size, not the active-user count).
    pub fn num_users(&self) -> usize {
        self.user_index.len()
    }

    /// A user's requests in time order.
    pub fn user_requests(&self, user: UserId) -> impl Iterator<Item = &Request> {
        self.user_index[user.index()]
            .iter()
            .map(move |&i| &self.requests[i as usize])
    }

    /// Hosts a user requested within `(end_ms - duration_ms, end_ms]`
    /// ([`window_range`]), in time order, duplicates preserved. This is the
    /// raw input to the profiler's session window (`s_u^T`).
    pub fn window(&self, user: UserId, end_ms: u64, duration_ms: u64) -> Vec<HostId> {
        let idx = &self.user_index[user.index()];
        let time_of = |&i: &u32| self.requests[i as usize].t_ms;
        idx[window_range(idx, time_of, end_ms, duration_ms)]
            .iter()
            .map(|&i| self.requests[i as usize].host)
            .collect()
    }

    /// Per-user hostname sequences for one day — the SKIPGRAM training
    /// corpus (Section 5.4: "the sequence of hosts visited by all the users
    /// during the whole previous day"). Users with no activity that day are
    /// omitted.
    pub fn daily_sequences(&self, day: u32) -> Vec<(UserId, Vec<HostId>)> {
        let start = day as u64 * DAY_MS;
        let end = start + DAY_MS;
        let mut out = Vec::new();
        for (u, idx) in self.user_index.iter().enumerate() {
            let span = span_range(idx, |&i| self.requests[i as usize].t_ms, start, end);
            if !span.is_empty() {
                out.push((
                    UserId(u as u32),
                    idx[span]
                        .iter()
                        .map(|&i| self.requests[i as usize].host)
                        .collect(),
                ));
            }
        }
        out
    }

    /// The distinct hosts each user contacted over the whole trace
    /// (indexed by user; inactive users get empty sets). Backs Figure 2.
    pub fn user_host_sets(&self) -> Vec<HashSet<HostId>> {
        let mut sets: Vec<HashSet<HostId>> = vec![HashSet::new(); self.user_index.len()];
        for r in &self.requests {
            sets[r.user.index()].insert(r.host);
        }
        sets
    }

    /// Headline counts.
    pub fn stats(&self) -> TraceStats {
        let unique_hosts: HashSet<HostId> = self.requests.iter().map(|r| r.host).collect();
        let active: HashSet<UserId> = self.requests.iter().map(|r| r.user).collect();
        TraceStats {
            connections: self.requests.len(),
            unique_hosts: unique_hosts.len(),
            active_users: active.len(),
            days: self.days,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PopulationConfig, WorldConfig};
    use crate::world::HostKind;

    fn setup() -> (World, Population, Trace) {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let trace = Trace::generate(&world, &pop, &TraceConfig::tiny());
        (world, pop, trace)
    }

    #[test]
    fn requests_are_time_sorted_and_within_horizon() {
        let (_, _, trace) = setup();
        assert!(!trace.requests().is_empty());
        for w in trace.requests().windows(2) {
            assert!(w[0].t_ms <= w[1].t_ms);
        }
        // Dependencies/interactive repeats may spill slightly past midnight;
        // allow the sub-session tail.
        let horizon = trace.days() as u64 * DAY_MS + 600_000;
        for r in trace.requests() {
            assert!(r.t_ms < horizon);
        }
    }

    #[test]
    fn dependencies_fire_near_page_visits() {
        let (world, _, trace) = setup();
        // Count infrastructure requests; they must exist and be a sizable
        // share — that's the co-request signal.
        let infra = trace
            .requests()
            .iter()
            .filter(|r| {
                matches!(
                    world.host(r.host).kind,
                    HostKind::Cdn | HostKind::Api | HostKind::Tracker
                )
            })
            .count();
        let frac = infra as f64 / trace.requests().len() as f64;
        assert!(frac > 0.3, "infrastructure share {frac}");
    }

    #[test]
    fn window_returns_exactly_the_requested_interval() {
        let (_, pop, trace) = setup();
        let user = pop.users()[0].id;
        let reqs: Vec<_> = trace.user_requests(user).cloned().collect();
        assert!(!reqs.is_empty(), "user 0 browsed something in 2 days");
        let end = reqs[reqs.len() / 2].t_ms;
        let dur = 20 * 60 * 1000u64;
        let win = trace.window(user, end, dur);
        let expected: Vec<HostId> = reqs
            .iter()
            .filter(|r| r.t_ms > end.saturating_sub(dur) && r.t_ms <= end)
            .map(|r| r.host)
            .collect();
        assert_eq!(win, expected);
    }

    #[test]
    fn window_reaching_time_zero_keeps_the_first_request() {
        // Hand-build a trace via generate determinism is overkill here;
        // use the generated trace's earliest request instead.
        let (_, _, trace) = setup();
        let first = trace.requests()[0];
        let win = trace.window(first.user, first.t_ms + 1000, u64::MAX);
        assert!(
            win.contains(&first.host),
            "a window spanning the whole timeline must include t = {}",
            first.t_ms
        );
    }

    #[test]
    fn daily_sequences_partition_user_activity() {
        let (_, _, trace) = setup();
        let total: usize = (0..trace.days())
            .map(|d| {
                trace
                    .daily_sequences(d)
                    .iter()
                    .map(|(_, s)| s.len())
                    .sum::<usize>()
            })
            .sum();
        // Requests stamped past the last midnight (dependency tails) may
        // fall outside every day bucket; there are at most a handful.
        assert!(total <= trace.requests().len());
        assert!(total as f64 > trace.requests().len() as f64 * 0.99);
    }

    #[test]
    fn sequences_are_topically_coherent() {
        let (world, _, trace) = setup();
        // Consecutive site visits should share a topic more often than
        // chance — the property SKIPGRAM exploits.
        let mut same = 0usize;
        let mut total = 0usize;
        for (_, seq) in trace.daily_sequences(0) {
            let sites: Vec<_> = seq
                .iter()
                .filter(|h| world.host(**h).kind == HostKind::Site)
                .collect();
            for w in sites.windows(2) {
                total += 1;
                if world.host(*w[0]).top_topic == world.host(*w[1]).top_topic {
                    same += 1;
                }
            }
        }
        assert!(total > 100, "enough site pairs to judge ({total})");
        let frac = same as f64 / total as f64;
        assert!(frac > 0.35, "topic persistence visible in trace: {frac}");
    }

    #[test]
    fn interactive_hosts_repeat_within_sessions() {
        let (world, _, trace) = setup();
        let mut repeats = 0usize;
        let mut last: Option<(UserId, HostId, u64)> = None;
        for r in trace.requests() {
            if world.host(r.host).interactive {
                if let Some((u, h, t)) = last {
                    if u == r.user && h == r.host && r.t_ms - t < 300_000 {
                        repeats += 1;
                    }
                }
                last = Some((r.user, r.host, r.t_ms));
            }
        }
        assert!(repeats > 0, "streaming sites open multiple connections");
    }

    #[test]
    fn stats_count_what_they_claim() {
        let (_, pop, trace) = setup();
        let s = trace.stats();
        assert_eq!(s.connections, trace.requests().len());
        assert!(s.active_users <= pop.len());
        assert!(s.active_users > 0);
        assert!(s.unique_hosts > 0);
        assert_eq!(s.days, 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let world = World::generate(&WorldConfig::tiny());
        let pop = Population::generate(&world, &PopulationConfig::tiny());
        let a = Trace::generate(&world, &pop, &TraceConfig::tiny());
        let b = Trace::generate(&world, &pop, &TraceConfig::tiny());
        assert_eq!(a.requests(), b.requests());
    }
}
