//! The synthetic hostname universe.
//!
//! A [`World`] holds every host a user could contact, each with a kind,
//! a ground-truth category vector, a popularity score, and — for content
//! sites — a dependency list of CDN/API/tracker hosts that fire alongside
//! page visits. It also carries the derived observable artifacts: the
//! partial-coverage [`Ontology`] and the tracker [`Blocklist`].

use crate::config::WorldConfig;
use crate::ids::HostId;
use crate::names::{NameGenerator, CORE_SITE_NAMES};
use crate::sampling::{WeightedIndex, Zipf};
use hostprof_ontology::{
    Blocklist, BlocklistProvider, CategoryId, CategoryVector, Hierarchy, Ontology, TopCategoryId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What role a hostname plays in the synthetic web.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostKind {
    /// A topical content site — the profiling signal.
    Site,
    /// A content-delivery host co-requested with the sites it serves.
    Cdn,
    /// An API endpoint, partially topic-affine (`api.bkng.azure.com`).
    Api,
    /// A tracker or ad server; carries no interest signal.
    Tracker,
    /// An ultra-popular host visited by everyone (google/facebook
    /// analogues); topically near-useless.
    Core,
}

/// One hostname in the universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// Stable identifier (== index into `World::hosts`).
    pub id: HostId,
    /// The wire-visible hostname.
    pub name: String,
    /// Role in the synthetic web.
    pub kind: HostKind,
    /// Ground-truth interest categories of the content behind this host.
    /// Empty for trackers.
    pub categories: CategoryVector,
    /// Primary top-level topic, when the host has one.
    pub top_topic: Option<TopCategoryId>,
    /// Relative visit popularity (sums to ~1 over sites+core).
    pub popularity: f64,
    /// Hosts that fire a request when this one is visited (sites only).
    pub deps: Vec<HostId>,
    /// Whether a single visit opens many connections (streaming/video),
    /// exercising the profiler's first-visit deduplication.
    pub interactive: bool,
}

/// The generated universe plus derived observable artifacts.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    hierarchy: Hierarchy,
    hosts: Vec<Host>,
    by_name: HashMap<String, HostId>,
    /// Site ids grouped by primary top-level topic.
    sites_by_topic: Vec<Vec<HostId>>,
    /// Popularity-weighted samplers aligned with `sites_by_topic`.
    topic_samplers: Vec<Option<WeightedIndex>>,
    core_ids: Vec<HostId>,
    core_sampler: Option<WeightedIndex>,
    ontology: Ontology,
    blocklist: Blocklist,
}

impl World {
    /// Generate a world from a config. Deterministic per config.
    pub fn generate(config: &WorldConfig) -> Self {
        let hierarchy = Hierarchy::adwords_like();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut names = NameGenerator::new();
        let mut hosts: Vec<Host> = Vec::with_capacity(config.total_hosts());

        // --- Core hosts -------------------------------------------------
        // Every core host gets 2–4 of the "universal" top-level categories;
        // the same small pool is reused so that, like the paper's finding,
        // all users end up sharing a core set of ~14 categories.
        let universal: Vec<CategoryId> = [
            "Online Communities",
            "Arts & Entertainment",
            "People & Society",
            "Internet & Telecom",
            "Computers & Electronics",
            "News",
            "Reference",
            "Shopping",
            "Jobs & Education",
            "Games",
        ]
        .iter()
        .filter_map(|n| {
            hierarchy
                .top_ids()
                .find(|t| hierarchy.top_name(*t) == *n)
                .map(|t| hierarchy.top_level_category(t))
        })
        .collect();
        for (k, core_name) in CORE_SITE_NAMES.iter().enumerate() {
            let id = HostId(hosts.len() as u32);
            let n_cats = 2 + (k % 3);
            let cats: Vec<(CategoryId, f32)> = (0..n_cats)
                .map(|j| (universal[(k + j * 3) % universal.len()], 0.9))
                .collect();
            let primary_top = hierarchy.top_of(cats[0].0);
            hosts.push(Host {
                id,
                name: names.reserve(core_name),
                kind: HostKind::Core,
                categories: CategoryVector::from_pairs(cats),
                top_topic: Some(primary_top),
                popularity: 0.0, // assigned below
                deps: Vec::new(),
                interactive: k % 4 == 0,
            });
        }

        // --- Content sites ----------------------------------------------
        // Topic prevalence: bushier topics host more of the web.
        let topic_weights: Vec<f64> = hierarchy
            .top_ids()
            .map(|t| 1.0 + hierarchy.children_of_top(t).len() as f64)
            .collect();
        let topic_sampler = WeightedIndex::new(&topic_weights).expect("topic weights are positive");
        for _ in 0..config.num_sites {
            let id = HostId(hosts.len() as u32);
            let top = TopCategoryId(topic_sampler.sample(&mut rng) as u8);
            let kids = hierarchy.children_of_top(top);
            let primary = if kids.is_empty() || rng.gen_bool(0.2) {
                hierarchy.top_level_category(top)
            } else {
                kids[rng.gen_range(0..kids.len())]
            };
            let mut cats = vec![(primary, 0.7 + rng.gen::<f32>() * 0.3)];
            // Secondary category: usually a sibling, sometimes cross-topic.
            if rng.gen_bool(0.6) {
                let sec = if rng.gen_bool(0.7) && kids.len() > 1 {
                    kids[rng.gen_range(0..kids.len())]
                } else {
                    CategoryId(rng.gen_range(0..hierarchy.num_categories()) as u16)
                };
                if sec != primary {
                    cats.push((sec, 0.2 + rng.gen::<f32>() * 0.4));
                }
            }
            hosts.push(Host {
                id,
                name: names.site_name(&mut rng, hierarchy.top_name(top)),
                kind: HostKind::Site,
                categories: CategoryVector::from_pairs(cats),
                top_topic: Some(top),
                popularity: 0.0,
                deps: Vec::new(),
                interactive: rng.gen_bool(config.interactive_site_fraction),
            });
        }

        // --- Infrastructure hosts -----------------------------------------
        let cdn_start = hosts.len();
        for _ in 0..config.num_cdns {
            let id = HostId(hosts.len() as u32);
            hosts.push(Host {
                id,
                name: names.cdn_name(&mut rng),
                kind: HostKind::Cdn,
                categories: CategoryVector::empty(),
                top_topic: None,
                popularity: 0.0,
                deps: Vec::new(),
                interactive: false,
            });
        }
        let api_start = hosts.len();
        for _ in 0..config.num_apis {
            let id = HostId(hosts.len() as u32);
            // APIs get a home topic: sites of that topic prefer them.
            let top = TopCategoryId(topic_sampler.sample(&mut rng) as u8);
            hosts.push(Host {
                id,
                name: names.api_name(&mut rng),
                kind: HostKind::Api,
                categories: CategoryVector::empty(),
                top_topic: Some(top),
                popularity: 0.0,
                deps: Vec::new(),
                interactive: false,
            });
        }
        let tracker_start = hosts.len();
        for _ in 0..config.num_trackers {
            let id = HostId(hosts.len() as u32);
            hosts.push(Host {
                id,
                name: names.tracker_name(&mut rng),
                kind: HostKind::Tracker,
                categories: CategoryVector::empty(),
                top_topic: None,
                popularity: 0.0,
                deps: Vec::new(),
                interactive: false,
            });
        }

        // --- Popularity ---------------------------------------------------
        // Zipf over all visitable hosts (core + sites); core hosts occupy
        // the head ranks, which is what makes them "background noise".
        let visitable = CORE_SITE_NAMES.len() + config.num_sites;
        let zipf = Zipf::new(visitable, config.popularity_exponent);
        // Core gets ranks 0..n_core in a fixed order; sites get a random
        // rank permutation of the remainder.
        let n_core = CORE_SITE_NAMES.len();
        let mut site_ranks: Vec<usize> = (n_core..visitable).collect();
        shuffle(&mut site_ranks, &mut rng);
        for (k, host) in hosts.iter_mut().enumerate().take(n_core) {
            host.popularity = zipf.pmf(k);
        }
        for (i, &rank) in site_ranks.iter().enumerate() {
            hosts[n_core + i].popularity = zipf.pmf(rank);
        }

        // --- Site dependencies ---------------------------------------------
        // CDN/tracker choice is popularity-skewed (a few giants serve most
        // of the web); APIs are topic-affine with high probability.
        let cdn_zipf = Zipf::new(config.num_cdns.max(1), 0.9);
        let tracker_zipf = Zipf::new(config.num_trackers.max(1), 0.9);
        // Group APIs by topic for affinity lookups.
        let mut apis_by_topic: Vec<Vec<usize>> = vec![Vec::new(); hierarchy.num_top()];
        for (i, h) in hosts[api_start..tracker_start].iter().enumerate() {
            if let Some(t) = h.top_topic {
                apis_by_topic[t.index()].push(api_start + i);
            }
        }
        #[allow(clippy::needless_range_loop)] // hosts is mutated by index below
        for i in 0..visitable {
            let is_core = i < n_core;
            let topic = hosts[i].top_topic;
            let mut deps: Vec<HostId> = Vec::new();
            if config.num_cdns > 0 {
                let n_cdn = if is_core { 3 } else { rng.gen_range(1..=4) };
                for _ in 0..n_cdn {
                    deps.push(HostId((cdn_start + cdn_zipf.sample(&mut rng)) as u32));
                }
            }
            if config.num_apis > 0 {
                let n_api = rng.gen_range(0..=3);
                for _ in 0..n_api {
                    let same_topic = topic
                        .map(|t| &apis_by_topic[t.index()])
                        .filter(|v| !v.is_empty());
                    let idx = match same_topic {
                        Some(pool) if rng.gen_bool(0.7) => pool[rng.gen_range(0..pool.len())],
                        _ => api_start + rng.gen_range(0..config.num_apis),
                    };
                    deps.push(HostId(idx as u32));
                }
            }
            if config.num_trackers > 0 && !is_core {
                let n_trk = rng.gen_range(0..=4);
                for _ in 0..n_trk {
                    deps.push(HostId(
                        (tracker_start + tracker_zipf.sample(&mut rng)) as u32,
                    ));
                }
            }
            deps.sort();
            deps.dedup();
            hosts[i].deps = deps;
        }

        // --- Infrastructure ground truth ------------------------------------
        // A CDN/API's true categories are the popularity-weighted mix of the
        // sites that embed it — this is what the embedding should recover.
        let mut mixes: HashMap<usize, Vec<(CategoryVector, f32)>> = HashMap::new();
        for i in 0..visitable {
            let pop = hosts[i].popularity as f32;
            let cats = hosts[i].categories.clone();
            for dep in hosts[i].deps.clone() {
                let d = dep.index();
                if matches!(hosts[d].kind, HostKind::Cdn | HostKind::Api) {
                    mixes.entry(d).or_default().push((cats.clone(), pop));
                }
            }
        }
        for (d, contribs) in mixes {
            let total: f32 = contribs.iter().map(|(_, w)| w).sum();
            if total <= 0.0 {
                continue;
            }
            let mut acc = CategoryVector::empty();
            for (cats, w) in &contribs {
                acc.add_scaled(cats, w / total);
            }
            hosts[d].categories = acc.top_k(6);
        }

        // --- Ontology (the observable, partial labeling) ---------------------
        // Only content sites and core hosts are crawlable/classifiable —
        // CDN/API/tracker hostnames return error pages (the paper's 67 %).
        // Popular sites are more likely to be in Adwords.
        let target_labels = ((hosts.len() as f64) * config.ontology_coverage).round() as usize;
        let mut ontology = Ontology::new();
        let mut candidates: Vec<usize> = (0..visitable).collect();
        candidates.sort_by(|&a, &b| {
            hosts[b]
                .popularity
                .partial_cmp(&hosts[a].popularity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in candidates.iter().take(target_labels.min(visitable)) {
            let truth = &hosts[i].categories;
            let noisy: Vec<(CategoryId, f32)> = truth
                .iter()
                .filter_map(|(c, w)| {
                    // Occasionally Adwords misses a secondary category.
                    if w < 0.5 && rng.gen_bool(0.25) {
                        return None;
                    }
                    let jitter = 1.0 + (rng.gen::<f32>() - 0.5) * 2.0 * config.label_noise as f32;
                    Some((c, (w * jitter).clamp(0.05, 1.0)))
                })
                .collect();
            let v = if noisy.is_empty() {
                truth.clone()
            } else {
                CategoryVector::from_pairs(noisy)
            };
            ontology.insert(&hosts[i].name, v);
        }

        // --- Blocklists -----------------------------------------------------
        // Three overlapping providers, each listing a different ~2/3 of the
        // tracker universe; the union covers most but not all of it.
        let mut provider_hosts: [Vec<String>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for h in &hosts[tracker_start..] {
            let mut listed = false;
            for (p, prob) in [(0usize, 0.65), (1, 0.55), (2, 0.45)] {
                if rng.gen_bool(prob) {
                    provider_hosts[p].push(h.name.clone());
                    listed = true;
                }
            }
            // Guarantee the most popular trackers are always caught, like
            // the paper's "50 of the top 100 hostnames are trackers" note.
            if !listed && rng.gen_bool(0.5) {
                provider_hosts[0].push(h.name.clone());
            }
        }
        let blocklist = Blocklist::from_providers(vec![
            BlocklistProvider::new("adaway-like", provider_hosts[0].iter()),
            BlocklistProvider::new("hphosts-like", provider_hosts[1].iter()),
            BlocklistProvider::new("yoyo-like", provider_hosts[2].iter()),
        ]);

        // --- Indexes ----------------------------------------------------------
        let by_name: HashMap<String, HostId> =
            hosts.iter().map(|h| (h.name.clone(), h.id)).collect();
        let mut sites_by_topic: Vec<Vec<HostId>> = vec![Vec::new(); hierarchy.num_top()];
        for h in &hosts {
            if h.kind == HostKind::Site {
                if let Some(t) = h.top_topic {
                    sites_by_topic[t.index()].push(h.id);
                }
            }
        }
        let topic_samplers = sites_by_topic
            .iter()
            .map(|ids| {
                let w: Vec<f64> = ids.iter().map(|id| hosts[id.index()].popularity).collect();
                WeightedIndex::new(&w)
            })
            .collect();
        let core_ids: Vec<HostId> = hosts[..n_core].iter().map(|h| h.id).collect();
        let core_sampler = WeightedIndex::new(
            &core_ids
                .iter()
                .map(|id| hosts[id.index()].popularity)
                .collect::<Vec<_>>(),
        );

        Self {
            config: config.clone(),
            hierarchy,
            hosts,
            by_name,
            sites_by_topic,
            topic_samplers,
            core_ids,
            core_sampler,
            ontology,
            blocklist,
        }
    }

    /// The config this world was generated from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The category hierarchy shared by the whole pipeline.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of hostnames in the universe.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Host by id.
    ///
    /// # Panics
    /// Panics when the id is not from this world.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// All hosts in id order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// The wire-visible hostname of a host.
    pub fn hostname(&self, id: HostId) -> &str {
        &self.hosts[id.index()].name
    }

    /// Reverse lookup from hostname to id (exact, lowercase).
    pub fn host_id_by_name(&self, name: &str) -> Option<HostId> {
        self.by_name.get(name).copied()
    }

    /// Ground-truth categories of a host (empty for trackers).
    pub fn ground_truth(&self, id: HostId) -> &CategoryVector {
        &self.hosts[id.index()].categories
    }

    /// The observable, partial-coverage ontology (`H_L`).
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The tracker/ad blocklist (union of three providers).
    pub fn blocklist(&self) -> &Blocklist {
        &self.blocklist
    }

    /// Ultra-popular core hosts.
    pub fn core_ids(&self) -> &[HostId] {
        &self.core_ids
    }

    /// Sample a core host by popularity.
    pub fn sample_core<R: Rng + ?Sized>(&self, rng: &mut R) -> HostId {
        match &self.core_sampler {
            Some(s) => self.core_ids[s.sample(rng)],
            None => self.core_ids[0],
        }
    }

    /// Sample a site of the given topic by popularity. Falls back to any
    /// topic when the requested one has no sites.
    pub fn sample_site<R: Rng + ?Sized>(&self, rng: &mut R, topic: TopCategoryId) -> HostId {
        if let Some(s) = &self.topic_samplers[topic.index()] {
            return self.sites_by_topic[topic.index()][s.sample(rng)];
        }
        // Degenerate tiny worlds: walk topics until one has sites.
        for (t, s) in self.topic_samplers.iter().enumerate() {
            if let Some(s) = s {
                return self.sites_by_topic[t][s.sample(rng)];
            }
        }
        panic!("world has no content sites at all");
    }

    /// Site ids of one topic.
    pub fn sites_of_topic(&self, topic: TopCategoryId) -> &[HostId] {
        &self.sites_by_topic[topic.index()]
    }
}

/// Fisher–Yates shuffle (rand's `SliceRandom` would pull in more API than
/// we need here, and an explicit loop keeps the sampling stream obvious).
fn shuffle<T, R: Rng + ?Sized>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(&WorldConfig::tiny())
    }

    #[test]
    fn world_has_every_kind_and_expected_size() {
        let w = tiny_world();
        let cfg = WorldConfig::tiny();
        assert_eq!(w.num_hosts(), cfg.total_hosts());
        let count = |kind| w.hosts().iter().filter(|h| h.kind == kind).count();
        assert_eq!(count(HostKind::Site), cfg.num_sites);
        assert_eq!(count(HostKind::Cdn), cfg.num_cdns);
        assert_eq!(count(HostKind::Api), cfg.num_apis);
        assert_eq!(count(HostKind::Tracker), cfg.num_trackers);
        assert_eq!(count(HostKind::Core), CORE_SITE_NAMES.len());
    }

    #[test]
    fn hostnames_are_unique_and_indexed() {
        let w = tiny_world();
        let mut names: Vec<_> = w.hosts().iter().map(|h| h.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), w.num_hosts());
        for h in w.hosts() {
            assert_eq!(w.host_id_by_name(&h.name), Some(h.id));
        }
    }

    #[test]
    fn ontology_coverage_is_near_target_and_sites_only() {
        let w = tiny_world();
        let stats = w
            .ontology()
            .coverage(w.hosts().iter().map(|h| h.name.as_str()));
        let target = WorldConfig::tiny().ontology_coverage;
        assert!(
            (stats.fraction() - target).abs() < 0.02,
            "coverage {} vs target {target}",
            stats.fraction()
        );
        for (name, _) in w.ontology().iter() {
            let id = w.host_id_by_name(name).expect("labeled host exists");
            assert!(
                matches!(w.host(id).kind, HostKind::Site | HostKind::Core),
                "only crawlable hosts get labels: {name}"
            );
        }
    }

    #[test]
    fn trackers_have_no_ground_truth_and_sites_do() {
        let w = tiny_world();
        for h in w.hosts() {
            match h.kind {
                HostKind::Tracker => assert!(h.categories.is_empty()),
                HostKind::Site | HostKind::Core => assert!(!h.categories.is_empty()),
                _ => {}
            }
        }
    }

    #[test]
    fn most_trackers_are_blocked_and_sites_are_not() {
        let w = tiny_world();
        let mut blocked = 0usize;
        let mut total = 0usize;
        for h in w.hosts() {
            match h.kind {
                HostKind::Tracker => {
                    total += 1;
                    if w.blocklist().is_blocked(&h.name) {
                        blocked += 1;
                    }
                }
                HostKind::Site | HostKind::Core => {
                    assert!(
                        !w.blocklist().is_blocked(&h.name),
                        "site blocked: {}",
                        h.name
                    );
                }
                _ => {}
            }
        }
        assert!(
            blocked as f64 >= total as f64 * 0.7,
            "{blocked}/{total} blocked"
        );
    }

    #[test]
    fn core_hosts_dominate_popularity() {
        let w = tiny_world();
        let core_pop: f64 = w.core_ids().iter().map(|id| w.host(*id).popularity).sum();
        let site_max = w
            .hosts()
            .iter()
            .filter(|h| h.kind == HostKind::Site)
            .map(|h| h.popularity)
            .fold(0.0, f64::max);
        let core_min = w
            .core_ids()
            .iter()
            .map(|id| w.host(*id).popularity)
            .fold(f64::INFINITY, f64::min);
        assert!(core_min > 0.0);
        assert!(core_pop > 0.2, "core hosts hold a large share: {core_pop}");
        assert!(
            core_min >= site_max * 0.9,
            "core ranks sit at the Zipf head"
        );
    }

    #[test]
    fn sites_have_dependencies_with_correct_kinds() {
        let w = tiny_world();
        let mut any_api_affine = 0usize;
        let mut api_total = 0usize;
        for h in w.hosts().iter().filter(|h| h.kind == HostKind::Site) {
            assert!(!h.deps.is_empty(), "every site embeds at least a CDN");
            for d in &h.deps {
                let dep = w.host(*d);
                assert!(
                    matches!(dep.kind, HostKind::Cdn | HostKind::Api | HostKind::Tracker),
                    "site deps are infrastructure"
                );
                if dep.kind == HostKind::Api {
                    api_total += 1;
                    if dep.top_topic == h.top_topic {
                        any_api_affine += 1;
                    }
                }
            }
        }
        assert!(
            any_api_affine as f64 > api_total as f64 * 0.4,
            "APIs are topic-affine: {any_api_affine}/{api_total}"
        );
    }

    #[test]
    fn cdn_ground_truth_reflects_served_sites() {
        let w = tiny_world();
        // Any CDN that serves at least one site must have inherited some
        // categories.
        let mut served = std::collections::HashSet::new();
        for h in w.hosts() {
            for d in &h.deps {
                served.insert(*d);
            }
        }
        for h in w.hosts().iter().filter(|h| h.kind == HostKind::Cdn) {
            if served.contains(&h.id) {
                assert!(!h.categories.is_empty(), "served CDN {} has a mix", h.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        for (x, y) in a.hosts().iter().zip(b.hosts()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.deps, y.deps);
            assert_eq!(x.categories, y.categories);
        }
    }
}
