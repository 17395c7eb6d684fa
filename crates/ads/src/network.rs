//! The ad-network baseline.
//!
//! Section 3 of the paper taxonomizes the ads real networks serve:
//! **premium** (brand campaigns shown to everyone on a site), **retargeted**
//! (a product the user saw recently), **contextual** (matching the current
//! page's topic) and **targeted** (matching the user's cookie profile).
//! The "Original" ads of the experiment are this whole mix — which is the
//! paper's own explanation for why its purely-targeted eavesdropper ads can
//! match or beat ad-network CTR (Section 6.3: "ads served by ad-networks
//! include also premium ads, retargeting, massive campaigns, etc.").
//!
//! [`AdNetwork`] reproduces that mix. Its visibility differs from the
//! eavesdropper's in both directions, as in reality:
//!
//! * it sees *full page visits* (cookie tracking), not just hostnames —
//!   so its per-user profile is built from exact site categories;
//! * but only on sites embedding its trackers (`tracker_coverage`), while
//!   the network observer sees every TLS connection.

use crate::ad::{AdDatabase, AdId};
use hostprof_ontology::{CategoryId, CategoryVector};
use hostprof_synth::{HostId, UserId, World};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Which serving path produced an ad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServedAdKind {
    /// Brand campaign, audience-independent.
    Premium,
    /// A product from the user's recent browsing.
    Retargeted,
    /// Matches the current page's topic.
    Contextual,
    /// Matches the network's cookie profile of the user.
    Targeted,
}

/// Mix and visibility parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdNetworkConfig {
    /// Probability of serving a premium ad.
    pub premium: f64,
    /// Probability of serving a retargeted ad.
    pub retargeted: f64,
    /// Probability of serving a contextual ad.
    pub contextual: f64,
    /// (Remaining probability serves targeted ads.)
    /// Fraction of site visits the network's trackers actually observe.
    pub tracker_coverage: f64,
    /// How many recent site visits the cookie profile window keeps: one
    /// host id per visit in memory for every tracked user, and a fold over
    /// all of their categories for each targeted impression.
    pub profile_window: usize,
    /// How many recent visits feed retargeting.
    pub retarget_window: usize,
}

impl Default for AdNetworkConfig {
    fn default() -> Self {
        Self {
            premium: 0.30,
            retargeted: 0.15,
            contextual: 0.25,
            tracker_coverage: 0.85,
            profile_window: 200,
            retarget_window: 10,
        }
    }
}

/// Per-user cookie state.
#[derive(Debug, Clone, Default)]
struct CookieProfile {
    /// Rolling window of observed site visits; a site's categories are
    /// read from the world when an ad needs them.
    visits: VecDeque<HostId>,
}

impl CookieProfile {
    /// Aggregated interest estimate: the mean of the window's categories,
    /// folded in visit order. Only a targeted impression reads it, and the
    /// CTR replay serves one for roughly every ten tracked visits, so it is
    /// derived here and not kept current by `observe_visit`.
    fn profile(&self, world: &World) -> CategoryVector {
        dense_mean(
            self.visits.iter().map(|&site| world.ground_truth(site)),
            world.hierarchy().num_categories(),
        )
    }
}

/// The mean of `visits` (ids below `width`), folded densely:
/// `acc[c] = (acc[c] + (1/n)·w).min(1.0)` per visit, then the ids with
/// `acc > 0` in ascending order.
///
/// That is the same float operations in the same order as folding with
/// `CategoryVector::add_scaled(v, 1/n)` from empty: there each id sums
/// from 0.0, the accumulated weight first; an id the accumulator lacks
/// reads 0.0 here, and `0.0 + x` is `x` in both; an id the visit lacks is
/// re-emitted unchanged by the merge and left alone here; and an entry
/// that ends ≤ 0 is dropped by the merge and reads 0.0 — not emitted —
/// here.
fn dense_mean<'v>(
    visits: impl ExactSizeIterator<Item = &'v CategoryVector>,
    width: usize,
) -> CategoryVector {
    let mut acc = vec![0.0f32; width];
    let n = visits.len() as f32;
    for cats in visits {
        for (c, w) in cats.iter() {
            let a = &mut acc[c.index()];
            *a = (*a + 1.0 / n * w).min(1.0);
        }
    }
    acc.iter()
        .enumerate()
        .filter(|(_, &w)| w > 0.0)
        .map(|(c, &w)| (CategoryId(c as u16), w))
        .collect()
}

/// The simulated ad network.
#[derive(Debug, Clone)]
pub struct AdNetwork {
    config: AdNetworkConfig,
    cookies: HashMap<UserId, CookieProfile>,
}

impl AdNetwork {
    /// A network with the given mix.
    pub fn new(config: AdNetworkConfig) -> Self {
        Self {
            config,
            cookies: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdNetworkConfig {
        &self.config
    }

    /// Tracker callback: the network observes `user` visiting `site`
    /// (subject to tracker coverage, decided by the caller's RNG).
    pub fn observe_visit<R: Rng + ?Sized>(&mut self, rng: &mut R, user: UserId, site: HostId) {
        if !rng.gen_bool(self.config.tracker_coverage) {
            return;
        }
        let cookie = self.cookies.entry(user).or_default();
        cookie.visits.push_back(site);
        while cookie.visits.len() > self.config.profile_window {
            cookie.visits.pop_front();
        }
    }

    /// The network's current cookie profile of a user (empty if never
    /// observed).
    pub fn cookie_profile(&self, world: &World, user: UserId) -> CategoryVector {
        self.cookies
            .get(&user)
            .map(|c| c.profile(world))
            .unwrap_or_default()
    }

    /// Serve one impression on `site` for `user`. Always returns an ad as
    /// long as the database is non-empty.
    pub fn serve<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        world: &World,
        db: &AdDatabase,
        user: UserId,
        site: HostId,
    ) -> Option<(AdId, ServedAdKind)> {
        if db.is_empty() {
            return None;
        }
        let roll: f64 = rng.gen();
        let c = &self.config;
        if roll < c.premium {
            return Some((self.pick_premium(rng, db), ServedAdKind::Premium));
        }
        if roll < c.premium + c.retargeted {
            if let Some(id) = self.pick_retargeted(rng, world, db, user) {
                return Some((id, ServedAdKind::Retargeted));
            }
            // No browsing history yet: fall through to contextual.
        }
        if roll < c.premium + c.retargeted + c.contextual {
            return Some((
                self.pick_contextual(rng, world, db, site),
                ServedAdKind::Contextual,
            ));
        }
        Some((
            self.pick_targeted(rng, world, db, user),
            ServedAdKind::Targeted,
        ))
    }

    /// Premium: weight-proportional pick over the whole inventory.
    fn pick_premium<R: Rng + ?Sized>(&self, rng: &mut R, db: &AdDatabase) -> AdId {
        // Rejection sampling against the (precomputed) max weight keeps
        // this O(1)-ish per impression.
        let max_w = db.max_weight();
        for _ in 0..64 {
            let cand = &db.ads()[rng.gen_range(0..db.len())];
            if rng.gen_bool((cand.weight / max_w).clamp(0.0, 1.0)) {
                return cand.id;
            }
        }
        db.ads()[rng.gen_range(0..db.len())].id
    }

    /// Retargeted: an ad landing on (or categorically identical to) a
    /// recently visited site.
    fn pick_retargeted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        world: &World,
        db: &AdDatabase,
        user: UserId,
    ) -> Option<AdId> {
        let visits = &self.cookies.get(&user)?.visits;
        let recent = visits.len().min(self.config.retarget_window);
        if recent == 0 {
            return None;
        }
        // One of the `recent` newest visits, counted back from the last.
        let host = visits[visits.len() - 1 - rng.gen_range(0..recent)];
        // Prefer an ad for that exact landing page; otherwise the closest
        // in category space.
        let exact = db.by_landing_host(host);
        if !exact.is_empty() {
            return Some(exact[rng.gen_range(0..exact.len())]);
        }
        let cats = world.ground_truth(host);
        cats.argmax()
            .and_then(|c| db.closest_ad_in_category(c.0, cats))
    }

    /// Contextual: an ad matching the current page's categories.
    fn pick_contextual<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        world: &World,
        db: &AdDatabase,
        site: HostId,
    ) -> AdId {
        let cats = world.ground_truth(site);
        match cats
            .argmax()
            .and_then(|c| db.closest_ad_in_category(c.0, cats))
        {
            Some(id) => id,
            None => db.ads()[rng.gen_range(0..db.len())].id,
        }
    }

    /// Targeted: an ad matching the cookie profile.
    fn pick_targeted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        world: &World,
        db: &AdDatabase,
        user: UserId,
    ) -> AdId {
        let profile = self.cookie_profile(world, user);
        match profile
            .argmax()
            .and_then(|c| db.closest_ad_in_category(c.0, &profile))
        {
            Some(id) => id,
            None => db.ads()[rng.gen_range(0..db.len())].id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_synth::{HostKind, WorldConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (World, AdDatabase, AdNetwork) {
        let world = World::generate(&WorldConfig::tiny());
        let db = AdDatabase::generate(&world, 400, 11);
        let network = AdNetwork::new(AdNetworkConfig::default());
        (world, db, network)
    }

    fn a_site(world: &World) -> HostId {
        world
            .hosts()
            .iter()
            .find(|h| h.kind == HostKind::Site)
            .unwrap()
            .id
    }

    #[test]
    fn serving_always_returns_an_ad() {
        let (world, db, network) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let site = a_site(&world);
        for _ in 0..200 {
            assert!(network
                .serve(&mut rng, &world, &db, UserId(0), site)
                .is_some());
        }
    }

    #[test]
    fn mix_includes_every_kind_once_there_is_history() {
        let (world, db, mut network) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let site = a_site(&world);
        for _ in 0..50 {
            network.observe_visit(&mut rng, UserId(0), site);
        }
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..500 {
            let (_, kind) = network
                .serve(&mut rng, &world, &db, UserId(0), site)
                .unwrap();
            kinds.insert(kind);
        }
        assert_eq!(
            kinds.len(),
            4,
            "all four serving paths exercised: {kinds:?}"
        );
    }

    #[test]
    fn cookie_profile_tracks_visited_categories() {
        let (world, _, mut network) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let site = a_site(&world);
        for _ in 0..20 {
            network.observe_visit(&mut rng, UserId(5), site);
        }
        let profile = network.cookie_profile(&world, UserId(5));
        let truth = world.ground_truth(site);
        assert!(
            profile.cosine(truth) > 0.95,
            "single-site profile ≈ that site: {}",
            profile.cosine(truth)
        );
        assert!(network.cookie_profile(&world, UserId(99)).is_empty());
    }

    #[test]
    fn contextual_ads_match_the_page_topic() {
        let (world, db, network) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let site = a_site(&world);
        let cats = world.ground_truth(site);
        let id = network.pick_contextual(&mut rng, &world, &db, site);
        let ad = db.ad(id);
        assert!(
            ad.categories.cosine(cats) > 0.3,
            "contextual pick shares topic: {}",
            ad.categories.cosine(cats)
        );
    }

    #[test]
    fn retargeting_needs_history() {
        let (world, db, mut network) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(network
            .pick_retargeted(&mut rng, &world, &db, UserId(0))
            .is_none());
        let site = a_site(&world);
        // Force observation despite coverage randomness.
        for _ in 0..30 {
            network.observe_visit(&mut rng, UserId(0), site);
        }
        let id = network.pick_retargeted(&mut rng, &world, &db, UserId(0));
        assert!(id.is_some());
    }

    #[test]
    fn tracker_coverage_limits_visibility() {
        let (world, _, mut network) = setup();
        network.config.tracker_coverage = 0.0;
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let site = a_site(&world);
        for _ in 0..50 {
            network.observe_visit(&mut rng, UserId(1), site);
        }
        assert!(network.cookie_profile(&world, UserId(1)).is_empty());
    }

    #[test]
    fn profile_window_bounds_memory() {
        let (world, _, mut network) = setup();
        network.config.profile_window = 5;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let site = a_site(&world);
        for _ in 0..100 {
            network.observe_visit(&mut rng, UserId(2), site);
        }
        assert!(network.cookies[&UserId(2)].visits.len() <= 5);
    }

    fn bits(v: &CategoryVector) -> Vec<(u16, u32)> {
        v.iter().map(|(c, w)| (c.0, w.to_bits())).collect()
    }

    /// The dense fold of `CookieProfile::profile` against the fold it
    /// replaced, `add_scaled` from empty: the same bits over windows of 1
    /// to 200 visits over all 328 ids. In every other window each visit
    /// carries one id at weight 1.0, so that its running sum of rounded
    /// `1/n` steps crosses 1.0 and clamps for some `n`.
    #[test]
    fn dense_fold_equals_the_add_scaled_fold() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut clamped = 0usize;
        for n in 1..=200usize {
            let dominant = CategoryId(rng.gen_range(0..328u16));
            let window: Vec<CategoryVector> = (0..n)
                .map(|_| {
                    let mut pairs: Vec<(CategoryId, f32)> = (0..rng.gen_range(0..5usize))
                        .map(|_| (CategoryId(rng.gen_range(0..328u16)), 1.0 - rng.gen::<f32>()))
                        .collect();
                    if n % 2 == 0 {
                        pairs.push((dominant, 1.0));
                    }
                    CategoryVector::from_pairs(pairs)
                })
                .collect();
            let scale = 1.0 / n as f32;
            let mut folded = CategoryVector::empty();
            for cats in &window {
                clamped += usize::from(cats.iter().any(|(c, w)| folded.get(c) + scale * w > 1.0));
                folded.add_scaled(cats, scale);
            }
            assert_eq!(
                bits(&dense_mean(window.iter(), 328)),
                bits(&folded),
                "window of {n}"
            );
        }
        assert!(clamped > 0, "no running sum crossed 1.0");
        eprintln!("dense cookie fold: {clamped} sums clamped at 1.0 over 200 windows");
    }
}
