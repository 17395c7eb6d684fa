//! The ad network against its eager twin.
//!
//! [`AdNetwork`] keeps host ids in its cookie window and folds a user's
//! cookie profile densely when an ad reads it. Its twin here is the network
//! as it was when `observe_visit` cloned each site's categories into the
//! window and rebuilt the profile with `add_scaled` on every tracked visit,
//! `pick_retargeted` collected the recent visits into a `Vec`, and the
//! closest ad came from `Iterator::min_by` — written against the public API
//! only. Any interleaving of visits,
//! impressions and profile reads must leave both with the same ads, the
//! same profiles (weights as bits) and the same RNG state.

use hostprof_ads::{AdDatabase, AdId, AdNetwork, AdNetworkConfig, ServedAdKind};
use hostprof_ontology::CategoryVector;
use hostprof_synth::{HostId, HostKind, UserId, World, WorldConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

#[derive(Default)]
struct EagerCookie {
    visits: VecDeque<(HostId, CategoryVector)>,
    profile: CategoryVector,
}

struct EagerNetwork {
    config: AdNetworkConfig,
    cookies: HashMap<UserId, EagerCookie>,
}

impl EagerNetwork {
    fn observe_visit(&mut self, rng: &mut ChaCha8Rng, world: &World, user: UserId, site: HostId) {
        if !rng.gen_bool(self.config.tracker_coverage) {
            return;
        }
        let cats = world.ground_truth(site).clone();
        let cookie = self.cookies.entry(user).or_default();
        cookie.visits.push_back((site, cats));
        while cookie.visits.len() > self.config.profile_window {
            cookie.visits.pop_front();
        }
        let mut agg = CategoryVector::empty();
        let n = cookie.visits.len() as f32;
        for (_, c) in &cookie.visits {
            agg.add_scaled(c, 1.0 / n);
        }
        cookie.profile = agg;
    }

    fn cookie_profile(&self, user: UserId) -> CategoryVector {
        self.cookies
            .get(&user)
            .map(|c| c.profile.clone())
            .unwrap_or_default()
    }

    fn serve(
        &self,
        rng: &mut ChaCha8Rng,
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
            return Some((pick_premium(rng, db), ServedAdKind::Premium));
        }
        if roll < c.premium + c.retargeted {
            if let Some(id) = self.pick_retargeted(rng, db, user) {
                return Some((id, ServedAdKind::Retargeted));
            }
        }
        if roll < c.premium + c.retargeted + c.contextual {
            let id = pick_matching(rng, db, world.ground_truth(site));
            return Some((id, ServedAdKind::Contextual));
        }
        let id = pick_matching(rng, db, &self.cookie_profile(user));
        Some((id, ServedAdKind::Targeted))
    }

    fn pick_retargeted(&self, rng: &mut ChaCha8Rng, db: &AdDatabase, user: UserId) -> Option<AdId> {
        let cookie = self.cookies.get(&user)?;
        let recent: Vec<&(HostId, CategoryVector)> = cookie
            .visits
            .iter()
            .rev()
            .take(self.config.retarget_window)
            .collect();
        if recent.is_empty() {
            return None;
        }
        let (host, cats) = recent[rng.gen_range(0..recent.len())];
        let exact = db.by_landing_host(*host);
        if !exact.is_empty() {
            return Some(exact[rng.gen_range(0..exact.len())]);
        }
        cats.argmax().and_then(|c| closest_by_min_by(db, c.0, cats))
    }
}

fn pick_premium(rng: &mut ChaCha8Rng, db: &AdDatabase) -> AdId {
    let max_w = db.max_weight();
    for _ in 0..64 {
        let cand = &db.ads()[rng.gen_range(0..db.len())];
        if rng.gen_bool((cand.weight / max_w).clamp(0.0, 1.0)) {
            return cand.id;
        }
    }
    db.ads()[rng.gen_range(0..db.len())].id
}

/// The contextual and targeted picks: closest ad to `cats`, a uniform
/// draw when `cats` is empty.
fn pick_matching(rng: &mut ChaCha8Rng, db: &AdDatabase, cats: &CategoryVector) -> AdId {
    match cats.argmax().and_then(|c| closest_by_min_by(db, c.0, cats)) {
        Some(id) => id,
        None => db.ads()[rng.gen_range(0..db.len())].id,
    }
}

fn closest_by_min_by(db: &AdDatabase, category: u16, query: &CategoryVector) -> Option<AdId> {
    let bucket = db.by_primary_category(category);
    let all: Vec<AdId>;
    let candidates = if bucket.is_empty() {
        all = db.ads().iter().map(|a| a.id).collect();
        &all
    } else {
        bucket
    };
    candidates
        .iter()
        .min_by(|a, b| {
            let da = db.ad(**a).categories.euclidean(query);
            let db_ = db.ad(**b).categories.euclidean(query);
            da.partial_cmp(&db_).unwrap_or(std::cmp::Ordering::Equal)
        })
        .copied()
}

struct Fixture {
    world: World,
    db: AdDatabase,
    /// Hosts a page visit can land on.
    pages: Vec<HostId>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(&WorldConfig::tiny());
        let db = AdDatabase::generate(&world, 400, 11);
        let pages = world
            .hosts()
            .iter()
            .filter(|h| matches!(h.kind, HostKind::Site | HostKind::Core))
            .map(|h| h.id)
            .collect();
        Fixture { world, db, pages }
    })
}

fn bits(v: &CategoryVector) -> Vec<(u16, u32)> {
    v.iter().map(|(c, w)| (c.0, w.to_bits())).collect()
}

proptest! {
    #[test]
    fn every_interleaving_serves_the_ads_the_eager_network_served(
        // (what, user, page): six in ten steps are visits, three are
        // impressions, one reads the profile. The longest runs overflow
        // a 200-visit window; windows of 1 and 3 evict from the start.
        steps in proptest::collection::vec((0u8..10, 0u32..3, any::<usize>()), 300..1200),
        window in 0usize..3,
        coverage in 0usize..3,
        seed in any::<u64>(),
    ) {
        let Fixture { world, db, pages } = fixture();
        let config = AdNetworkConfig {
            profile_window: [1, 3, 200][window],
            tracker_coverage: [0.0, 0.85, 1.0][coverage],
            ..AdNetworkConfig::default()
        };
        let mut network = AdNetwork::new(config.clone());
        let mut eager = EagerNetwork { config, cookies: HashMap::new() };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut eager_rng = rng.clone();
        let mut kinds = [0usize; 4];
        for (what, user, page) in steps {
            let (user, page) = (UserId(user), pages[page % pages.len()]);
            match what {
                0..=5 => {
                    network.observe_visit(&mut rng, user, page);
                    eager.observe_visit(&mut eager_rng, world, user, page);
                }
                6..=8 => {
                    let served = network.serve(&mut rng, world, db, user, page);
                    prop_assert_eq!(served, eager.serve(&mut eager_rng, world, db, user, page));
                    kinds[served.expect("the inventory is not empty").1 as usize] += 1;
                }
                _ => prop_assert_eq!(
                    bits(&network.cookie_profile(world, user)),
                    bits(&eager.cookie_profile(user))
                ),
            }
        }
        // A user the tracker never saw reads as empty on both sides.
        prop_assert!(network.cookie_profile(world, UserId(9)).is_empty());
        prop_assert_eq!(format!("{rng:?}"), format!("{eager_rng:?}"), "RNG states diverged");
        // Without a tracker there is no history to retarget from.
        let idle = usize::from(coverage == 0);
        prop_assert!(
            kinds.iter().filter(|&&n| n == 0).count() == idle,
            "serving paths run (premium, retargeted, contextual, targeted): {:?}",
            kinds
        );
    }
}
