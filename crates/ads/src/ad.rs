//! The ad database.
//!
//! During the paper's three-month collection phase the extension harvested
//! the ads users received; after filtering broken and offensive creatives,
//! ~12 K ads remained (Section 5.2). Each ad has a creative with a pixel
//! size (replacement requires a size match, Section 5.3) and a landing
//! page whose categories describe what the ad sells.

use hostprof_ontology::CategoryVector;
use hostprof_synth::{HostId, HostKind, World};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of an ad in the database.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AdId(pub u32);

impl AdId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A creative's pixel dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CreativeSize {
    /// Width in pixels.
    pub width: u16,
    /// Height in pixels.
    pub height: u16,
}

/// The standard IAB display sizes the synthetic ecosystem uses.
pub const IAB_SIZES: [CreativeSize; 6] = [
    CreativeSize {
        width: 300,
        height: 250,
    }, // medium rectangle
    CreativeSize {
        width: 728,
        height: 90,
    }, // leaderboard
    CreativeSize {
        width: 160,
        height: 600,
    }, // skyscraper
    CreativeSize {
        width: 320,
        height: 50,
    }, // mobile banner
    CreativeSize {
        width: 300,
        height: 600,
    }, // half page
    CreativeSize {
        width: 970,
        height: 250,
    }, // billboard
];

/// One ad.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ad {
    /// Stable id (== index into the database).
    pub id: AdId,
    /// Creative pixel size.
    pub size: CreativeSize,
    /// The site the landing page belongs to.
    pub landing_host: HostId,
    /// Categories of the landing page (ground truth).
    pub categories: CategoryVector,
    /// Whether the ontology (Adwords) covers the landing page — only
    /// labeled ads appear in the Figure 6 topic analysis, mirroring the
    /// paper's "only ads for which Google Adwords returned an answer".
    pub labeled: bool,
    /// How prominent the advertiser is; premium campaigns draw from the
    /// popular end.
    pub weight: f64,
}

/// Outcome of the collection-phase harvest (Section 5.2: ads "were
/// manually filtered to remove ads not properly downloaded … or
/// offensive", leaving ~12 K of the raw capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HarvestStats {
    /// Ads captured by the extension during collection.
    pub raw: usize,
    /// Creatives that failed to capture (dynamic HTML5).
    pub broken: usize,
    /// Ads rejected as offensive.
    pub offensive: usize,
    /// Ads kept in the database.
    pub kept: usize,
}

/// The filtered ad inventory plus category indexes for fast selection.
#[derive(Debug, Clone)]
pub struct AdDatabase {
    ads: Vec<Ad>,
    /// Ads grouped by their landing page's strongest category.
    by_primary_category: HashMap<u16, Vec<AdId>>,
    /// Ads grouped by creative size.
    by_size: HashMap<CreativeSize, Vec<AdId>>,
    /// Ads grouped by landing page, in inventory order (retargeting).
    by_landing: HashMap<HostId, Vec<AdId>>,
    /// Largest advertiser weight, for premium rejection sampling.
    max_weight: f64,
}

impl AdDatabase {
    /// Harvest an inventory of `num_ads` ads from a world: each ad lands on
    /// a content site (popularity-weighted, as popular advertisers run more
    /// campaigns), inherits its categories, and gets an IAB creative size.
    pub fn generate(world: &World, num_ads: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sites: Vec<&hostprof_synth::Host> = world
            .hosts()
            .iter()
            .filter(|h| h.kind == HostKind::Site)
            .collect();
        assert!(!sites.is_empty(), "world has no sites to advertise");
        let weights: Vec<f64> = sites.iter().map(|h| h.popularity).collect();
        let sampler = hostprof_synth::sampling::WeightedIndex::new(&weights)
            .expect("site popularities are positive");

        let mut ads = Vec::with_capacity(num_ads);
        for i in 0..num_ads {
            let site = sites[sampler.sample(&mut rng)];
            let size = IAB_SIZES[rng.gen_range(0..IAB_SIZES.len())];
            ads.push(Ad {
                id: AdId(i as u32),
                size,
                landing_host: site.id,
                categories: site.categories.clone(),
                labeled: world.ontology().is_labeled(&site.name),
                weight: site.popularity,
            });
        }
        Self::from_ads(ads)
    }

    /// The full collection-phase pipeline: capture `raw_count` ads, drop
    /// the ~12 % whose creatives fail to download and the ads landing on
    /// nightlife/adult-adjacent sites (the paper's offensive filter), and
    /// build the database from the survivors.
    pub fn harvest(world: &World, raw_count: usize, seed: u64) -> (Self, HarvestStats) {
        let raw = Self::generate(world, raw_count, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf11_7e12);
        let offensive_topic = world
            .hierarchy()
            .top_ids()
            .find(|t| world.hierarchy().top_name(*t) == "Clubs & Nightlife");
        let mut broken = 0usize;
        let mut offensive = 0usize;
        let mut kept: Vec<Ad> = Vec::with_capacity(raw_count);
        for ad in raw.ads() {
            if rng.gen_bool(0.12) {
                broken += 1;
                continue;
            }
            let topic = world.host(ad.landing_host).top_topic;
            if topic.is_some() && topic == offensive_topic {
                offensive += 1;
                continue;
            }
            let mut ad = ad.clone();
            ad.id = AdId(kept.len() as u32);
            kept.push(ad);
        }
        let stats = HarvestStats {
            raw: raw_count,
            broken,
            offensive,
            kept: kept.len(),
        };
        (Self::from_ads(kept), stats)
    }

    /// Build the indexes over an explicit inventory.
    pub fn from_ads(ads: Vec<Ad>) -> Self {
        let mut by_primary_category: HashMap<u16, Vec<AdId>> = HashMap::new();
        let mut by_size: HashMap<CreativeSize, Vec<AdId>> = HashMap::new();
        let mut by_landing: HashMap<HostId, Vec<AdId>> = HashMap::new();
        let mut max_weight = f64::MIN_POSITIVE;
        for ad in &ads {
            if let Some(c) = ad.categories.argmax() {
                by_primary_category.entry(c.0).or_default().push(ad.id);
            }
            by_size.entry(ad.size).or_default().push(ad.id);
            by_landing.entry(ad.landing_host).or_default().push(ad.id);
            max_weight = max_weight.max(ad.weight);
        }
        Self {
            ads,
            by_primary_category,
            by_size,
            by_landing,
            max_weight,
        }
    }

    /// Number of ads.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// Ad by id.
    ///
    /// # Panics
    /// Panics when the id is not from this database.
    pub fn ad(&self, id: AdId) -> &Ad {
        &self.ads[id.index()]
    }

    /// All ads.
    pub fn ads(&self) -> &[Ad] {
        &self.ads
    }

    /// Ads whose strongest landing category is `category`.
    pub fn by_primary_category(&self, category: u16) -> &[AdId] {
        self.by_primary_category
            .get(&category)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Ads with a given creative size.
    pub fn by_size(&self, size: CreativeSize) -> &[AdId] {
        self.by_size.get(&size).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ads landing on a given site, in inventory order.
    pub fn by_landing_host(&self, host: HostId) -> &[AdId] {
        self.by_landing.get(&host).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The largest advertiser weight in the inventory (≥ f64::MIN_POSITIVE
    /// even when empty, so rejection sampling never divides by zero).
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }

    /// The ad whose category vector is Euclidean-closest to `query` among
    /// ads with primary category `category` (falling back to a global scan
    /// when that bucket is empty). Used by the eavesdropper's per-host ad
    /// pick.
    pub fn closest_ad_in_category(&self, category: u16, query: &CategoryVector) -> Option<AdId> {
        let bucket = self.by_primary_category(category);
        // The first of several equally close ads wins: a later candidate
        // replaces the best only when strictly closer.
        let closest = |best: Option<(AdId, f32)>, id: AdId| {
            let d = self.ads[id.index()].categories.euclidean(query);
            match best {
                Some((_, best_d)) if d < best_d => Some((id, d)),
                None => Some((id, d)),
                _ => best,
            }
        };
        let best = if bucket.is_empty() {
            self.ads.iter().map(|a| a.id).fold(None, closest)
        } else {
            bucket.iter().copied().fold(None, closest)
        };
        best.map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostprof_synth::WorldConfig;

    fn db() -> (World, AdDatabase) {
        let world = World::generate(&WorldConfig::tiny());
        let db = AdDatabase::generate(&world, 500, 7);
        (world, db)
    }

    #[test]
    fn generation_fills_the_inventory() {
        let (world, db) = db();
        assert_eq!(db.len(), 500);
        for ad in db.ads() {
            assert_eq!(world.host(ad.landing_host).kind, HostKind::Site);
            assert!(!ad.categories.is_empty());
            assert!(IAB_SIZES.contains(&ad.size));
        }
    }

    #[test]
    fn some_ads_are_labeled_and_some_not() {
        let (_, db) = db();
        let labeled = db.ads().iter().filter(|a| a.labeled).count();
        assert!(labeled > 0, "popular landing pages are in Adwords");
        assert!(labeled < db.len(), "coverage is partial");
    }

    #[test]
    fn category_index_is_consistent() {
        let (_, db) = db();
        for (cat, ids) in db.by_primary_category.iter() {
            for id in ids {
                assert_eq!(db.ad(*id).categories.argmax().unwrap().0, *cat);
            }
        }
    }

    #[test]
    fn size_index_is_consistent_and_covers_inventory() {
        let (_, db) = db();
        let total: usize = IAB_SIZES.iter().map(|s| db.by_size(*s).len()).sum();
        assert_eq!(total, db.len());
    }

    #[test]
    fn closest_ad_prefers_matching_categories() {
        let (_, db) = db();
        let some_ad = &db.ads()[0];
        let cat = some_ad.categories.argmax().unwrap();
        let found = db
            .closest_ad_in_category(cat.0, &some_ad.categories)
            .unwrap();
        // The found ad's distance can't exceed the probe ad's own distance
        // (which is 0 to itself — so we must find something at distance 0
        // or the probe itself).
        let d = db.ad(found).categories.euclidean(&some_ad.categories);
        assert!(d <= 1e-6, "distance {d}");
    }

    #[test]
    fn popular_sites_get_more_ads() {
        let (world, db) = db();
        // The most popular site should appear as a landing page more often
        // than the median site.
        let mut counts: HashMap<HostId, usize> = HashMap::new();
        for ad in db.ads() {
            *counts.entry(ad.landing_host).or_insert(0) += 1;
        }
        let top_site = world
            .hosts()
            .iter()
            .filter(|h| h.kind == HostKind::Site)
            .max_by(|a, b| a.popularity.partial_cmp(&b.popularity).unwrap())
            .unwrap();
        assert!(counts.get(&top_site.id).copied().unwrap_or(0) >= 2);
    }

    #[test]
    fn harvest_filters_broken_and_offensive_ads() {
        let world = World::generate(&WorldConfig::tiny());
        let (db, stats) = AdDatabase::harvest(&world, 1000, 3);
        assert_eq!(stats.raw, 1000);
        assert_eq!(stats.kept, db.len());
        assert_eq!(stats.raw, stats.kept + stats.broken + stats.offensive);
        assert!(stats.broken > 50, "≈12% broken: {}", stats.broken);
        // Ids are re-densified.
        for (i, ad) in db.ads().iter().enumerate() {
            assert_eq!(ad.id.index(), i);
        }
        // No kept ad lands on the offensive topic.
        let nightlife = world
            .hierarchy()
            .top_ids()
            .find(|t| world.hierarchy().top_name(*t) == "Clubs & Nightlife")
            .unwrap();
        for ad in db.ads() {
            assert_ne!(world.host(ad.landing_host).top_topic, Some(nightlife));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let world = World::generate(&WorldConfig::tiny());
        let a = AdDatabase::generate(&world, 100, 7);
        let b = AdDatabase::generate(&world, 100, 7);
        for (x, y) in a.ads().iter().zip(b.ads()) {
            assert_eq!(x.landing_host, y.landing_host);
            assert_eq!(x.size, y.size);
        }
    }
}
