//! The eavesdropper's ad selection (Section 5.4, "Selecting the best ads").
//!
//! Once a session is profiled into `c^{s_u^T} ∈ [0,1]^{328}`, the paper
//! retrieves "the 20-nearest neighbors of `c^{s_u^T}` (according to
//! Euclidean distance) from the pool of hosts for which we know their
//! categorization (`H_L`)", then selects "ads for each of the closest
//! hosts" and serves that list for the next 10 minutes.

use crate::ad::{AdDatabase, AdId};
use hostprof_ontology::{CategoryVector, Ontology};
use serde::{Deserialize, Serialize};

/// Selection knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// How many labeled hosts to retrieve around the profile (paper: 20).
    pub hosts_per_profile: usize,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self {
            hosts_per_profile: 20,
        }
    }
}

/// Turns session profiles into replacement-ad lists.
pub struct EavesdropperSelector<'a> {
    db: &'a AdDatabase,
    /// Snapshot of `H_L`: the labeled hosts' category vectors.
    labeled: Vec<&'a CategoryVector>,
    /// The ad serving each labeled host, precomputed once — the per-host
    /// pick depends only on the host's categories and the (static) ad
    /// database, so there is no reason to re-derive it per report.
    host_ads: Vec<Option<AdId>>,
    config: SelectorConfig,
}

impl<'a> EavesdropperSelector<'a> {
    /// Bind an ad database and the ontology pool `H_L`.
    pub fn new(db: &'a AdDatabase, ontology: &'a Ontology, config: SelectorConfig) -> Self {
        let labeled: Vec<&CategoryVector> = ontology.iter().map(|(_, v)| v).collect();
        let host_ads = labeled
            .iter()
            .map(|cats| {
                cats.argmax()
                    .and_then(|c| db.closest_ad_in_category(c.0, cats))
            })
            .collect();
        Self {
            db,
            labeled,
            host_ads,
            config,
        }
    }

    /// The replacement list for one profile: up to
    /// `hosts_per_profile` ads, one per nearest labeled host, deduplicated,
    /// nearest host first.
    pub fn select(&self, profile: &CategoryVector) -> Vec<AdId> {
        if profile.is_empty() || self.labeled.is_empty() || self.db.is_empty() {
            return Vec::new();
        }
        // 20-NN over H_L by Euclidean distance in category space.
        let mut dists: Vec<(f32, usize)> = self
            .labeled
            .iter()
            .enumerate()
            .map(|(i, cats)| (profile.euclidean(cats), i))
            .collect();
        let k = self.config.hosts_per_profile.min(dists.len());
        if k == 0 {
            return Vec::new();
        }
        dists.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut nearest: Vec<(f32, usize)> = dists[..k].to_vec();
        nearest.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        // One ad per host, preferring the host's strongest category
        // (precomputed in `new`).
        let mut out: Vec<AdId> = Vec::with_capacity(k);
        for (_, i) in nearest {
            if let Some(id) = self.host_ads[i] {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::AdDatabase;
    use hostprof_synth::{World, WorldConfig};

    fn setup() -> (World, AdDatabase) {
        let world = World::generate(&WorldConfig::tiny());
        let db = AdDatabase::generate(&world, 400, 23);
        (world, db)
    }

    /// Every labeled host as the profile: the host is its own nearest
    /// neighbour, so the list opens with the ad picked for the host itself
    /// — the closest ad in its strongest category. When that category has
    /// no ad at all, the pick falls back to the closest ad in the whole
    /// inventory by Euclidean distance, and in sparse category space the
    /// closest ad can share no category with the host. In this world that
    /// happens to 1 probe of 60 (`searchzilla.com`: categories 0 and 5, no
    /// ad in category 5, fallback ad in category 71, cosine 0); every probe
    /// whose strongest category has ads gets a top pick with cosine > 0.2.
    #[test]
    fn selection_returns_up_to_twenty_relevant_ads() {
        let (world, db) = setup();
        let sel = EavesdropperSelector::new(&db, world.ontology(), SelectorConfig::default());
        assert!(!sel.labeled.is_empty());
        let (mut probes, mut off_topic, mut fallbacks) = (0usize, 0usize, 0usize);
        for (host, probe) in world.ontology().iter() {
            let ads = sel.select(probe);
            assert!(!ads.is_empty(), "{host}: no ads");
            assert!(ads.len() <= 20, "{host}: {} ads", ads.len());
            let strongest = probe.argmax().expect("labels are non-empty").0;
            assert_eq!(
                Some(ads[0]),
                db.closest_ad_in_category(strongest, probe),
                "{host}: the list opens with the host's own pick"
            );
            let has_bucket = !db.by_primary_category(strongest).is_empty();
            let relevance = db.ad(ads[0]).categories.cosine(probe);
            probes += 1;
            fallbacks += usize::from(!has_bucket);
            if relevance <= 0.2 {
                off_topic += 1;
                assert!(
                    !has_bucket,
                    "{host}: top pick relevance {relevance} with ads in category {strongest}"
                );
            }
        }
        assert_eq!(probes, world.ontology().len());
        assert!(fallbacks > 0, "the fallback path is exercised");
        assert!(
            off_topic * 20 <= probes,
            "{off_topic} of {probes} probes get an off-topic top pick"
        );
    }

    #[test]
    fn empty_profile_selects_nothing() {
        let (world, db) = setup();
        let sel = EavesdropperSelector::new(&db, world.ontology(), SelectorConfig::default());
        assert!(sel.select(&CategoryVector::empty()).is_empty());
    }

    #[test]
    fn list_is_deduplicated() {
        let (world, db) = setup();
        let sel = EavesdropperSelector::new(&db, world.ontology(), SelectorConfig::default());
        for (host, probe) in world.ontology().iter() {
            let ads = sel.select(probe);
            let mut dedup = ads.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), ads.len(), "{host}: {ads:?}");
        }
    }

    #[test]
    fn zero_hosts_per_profile_selects_nothing() {
        let (world, db) = setup();
        let sel = EavesdropperSelector::new(
            &db,
            world.ontology(),
            SelectorConfig {
                hosts_per_profile: 0,
            },
        );
        for (host, probe) in world.ontology().iter() {
            assert!(sel.select(probe).is_empty(), "{host}");
        }
    }

    #[test]
    fn small_pool_is_handled() {
        let (world, db) = setup();
        for (host, cats) in world.ontology().iter() {
            let mut tiny_ontology = hostprof_ontology::Ontology::new();
            tiny_ontology.insert(host, cats.clone());
            let sel = EavesdropperSelector::new(&db, &tiny_ontology, SelectorConfig::default());
            assert_eq!(sel.labeled.len(), 1);
            assert_eq!(sel.select(cats).len(), 1, "{host}");
        }
    }

    #[test]
    fn relevance_beats_random_on_average() {
        let (world, db) = setup();
        let sel = EavesdropperSelector::new(&db, world.ontology(), SelectorConfig::default());
        let mut selected_sim = 0f64;
        let mut random_sim = 0f64;
        let mut n = 0usize;
        for (i, (_, probe)) in world.ontology().iter().enumerate() {
            let ads = sel.select(probe);
            if ads.is_empty() {
                continue;
            }
            for id in &ads {
                selected_sim += db.ad(*id).categories.cosine(probe) as f64;
                // Deterministic "random" comparator: stride the inventory.
                let r = db.ads()[(i * 37 + id.index() * 13) % db.len()].id;
                random_sim += db.ad(r).categories.cosine(probe) as f64;
                n += 1;
            }
        }
        assert!(n > 100);
        assert!(
            selected_sim > random_sim * 1.5,
            "selected {selected_sim} vs random {random_sim}"
        );
    }
}
