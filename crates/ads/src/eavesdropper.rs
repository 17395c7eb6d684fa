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

/// Relative error bound of the f32 distance `CategoryVector::euclidean`
/// computes, squared, against the exact squared distance: its sequential
/// sum of at most `MAX_TERMS` rounded squares of rounded differences, then
/// a rounded square root, stays within `γ_{MAX_TERMS + 4} < 2⁻¹⁵·⁵` of it.
/// `2⁻¹²` leaves room for the rounding of the candidate bound itself.
const DELTA: f64 = 1.0 / 4096.0;

/// Absolute error bound of the f64 estimate `‖p‖² + ‖h‖² − 2p·h` against
/// the exact squared distance, plus twice the f32 sum's underflow. Every product
/// of two f32 weights is exact in f64; with at most `MAX_TERMS` weights in
/// `[0, 1]` on each side the three sums and the two combining steps err by
/// less than `6·330²·2⁻⁵³ < 2⁻³³`, and a square that underflows in f32
/// loses less than `2⁻¹⁴⁹`.
const EPSILON: f64 = 1.0 / (1u64 << 30) as f64;

/// The most terms a profile and a labeled host may bring to one distance
/// for `DELTA` and `EPSILON` to hold (328 categories, with room to spare).
/// Past it, every labeled host is a candidate.
const MAX_TERMS: usize = 330;

/// Turns session profiles into replacement-ad lists.
pub struct EavesdropperSelector<'a> {
    db: &'a AdDatabase,
    /// Snapshot of `H_L`: the labeled hosts' category vectors.
    labeled: Vec<&'a CategoryVector>,
    /// `‖h‖²` of each labeled host, summed in f64.
    labeled_sq: Vec<f64>,
    /// One past the largest category id a labeled host carries: the width
    /// of the dense profile `select` gathers from.
    width: usize,
    /// The most entries any labeled host has.
    longest: usize,
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
        let labeled_sq = labeled
            .iter()
            .map(|h| h.iter().map(|(_, w)| f64::from(w) * f64::from(w)).sum())
            .collect();
        let width = labeled
            .iter()
            .filter_map(|h| h.ids().last())
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0);
        let longest = labeled.iter().map(|h| h.len()).max().unwrap_or(0);
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
            labeled_sq,
            width,
            longest,
            host_ads,
            config,
        }
    }

    /// The replacement list for one profile: up to
    /// `hosts_per_profile` ads, one per nearest labeled host, deduplicated,
    /// nearest host first.
    ///
    /// The nearest hosts are the first `k` of `H_L` in `(distance, labeled
    /// index)` order, the distance being `CategoryVector::euclidean`.
    /// Hosts at equal distance are taken in labeled order, which is the
    /// ontology's name order; a tie between identical vectors cannot
    /// change the list, since identical vectors are served the same ad.
    ///
    /// Only candidates are measured exactly: the hosts whose f64 estimate
    /// `A(h) = ‖p‖² + ‖h‖² − 2p·h` is at most `(τ + ε)(1 + δ)/(1 − δ) + ε`,
    /// `τ` the `k`-th smallest estimate (`candidates` proves the bound).
    /// The CTR replay admits 20.1 hosts a profile for `k = 20`.
    pub fn select(&self, profile: &CategoryVector) -> Vec<AdId> {
        let k = self.config.hosts_per_profile.min(self.labeled.len());
        if profile.is_empty() || k == 0 || self.db.is_empty() {
            return Vec::new();
        }
        let mut nearest: Vec<(f32, usize)> = self
            .candidates(profile, k)
            .into_iter()
            .map(|i| (profile.euclidean(self.labeled[i]), i))
            .collect();
        nearest.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        nearest.truncate(k);

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

    /// The labeled hosts, in index order, that may be among the `k`
    /// (`1 ≤ k ≤ |H_L|`) nearest to a non-empty `profile`: a superset of
    /// them, certified as follows.
    ///
    /// For host `h` let `D(h)` be the exact squared distance between the
    /// f32 weights, `e(h)` the f32 distance `euclidean` returns, and
    /// `A(h) = ‖p‖² + ‖h‖² − 2p·h` its f64 estimate (the profile densified
    /// once, `|h|` gathers per host). With at most `MAX_TERMS` terms per
    /// distance, `e²` is within a factor `1 ± δ` of `D` but for f32
    /// underflow `η`, and `|A − D| + 2η ≤ ε` (see `DELTA` and `EPSILON`),
    /// hence
    ///
    /// ```text
    /// (1 − δ)(A(h) − ε) ≤ e(h)² ≤ (1 + δ)(A(h) + ε).
    /// ```
    ///
    /// Let `τ` be the `k`-th smallest `A` and `T` the `k` hosts it ranks
    /// first: every `t ∈ T` has `e(t)² ≤ (1 + δ)(τ + ε)`. A host `g` with
    /// `A(g) > (τ + ε)(1 + δ)/(1 − δ) + ε` is outside `T` and has
    /// `e(g)² ≥ (1 − δ)(A(g) − ε) > (1 + δ)(τ + ε)`, so `e(g) > e(t)` for
    /// all `k` hosts of `T`: it is not among the first `k` in `(distance,
    /// index)` order, whatever the ties. Every host at or below the bound
    /// is admitted, `T` included, so the first `k` of the candidates are
    /// the first `k` of `H_L`.
    fn candidates(&self, profile: &CategoryVector, k: usize) -> Vec<usize> {
        if profile.len() + self.longest > MAX_TERMS {
            return (0..self.labeled.len()).collect();
        }
        // Profile ids no labeled host carries count in `‖p‖²` only.
        let mut dense = vec![0.0f64; self.width];
        let mut p_sq = 0.0f64;
        for (c, w) in profile.iter() {
            let w = f64::from(w);
            p_sq += w * w;
            if let Some(slot) = dense.get_mut(c.index()) {
                *slot = w;
            }
        }
        let approx: Vec<f64> = self
            .labeled
            .iter()
            .zip(&self.labeled_sq)
            .map(|(h, &h_sq)| {
                let dot: f64 = h.iter().map(|(c, w)| dense[c.index()] * f64::from(w)).sum();
                p_sq + h_sq - 2.0 * dot
            })
            .collect();
        let mut ranked = approx.clone();
        let (_, &mut tau, _) = ranked.select_nth_unstable_by(k - 1, f64::total_cmp);
        let bound = (tau + EPSILON) * (1.0 + DELTA) / (1.0 - DELTA) + EPSILON;
        approx
            .iter()
            .enumerate()
            .filter(|(_, &a)| a <= bound)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::AdDatabase;
    use hostprof_ontology::CategoryId;
    use hostprof_synth::{World, WorldConfig};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::OnceLock;

    fn setup() -> (World, AdDatabase) {
        let world = World::generate(&WorldConfig::tiny());
        let db = AdDatabase::generate(&world, 400, 23);
        (world, db)
    }

    fn world_db() -> &'static (World, AdDatabase) {
        static FIXTURE: OnceLock<(World, AdDatabase)> = OnceLock::new();
        FIXTURE.get_or_init(setup)
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

    /// Every labeled host measured exactly, in `(distance, labeled index)`
    /// order.
    fn ranked(sel: &EavesdropperSelector<'_>, profile: &CategoryVector) -> Vec<(f32, usize)> {
        let mut all: Vec<(f32, usize)> = sel
            .labeled
            .iter()
            .enumerate()
            .map(|(i, h)| (profile.euclidean(h), i))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all
    }

    /// The selector as a full scan: the first `k` of `ranked` served.
    fn full_scan(sel: &EavesdropperSelector<'_>, profile: &CategoryVector) -> Vec<AdId> {
        let k = sel.config.hosts_per_profile.min(sel.labeled.len());
        if profile.is_empty() || k == 0 || sel.db.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &(_, i) in &ranked(sel, profile)[..k] {
            if let Some(id) = sel.host_ads[i] {
                if !out.contains(&id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Whether the `k`-th and `k+1`-th nearest hosts are exactly equally
    /// far from `profile` and served different ads.
    fn tie_at_kth(sel: &EavesdropperSelector<'_>, profile: &CategoryVector) -> bool {
        let k = sel.config.hosts_per_profile;
        if k == 0 || k >= sel.labeled.len() {
            return false;
        }
        let all = ranked(sel, profile);
        let (a, b) = (all[k - 1], all[k]);
        a.0 == b.0 && sel.host_ads[a.1] != sel.host_ads[b.1]
    }

    /// A random vector over `ids` with `n` entries. Dyadic weights (quarters)
    /// make every f32 operation of a distance exact, so distinct vectors
    /// tie; uniform weights reach the rounding the certificate bounds.
    fn random_vector(rng: &mut ChaCha8Rng, ids: u16, n: usize, dyadic: bool) -> CategoryVector {
        // A partial Fisher–Yates shuffle picks `n` distinct ids.
        let mut picked: Vec<u16> = (0..ids).collect();
        let n = n.min(picked.len());
        for i in 0..n {
            let j = rng.gen_range(i..picked.len());
            picked.swap(i, j);
        }
        CategoryVector::from_pairs(
            picked[..n]
                .iter()
                .map(|&c| {
                    let w = if dyadic {
                        rng.gen_range(1..=4) as f32 / 4.0
                    } else {
                        1.0 - rng.gen::<f32>()
                    };
                    (CategoryId(c), w)
                })
                .collect(),
        )
    }

    #[test]
    fn an_exact_tie_at_the_kth_place_goes_to_the_lower_index() {
        let (_, db) = setup();
        // Three hosts 1.25² from the profile in different categories, one
        // at distance 0: with k = 2 the second place is a three-way tie.
        let mut ontology = Ontology::new();
        for (name, c, w) in [
            ("a", 1, 0.5),
            ("b", 60, 0.5),
            ("c", 200, 0.5),
            ("d", 0, 1.0),
        ] {
            ontology.insert(name, CategoryVector::from_pairs(vec![(CategoryId(c), w)]));
        }
        let profile = CategoryVector::singleton(CategoryId(0));
        let sel = EavesdropperSelector::new(
            &db,
            &ontology,
            SelectorConfig {
                hosts_per_profile: 2,
            },
        );
        assert!(tie_at_kth(&sel, &profile), "the fixture ties at k");
        let lower = (0..4)
            .filter(|&i| sel.labeled[i].get(CategoryId(0)) == 0.0)
            .min()
            .expect("three hosts away from the profile");
        let own = (0..4).find(|&i| sel.labeled[i].get(CategoryId(0)) > 0.0);
        let mut expected = Vec::new();
        for id in [sel.host_ads[own.unwrap()], sel.host_ads[lower]]
            .into_iter()
            .flatten()
        {
            if !expected.contains(&id) {
                expected.push(id);
            }
        }
        assert_eq!(sel.select(&profile), expected);
        assert_eq!(sel.select(&profile), full_scan(&sel, &profile));
    }

    /// Two hosts whose exact distances differ by `t² = 2⁻²⁶`, which the
    /// f32 sum absorbs into 1.25: `euclidean` ties them, so the lower
    /// index, host `a`, wins. The second profile is nearer `b` exactly
    /// and in f64, so `a` is its f64 runner-up, and only the bound's
    /// slack admits it.
    #[test]
    fn a_tie_only_f32_sees_is_kept_by_the_prefilter() {
        let (_, db) = setup();
        let t = 1.0 / 8192.0;
        let mut ontology = Ontology::new();
        ontology.insert("a", CategoryVector::from_pairs(vec![(CategoryId(0), 0.5)]));
        ontology.insert(
            "b",
            CategoryVector::from_pairs(vec![(CategoryId(1), 0.5), (CategoryId(5), t)]),
        );
        let sel = EavesdropperSelector::new(
            &db,
            &ontology,
            SelectorConfig {
                hosts_per_profile: 1,
            },
        );
        for profile in [
            vec![(CategoryId(2), 1.0)],
            vec![(CategoryId(2), 1.0), (CategoryId(5), t)],
        ] {
            let profile = CategoryVector::from_pairs(profile);
            assert!(tie_at_kth(&sel, &profile), "f32 ties the two hosts");
            assert_eq!(sel.candidates(&profile, 1), vec![0, 1]);
            assert_eq!(sel.select(&profile), full_scan(&sel, &profile));
            assert_eq!(
                sel.select(&profile),
                sel.host_ads[0].into_iter().collect::<Vec<_>>()
            );
        }
    }

    proptest! {
        // Run by the test below, which then reads `STATS`.
        fn select_equals_the_full_scan(
            seed in any::<u64>(),
            pool in 1usize..400,
            profile_kind in 0usize..4,
            k_kind in 0usize..4,
            dyadic in any::<bool>(),
        ) {
            let (_, db) = world_db();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Labeled hosts use the first 300 ids only; one in four is a
            // copy of an earlier host.
            let mut ontology = Ontology::new();
            let mut vectors: Vec<CategoryVector> = Vec::new();
            for i in 0..pool {
                let v = if i > 0 && rng.gen_bool(0.25) {
                    vectors[rng.gen_range(0..i)].clone()
                } else {
                    let n = rng.gen_range(1..=4usize);
                    random_vector(&mut rng, 300, n, dyadic)
                };
                ontology.insert(&format!("h{i}.example"), v.clone());
                vectors.push(v);
            }
            let hosts_per_profile = [0, 1, 20, pool + rng.gen_range(0..3usize)][k_kind];
            // Empty, full, and two draws in between.
            let profile_len = [0, 328, rng.gen_range(1..328usize), rng.gen_range(1..100usize)][profile_kind];
            let sel = EavesdropperSelector::new(
                db,
                &ontology,
                SelectorConfig { hosts_per_profile },
            );
            for _ in 0..8 {
                let profile = random_vector(&mut rng, 328, profile_len, dyadic);
                let got = sel.select(&profile);
                prop_assert_eq!(&got, &full_scan(&sel, &profile));
                let k = hosts_per_profile.min(sel.labeled.len());
                if !profile.is_empty() && k > 0 {
                    let admitted = sel.candidates(&profile, k).len();
                    prop_assert!(admitted >= k);
                    let mut stats = STATS.lock().unwrap();
                    stats.0 += 1;
                    stats.1 += admitted;
                    stats.2 += k;
                    stats.3 += usize::from(tie_at_kth(&sel, &profile));
                }
            }
        }
    }

    /// (selections, hosts admitted, hosts asked for, ties at the k-th
    /// place) over the proptest above.
    static STATS: std::sync::Mutex<(usize, usize, usize, usize)> =
        std::sync::Mutex::new((0, 0, 0, 0));

    #[test]
    fn select_equals_the_full_scan_and_reports_its_admit_rate() {
        select_equals_the_full_scan();
        let (n, admitted, asked, ties) = *STATS.lock().unwrap();
        eprintln!(
            "selector twin: {n} selections, {:.1} hosts admitted on average for {:.1} \
             asked, {ties} exact ties at the k-th place",
            admitted as f64 / n.max(1) as f64,
            asked as f64 / n.max(1) as f64
        );
        assert!(ties > 0, "no case met a tie at the k-th place");
    }
}
