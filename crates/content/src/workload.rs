//! Per-node libraries and query generation.
//!
//! A [`Library`] is the set of files a node shares; a [`WorkloadGen`]
//! owns one library + interest profile per node and produces the query
//! stream that drives a simulation. Both draw from the same interest
//! profile, producing the interest-based locality the routing heuristic
//! exploits.
//!
//! The generator also keeps the inverted `FileId → holders` index, so
//! "who can answer this query" costs O(holders) instead of a scan over
//! every library. Libraries only grow through
//! [`WorkloadGen::add_replica`], which updates both sides together.

use crate::catalog::{Catalog, FileId, Topic};
use crate::interest::InterestProfile;
use arq_simkern::Rng64;

/// What a query asks for. Matching is by exact file — the Gnutella
/// analogue of "this set of keywords identifies the song I want". The
/// topic rides along for baselines (routing indices classify by topic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryKey {
    /// The file being searched for.
    pub file: FileId,
    /// The file's interest group.
    pub topic: Topic,
}

/// The set of files one node shares, as a sorted, deduplicated vector:
/// a few dozen ids per node, so binary search beats a tree and the
/// memory is one allocation of exactly the library's size.
#[derive(Debug, Clone, Default)]
pub struct Library {
    files: Vec<FileId>,
}

impl Library {
    /// An empty library (free riders exist in real networks).
    pub fn empty() -> Self {
        Library::default()
    }

    /// Fills a library with `n` files drawn from the node's interests.
    pub fn sample(catalog: &Catalog, profile: &InterestProfile, n: usize, rng: &mut Rng64) -> Self {
        let mut lib = Library::default();
        let mut guard = 0;
        while lib.len() < n && guard < n * 50 {
            let topic = profile.sample_topic(rng);
            lib.insert(catalog.sample_file(topic, rng));
            guard += 1;
        }
        lib.files.shrink_to_fit();
        lib
    }

    /// Whether the library contains `f`.
    pub fn contains(&self, f: FileId) -> bool {
        self.files.binary_search(&f).is_ok()
    }

    /// Whether this library can answer `q`.
    pub fn matches(&self, q: QueryKey) -> bool {
        self.contains(q.file)
    }

    /// Number of shared files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the node shares nothing.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over shared files in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = FileId> + '_ {
        self.files.iter().copied()
    }

    /// Adds a file, returning whether it was new.
    fn insert(&mut self, f: FileId) -> bool {
        match self.files.binary_search(&f) {
            Ok(_) => false,
            Err(pos) => {
                self.files.insert(pos, f);
                true
            }
        }
    }
}

/// Workload shape parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Interests per node.
    pub interests_per_node: usize,
    /// Shared files per node (mean; actual value is uniform in ±50%).
    pub files_per_node: usize,
    /// Fraction of nodes sharing nothing (free riders).
    pub free_rider_fraction: f64,
    /// Per-query probability that a node's profile drifts one step.
    pub drift_per_query: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            interests_per_node: 3,
            files_per_node: 60,
            free_rider_fraction: 0.2,
            drift_per_query: 0.0005,
        }
    }
}

/// Per-node state driving query generation.
pub struct WorkloadGen {
    cfg: WorkloadConfig,
    profiles: Vec<InterestProfile>,
    libraries: Vec<Library>,
    /// `holders[f]`: the nodes whose library holds file `f`, ascending.
    holders: Vec<Vec<u32>>,
}

impl WorkloadGen {
    /// Builds libraries and profiles for `n` nodes.
    pub fn generate(n: usize, catalog: &Catalog, cfg: WorkloadConfig, rng: &mut Rng64) -> Self {
        let mut profiles = Vec::with_capacity(n);
        let mut libraries = Vec::with_capacity(n);
        for _ in 0..n {
            let profile =
                InterestProfile::sample(catalog.topic_count(), cfg.interests_per_node, rng);
            let lib = if rng.chance(cfg.free_rider_fraction) {
                Library::empty()
            } else {
                let lo = cfg.files_per_node / 2;
                let span = cfg.files_per_node.max(1);
                let count = lo + rng.index(span);
                Library::sample(catalog, &profile, count.max(1), rng)
            };
            profiles.push(profile);
            libraries.push(lib);
        }
        // Two passes so every holder list is allocated at its exact size.
        let mut counts = vec![0usize; catalog.len()];
        for f in libraries.iter().flat_map(Library::iter) {
            counts[f.0 as usize] += 1;
        }
        let mut holders: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (i, lib) in libraries.iter().enumerate() {
            for f in lib.iter() {
                holders[f.0 as usize].push(i as u32);
            }
        }
        WorkloadGen {
            cfg,
            profiles,
            libraries,
            holders,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the workload covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The library of node `i`.
    pub fn library(&self, i: usize) -> &Library {
        &self.libraries[i]
    }

    /// Adds file `f` to node `i`'s library (e.g. after a successful
    /// download — downloads spread content in real networks), keeping
    /// the holders index in step. Returns whether the file was new.
    pub fn add_replica(&mut self, i: usize, f: FileId) -> bool {
        let added = self.libraries[i].insert(f);
        if added {
            let list = &mut self.holders[f.0 as usize];
            let pos = list.partition_point(|&h| (h as usize) < i);
            list.insert(pos, i as u32);
        }
        added
    }

    /// The interest profile of node `i`.
    pub fn profile(&self, i: usize) -> &InterestProfile {
        &self.profiles[i]
    }

    /// Generates the next query for node `i`, applying interest drift.
    pub fn next_query(&mut self, i: usize, catalog: &Catalog, rng: &mut Rng64) -> QueryKey {
        self.profiles[i].drift(catalog.topic_count(), self.cfg.drift_per_query, rng);
        let topic = self.profiles[i].sample_topic(rng);
        let file = catalog.sample_file(topic, rng);
        QueryKey { file, topic }
    }

    /// All nodes whose library can answer `q`, ascending — ground truth
    /// for hit-rate accounting.
    pub fn holders(&self, q: QueryKey) -> Vec<usize> {
        self.holder_ids(q.file)
            .iter()
            .map(|&h| h as usize)
            .collect()
    }

    /// The nodes holding file `f`, ascending, borrowed from the index.
    pub fn holder_ids(&self, f: FileId) -> &[u32] {
        &self.holders[f.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use std::collections::BTreeSet;

    fn setup() -> (Catalog, WorkloadGen, Rng64) {
        let mut rng = Rng64::seed_from(42);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 10,
                files_per_topic: 100,
                ..Default::default()
            },
            &mut rng,
        );
        let gen = WorkloadGen::generate(
            100,
            &catalog,
            WorkloadConfig {
                free_rider_fraction: 0.2,
                ..Default::default()
            },
            &mut rng,
        );
        (catalog, gen, rng)
    }

    #[test]
    fn library_sampling_respects_interests() {
        let mut rng = Rng64::seed_from(9);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 10,
                files_per_topic: 50,
                ..Default::default()
            },
            &mut rng,
        );
        let profile = InterestProfile::from_pairs(&[(Topic(3), 1.0)]);
        let lib = Library::sample(&catalog, &profile, 20, &mut rng);
        assert!(!lib.is_empty());
        for f in lib.iter() {
            assert_eq!(catalog.meta(f).topic, Topic(3));
        }
    }

    #[test]
    fn free_riders_exist_in_expected_proportion() {
        let (_, gen, _) = setup();
        let free = (0..gen.len())
            .filter(|&i| gen.library(i).is_empty())
            .count();
        assert!((10..=35).contains(&free), "free riders {free}/100");
    }

    #[test]
    fn queries_are_answerable_by_someone_usually() {
        let (catalog, mut gen, mut rng) = setup();
        let mut answered = 0;
        let total = 500;
        for q in 0..total {
            let node = q % gen.len();
            let query = gen.next_query(node, &catalog, &mut rng);
            if !gen.holders(query).is_empty() {
                answered += 1;
            }
        }
        // Popular files are widely replicated; most queries should have at
        // least one holder somewhere in a 100-node network.
        assert!(
            answered * 10 > total * 5,
            "only {answered}/{total} answerable"
        );
    }

    #[test]
    fn interest_locality_biases_queries_to_profile_topics() {
        let (catalog, mut gen, mut rng) = setup();
        let profile_topics: BTreeSet<Topic> = gen.profile(0).topics().iter().copied().collect();
        let mut in_profile = 0;
        for _ in 0..200 {
            let q = gen.next_query(0, &catalog, &mut rng);
            if profile_topics.contains(&q.topic) {
                in_profile += 1;
            }
        }
        // Drift may rotate a topic occasionally; the vast majority of
        // queries still come from the (current) profile.
        assert!(in_profile > 150, "only {in_profile}/200 in-profile");
    }

    #[test]
    fn holders_reports_exactly_matching_nodes() {
        let (catalog, mut gen, mut rng) = setup();
        let q = gen.next_query(0, &catalog, &mut rng);
        for &h in &gen.holders(q) {
            assert!(gen.library(h).matches(q));
        }
        // insertion updates holders
        let before = gen.holders(q).len();
        let target = (0..gen.len())
            .find(|&i| !gen.library(i).matches(q))
            .unwrap();
        assert!(gen.add_replica(target, q.file));
        assert_eq!(gen.holders(q).len(), before + 1);
    }

    #[test]
    fn holders_index_matches_a_library_scan_after_replicas() {
        let (catalog, mut gen, mut rng) = setup();
        let scan = |gen: &WorkloadGen, f: FileId| -> Vec<usize> {
            (0..gen.len())
                .filter(|&i| gen.library(i).contains(f))
                .collect()
        };
        for _ in 0..2_000 {
            let node = rng.index(gen.len());
            let f = FileId(rng.index(catalog.len()) as u32);
            let had = gen.library(node).contains(f);
            assert_eq!(gen.add_replica(node, f), !had);
            assert!(gen.library(node).contains(f));
        }
        for i in 0..catalog.len() {
            let f = FileId(i as u32);
            let q = QueryKey {
                file: f,
                topic: catalog.meta(f).topic,
            };
            let expect = scan(&gen, f);
            assert_eq!(gen.holders(q), expect, "file {i}");
            let ids: Vec<usize> = gen.holder_ids(f).iter().map(|&h| h as usize).collect();
            assert_eq!(ids, expect, "file {i}");
        }
    }

    #[test]
    fn library_sample_draws_like_a_btreeset() {
        // The reference is the tree-set library this type replaced: the
        // same files, in the same order, after the same RNG draws.
        fn reference(
            catalog: &Catalog,
            profile: &InterestProfile,
            n: usize,
            rng: &mut Rng64,
        ) -> Vec<FileId> {
            let mut files = BTreeSet::new();
            let mut guard = 0;
            while files.len() < n && guard < n * 50 {
                let topic = profile.sample_topic(rng);
                files.insert(catalog.sample_file(topic, rng));
                guard += 1;
            }
            files.into_iter().collect()
        }
        let mut rng = Rng64::seed_from(3);
        let catalog = Catalog::generate(
            CatalogConfig {
                topics: 6,
                files_per_topic: 30,
                ..Default::default()
            },
            &mut rng,
        );
        for seed in 0..50 {
            let mut pr = Rng64::seed_from(seed);
            let profile = InterestProfile::sample(catalog.topic_count(), 2, &mut pr);
            // Up to 120 files from ~60 reachable ones exercises the guard.
            let n = 1 + (seed as usize * 7) % 120;
            let mut a = Rng64::seed_from(1_000 + seed);
            let mut b = a.clone();
            let lib = Library::sample(&catalog, &profile, n, &mut a);
            let want = reference(&catalog, &profile, n, &mut b);
            assert_eq!(lib.iter().collect::<Vec<_>>(), want, "seed {seed}");
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "rng state diverged at seed {seed}"
            );
        }
    }

    #[test]
    fn query_key_equality_is_by_file() {
        let a = QueryKey {
            file: FileId(5),
            topic: Topic(1),
        };
        let b = QueryKey {
            file: FileId(5),
            topic: Topic(1),
        };
        assert_eq!(a, b);
    }
}
