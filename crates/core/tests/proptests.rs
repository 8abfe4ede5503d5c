//! Property-based tests for the domain name tree and feature invariants.

use std::collections::HashSet;

use dnsnoise_core::{DomainTree, GroupFeatures, Miner, MinerConfig};
use dnsnoise_dns::{Label, Name, SuffixList};
use dnsnoise_ml::Model;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::string::string_regex("[a-z0-9]{1,12}").unwrap().prop_map(|s| Label::new(&s).unwrap())
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 2..6).prop_map(Name::from_labels)
}

fn arb_observation() -> impl Strategy<Value = (Name, f64, u32)> {
    (arb_name(), 0.0f64..=1.0, 0u32..20)
}

/// Names dense enough to share zones: one to three short labels under a
/// handful of registered domains (one below a two-label suffix).
fn arb_clustered_name() -> impl Strategy<Value = Name> {
    let label = proptest::string::string_regex("[a-d]{1,2}").unwrap();
    let apex = prop_oneof![Just("x.com"), Just("y.com"), Just("z.co.uk")];
    (proptest::collection::vec(label, 1..4), apex)
        .prop_map(|(labels, apex)| format!("{}.{apex}", labels.join(".")).parse().unwrap())
}

/// One cycle's `(dhr, misses)` pairs for each of up to 40 names: one to
/// three per name, with hit rates on a coarse grid so exact zeros (the
/// zero-CHR feature) are common.
fn arb_cycle_values() -> impl Strategy<Value = Vec<Vec<(f64, u32)>>> {
    let dhr = (0u32..4).prop_map(|k| f64::from(k) / 3.0);
    proptest::collection::vec(proptest::collection::vec((dhr, 0u32..5), 1..4), 40..41)
}

/// Flags groups of at least two adjacent labels whose CHR mass sits
/// partly at zero, so mining decolors some groups and not others. The
/// confidence carries the median CHR, so a finding also pins the
/// group's CHR samples.
struct ThresholdModel;

impl Model for ThresholdModel {
    fn score(&self, x: &[f64]) -> f64 {
        if x[0] >= 2.0 && x[7] >= 0.3 {
            0.9 + 0.1 * x[6]
        } else {
            0.05
        }
    }
}

proptest! {
    /// A tree kept across cycles — grown, every owning node refreshed,
    /// mined (which decolors it) — yields in each cycle exactly the
    /// findings of a tree built fresh from that cycle's observations.
    #[test]
    fn refreshed_tree_mines_like_a_fresh_one(
        names in proptest::collection::vec(arb_clustered_name(), 1..40),
        cycles in proptest::collection::vec(arb_cycle_values(), 1..5),
    ) {
        let mut distinct: Vec<Name> = Vec::new();
        for name in names {
            if !distinct.contains(&name) {
                distinct.push(name);
            }
        }
        let miner = Miner::new(
            Box::new(ThresholdModel),
            MinerConfig { min_group_size: 2, ..MinerConfig::default() },
        );
        let psl = SuffixList::builtin();
        let mut reused = DomainTree::new();
        let k = cycles.len();
        for (cycle, values) in cycles.iter().enumerate() {
            // The name set only grows, as within a streamed day.
            let live = &distinct[..distinct.len() * (cycle + 1) / k];
            let mut fresh = DomainTree::new();
            for (name, pairs) in live.iter().zip(values) {
                let id = reused.insert(name);
                reused.refresh(id, pairs.iter().copied());
                for &(dhr, misses) in pairs {
                    fresh.observe(name, dhr, misses);
                }
            }
            prop_assert_eq!(reused.black_count(), fresh.black_count());
            let got = miner.mine(&mut reused, &psl);
            let want = miner.mine(&mut fresh, &psl);
            prop_assert_eq!(got, want, "cycle {} of {}", cycle, k);
        }
    }

    /// Every observed name becomes a black node; groups under any zone
    /// partition the black descendants; members sit at the claimed depth.
    #[test]
    fn groups_partition_black_descendants(obs in proptest::collection::vec(arb_observation(), 1..60)) {
        let mut tree = DomainTree::new();
        for (name, dhr, misses) in &obs {
            tree.observe(name, *dhr, *misses);
        }
        let names: HashSet<&Name> = obs.iter().map(|(n, _, _)| n).collect();
        for name in &names {
            prop_assert!(tree.is_black(name));
        }
        // Check the partition property under every 2LD appearing in the data.
        let zones: HashSet<Name> = names.iter().filter_map(|n| n.nld(2)).collect();
        for zone in zones {
            let Some(groups) = tree.groups_under(&zone) else { continue };
            let mut seen = HashSet::new();
            for (&depth, group) in &groups.groups {
                prop_assert!(depth > zone.depth());
                for &member in &group.members {
                    prop_assert!(seen.insert(member), "node in two groups");
                    let member_name = tree.name_of(member);
                    prop_assert_eq!(member_name.depth(), depth);
                    prop_assert!(member_name.is_subdomain_of(&zone));
                }
            }
            // Every black strict descendant of the zone is in some group.
            let descendants = names
                .iter()
                .filter(|n| n.is_subdomain_of(&zone) && ***n != zone)
                .count();
            prop_assert_eq!(seen.len(), descendants);
        }
    }

    /// Decoloring strictly shrinks group membership and never panics.
    #[test]
    fn decoloring_monotone(obs in proptest::collection::vec(arb_observation(), 2..40)) {
        let mut tree = DomainTree::new();
        for (name, dhr, misses) in &obs {
            tree.observe(name, *dhr, *misses);
        }
        let before = tree.black_count();
        let target = &obs[0].0;
        let id = tree.node_of(target).expect("observed name exists");
        tree.decolor(id);
        prop_assert_eq!(tree.black_count(), before - 1);
        prop_assert!(!tree.is_black(target));
        // Second decolor is a no-op on the count.
        tree.decolor(id);
        prop_assert_eq!(tree.black_count(), before - 1);
    }

    /// Feature vectors are finite, bounded where bounded, and consistent
    /// with their group.
    #[test]
    fn features_are_well_formed(obs in proptest::collection::vec(arb_observation(), 1..60)) {
        let mut tree = DomainTree::new();
        for (name, dhr, misses) in &obs {
            tree.observe(name, *dhr, *misses);
        }
        let zones: HashSet<Name> = obs.iter().filter_map(|(n, _, _)| n.nld(2)).collect();
        for zone in zones {
            let Some(groups) = tree.groups_under(&zone) else { continue };
            for group in groups.groups.values() {
                let f = GroupFeatures::compute(&tree, group);
                let v = f.to_vec();
                prop_assert!(v.iter().all(|x| x.is_finite()));
                prop_assert!(f.cardinality >= 1.0);
                prop_assert!(f.cardinality <= group.members.len() as f64);
                prop_assert!((0.0..=8.0).contains(&f.entropy_max));
                prop_assert!(f.entropy_min <= f.entropy_mean);
                prop_assert!(f.entropy_mean <= f.entropy_max);
                prop_assert!((0.0..=1.0).contains(&f.chr_median));
                prop_assert!((0.0..=1.0).contains(&f.chr_zero_fraction));
                prop_assert!(f.entropy_variance >= 0.0);
            }
        }
    }

    /// Registered-domain enumeration returns nodes that really are
    /// registered domains, exactly once each.
    #[test]
    fn registered_domains_are_unique_and_valid(obs in proptest::collection::vec(arb_observation(), 1..60)) {
        let mut tree = DomainTree::new();
        for (name, dhr, misses) in &obs {
            tree.observe(name, *dhr, *misses);
        }
        let psl = SuffixList::builtin();
        let found = tree.registered_domains(&psl);
        let mut seen = HashSet::new();
        for (_, name) in &found {
            prop_assert!(seen.insert(name.clone()), "duplicate registered domain {name}");
            prop_assert_eq!(psl.registered_domain(name), Some(name.clone()));
        }
        // Every observed name that *has* a registered domain is covered by
        // exactly one of them. (A name like `a.ck` under the `*.ck`
        // wildcard rule is itself a public suffix and is legitimately
        // uncovered — Algorithm 1 never starts inside the suffix area.)
        for (name, _, _) in &obs {
            let covering = found.iter().filter(|(_, z)| name.is_subdomain_of(z)).count();
            match psl.registered_domain(name) {
                Some(_) => prop_assert_eq!(covering, 1, "{} covered by {} registered domains", name, covering),
                None => prop_assert_eq!(covering, 0, "suffix {} should be uncovered", name),
            }
        }
    }
}
