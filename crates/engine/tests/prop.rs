//! Property tests for the tiered planner and the plan cache.
//!
//! The two satellite properties:
//! 1. the planner's chosen tier always agrees with the class
//!    predicates (`is_in_f` / `is_omega`);
//! 2. a cached plan replays to the identical input→output mapping as a
//!    fresh set-up.

use benes_core::{class_f, waksman, Benes};
use benes_engine::cache::PlanCache;
use benes_engine::plan::{execute, plan, Fallback, Plan, Tier};
use benes_perm::omega::is_omega;
use benes_perm::Permutation;
use proptest::prelude::*;
use std::sync::Arc;

/// A random permutation of `0..len` via index shuffling.
fn arb_permutation(len: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |(), mut rng| {
        let mut dest: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            dest.swap(i, j);
        }
        Permutation::from_destinations(dest).expect("shuffle of identity is a bijection")
    })
}

proptest! {
    /// Satellite property 1: the tier fired by the planner matches the
    /// class predicates exactly.
    #[test]
    fn planner_tier_agrees_with_class_predicates(d in arb_permutation(16)) {
        let tier = plan(&d, Fallback::Waksman).unwrap().tier();
        match tier {
            Tier::SelfRoute => prop_assert!(class_f::is_in_f(&d)),
            Tier::OmegaBit => {
                prop_assert!(is_omega(&d));
                prop_assert!(!class_f::is_in_f(&d));
            }
            Tier::Waksman => {
                prop_assert!(!class_f::is_in_f(&d));
                prop_assert!(!is_omega(&d));
            }
            Tier::Factored | Tier::Cached => {
                prop_assert!(false, "fresh Waksman-fallback planning fired {tier}")
            }
        }
    }

    /// Every permutation routed via the self-route tier satisfies
    /// `is_in_f` — and actually self-routes on the network.
    #[test]
    fn self_route_tier_members_self_route(d in arb_permutation(8)) {
        let p = plan(&d, Fallback::Waksman).unwrap();
        if p.tier() == Tier::SelfRoute {
            prop_assert!(class_f::is_in_f(&d));
            prop_assert!(Benes::new(3).self_route(&d).is_success());
        }
    }

    /// Satellite property 2: replaying a plan through the cache yields
    /// the identical input→output mapping as a fresh Waksman set-up.
    #[test]
    fn cached_plan_replays_identically(d in arb_permutation(16)) {
        let net = Benes::new(4);
        let cache = PlanCache::new(16, 2);
        let fresh = plan(&d, Fallback::Waksman).unwrap();
        cache.insert(&d, Arc::new(fresh));
        let replayed = cache.get(&d).expect("plan was just inserted");

        // The cached plan must realize d...
        prop_assert!(execute(&net, &d, &replayed));
        // ...and when it carries settings, those settings must realize
        // the very same mapping as a from-scratch set-up.
        if let Plan::Settings(program) = replayed.as_ref() {
            let fresh_settings = waksman::setup(&d).unwrap();
            let a = net.realized_permutation(&program.to_settings()).unwrap();
            let b = net.realized_permutation(&fresh_settings).unwrap();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &d);
        }
    }

    /// Both fallbacks realize arbitrary permutations correctly.
    #[test]
    fn both_fallbacks_execute_correctly(d in arb_permutation(16)) {
        let net = Benes::new(4);
        for fb in [Fallback::Waksman, Fallback::Factored] {
            let p = plan(&d, fb).unwrap();
            prop_assert!(execute(&net, &d, &p), "{fb:?} plan failed for {d}");
        }
    }

    /// The factored plan's halves land in the classes the §II
    /// factorization theorem promises, so both passes are zero-set-up.
    #[test]
    fn factored_halves_are_in_the_cheap_classes(d in arb_permutation(16)) {
        if let Plan::TwoPass { first, second } = plan(&d, Fallback::Factored).unwrap() {
            prop_assert!(benes_perm::omega::is_inverse_omega(&first));
            prop_assert!(class_f::is_in_f(&first), "Theorem 3: Ω⁻¹ ⊆ F");
            prop_assert!(is_omega(&second));
            prop_assert_eq!(first.then(&second), d);
        }
    }

    /// Fingerprint-keyed caching never returns a plan for a different
    /// permutation, even under heavy key churn.
    #[test]
    fn cache_never_confuses_permutations(perms in proptest::collection::vec(arb_permutation(16), 8)) {
        let cache = PlanCache::new(4, 1); // tiny: force evictions
        for d in &perms {
            cache.insert(d, Arc::new(plan(d, Fallback::Waksman).unwrap()));
        }
        let net = Benes::new(4);
        for d in &perms {
            if let Some(p) = cache.get(d) {
                prop_assert!(execute(&net, d, &p), "cache returned a wrong plan for {d}");
            }
        }
    }
}
