//! Pillar 1: the symbolic dataflow checker.
//!
//! Everything here reasons about the *wiring description* of `B(n)`
//! ([`benes_core::topology`]) and a switch-state matrix — no record is
//! ever pushed through the circuit model. The checker walks the network
//! stage by stage propagating destination-bit constraints:
//!
//! * [`symbolic_realized`] composes the per-stage transpositions and
//!   link permutations to *prove* which permutation a settings matrix
//!   realizes — the static replacement for replaying a plan;
//! * [`analyze_self_route`] / [`analyze_omega_route`] derive the
//!   settings the Fig. 3 rule would command and report every **split
//!   conflict** (a subnetwork of the Fig. 1 recursion handed the same
//!   reduced destination tag twice — exactly the failure mode of
//!   Theorem 1), so conflict-freeness is equivalent to delivery;
//! * [`stage_bit_deviations`] verifies the stage-bit invariant: stage
//!   `b` and stage `2n−2−b` keyed on destination bit `b`;
//! * [`fault_disagreements`] / [`symbolic_realized_with_faults`] decide
//!   in `O(|faults|)` (plus one symbolic composition) whether a plan
//!   survives a degraded fabric — the static check the engine now uses
//!   in place of cache-replay validation;
//! * [`check_plan`] applies the lot to a [`benes_engine::Plan`].

use benes_core::faults::FaultSet;
use benes_core::topology;
use benes_core::{SwitchSettings, SwitchState};
use benes_engine::Plan;
use benes_perm::Permutation;

use crate::report::{Finding, Pillar};

/// The network order of a permutation, for the checker's entry points.
///
/// # Panics
///
/// Panics if `d.len()` is not `2^n` with `n ≥ 1` — callers validate
/// lengths at their API boundary (CLI parsing, engine planning).
#[must_use]
fn order_of(d: &Permutation) -> u32 {
    d.log2_len()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| panic!("length {} is not 2^n with n >= 1", d.len()))
}

/// Computes the permutation a settings matrix realizes, purely
/// symbolically: each stage is a product of disjoint transpositions
/// (one per crossed switch) and each link is a fixed permutation from
/// [`topology::build_links`]; their composition is the realized routing.
///
/// Agrees with `Benes::realized_permutation` bit for bit (the property
/// tests prove it for n ≤ 8) while never constructing a network.
#[must_use]
pub fn symbolic_realized(settings: &SwitchSettings) -> Permutation {
    let n = settings.n();
    let nn = topology::terminal_count(n);
    let stages = topology::stage_count(n);
    let links = topology::build_links(n);
    // at[p] = the input whose record would occupy port p.
    let mut at: Vec<u32> = (0..nn as u32).collect();
    for s in 0..stages {
        for i in 0..nn / 2 {
            if settings.get(s, i) == SwitchState::Cross {
                at.swap(2 * i, 2 * i + 1);
            }
        }
        if s + 1 < stages {
            let link = &links[s];
            let mut next = vec![0u32; nn];
            for (p, &v) in at.iter().enumerate() {
                next[link[p] as usize] = v;
            }
            at = next;
        }
    }
    let mut dest = vec![0u32; nn];
    for (o, &i) in at.iter().enumerate() {
        dest[i as usize] = o as u32;
    }
    Permutation::from_destinations(dest).expect("switch settings always permute")
}

/// The verdict of [`check_settings`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SettingsVerdict {
    /// The matrix provably realizes the claimed permutation.
    Realizes,
    /// The matrix realizes a *different* permutation (reported).
    Misroutes {
        /// What the settings actually realize.
        realized: Permutation,
    },
}

/// Statically decides whether `settings` realize `claimed`.
///
/// # Panics
///
/// Panics if `claimed.len()` does not match the settings' order.
#[must_use]
pub fn check_settings(settings: &SwitchSettings, claimed: &Permutation) -> SettingsVerdict {
    assert_eq!(
        claimed.len(),
        topology::terminal_count(settings.n()),
        "claimed permutation length must match the settings' order"
    );
    let realized = symbolic_realized(settings);
    if realized == *claimed {
        SettingsVerdict::Realizes
    } else {
        SettingsVerdict::Misroutes { realized }
    }
}

/// A split conflict: at depth `stage + 1` of the Fig. 1 recursion, one
/// subnetwork was handed the same reduced destination tag twice — the
/// exact violation Theorem 1 forbids, detected without simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The stage whose output split produced the duplicate.
    pub stage: usize,
    /// Which subnetwork (block index at depth `stage + 1`).
    pub block: usize,
    /// The duplicated reduced tag (destination `>> (stage + 1)`).
    pub reduced_tag: u32,
    /// The two ports (in the depth-`stage + 1` layout) carrying it.
    pub ports: (usize, usize),
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "after stage {} subnetwork {} receives reduced tag {} on ports {} and {}",
            self.stage, self.block, self.reduced_tag, self.ports.0, self.ports.1
        )
    }
}

/// The result of symbolically running the destination-tag rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfRouteAnalysis {
    n: u32,
    /// The switch states the Fig. 3 rule commands.
    pub settings: SwitchSettings,
    /// The destination tag arriving at each output terminal.
    pub outputs: Vec<u32>,
    /// Every split conflict encountered (empty ⇔ `D ∈ F(n)` for the
    /// plain walk, `D ∈ Ω(n)` for the omega walk).
    pub conflicts: Vec<Conflict>,
}

impl SelfRouteAnalysis {
    /// The network order.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Whether every tag reaches the output it names.
    #[must_use]
    pub fn delivers(&self) -> bool {
        self.outputs.iter().enumerate().all(|(o, &t)| o as u32 == t)
    }

    /// Whether no subnetwork ever saw a duplicated reduced tag. By
    /// Theorem 1 this is equivalent to [`SelfRouteAnalysis::delivers`];
    /// the property tests assert the equivalence bit for bit.
    #[must_use]
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// The shared walk: propagate tags, command switches by the control bit
/// (stages below `forced_straight` are pinned straight), and record
/// duplicate reduced tags at every split of the recursion.
fn analyze_tag_route(d: &Permutation, forced_straight: usize) -> SelfRouteAnalysis {
    let n = order_of(d);
    let nn = topology::terminal_count(n);
    let stages = topology::stage_count(n);
    let links = topology::build_links(n);
    let mut tags: Vec<u32> = d.destinations().to_vec();
    let mut settings = SwitchSettings::all_straight(n);
    let mut conflicts = Vec::new();
    for s in 0..stages {
        let bit = topology::control_bit(n, s);
        for i in 0..nn / 2 {
            let state = if s < forced_straight {
                SwitchState::Straight
            } else {
                SwitchState::from_bit(u64::from((tags[2 * i] >> bit) & 1))
            };
            settings.set(s, i, state);
            if state == SwitchState::Cross {
                tags.swap(2 * i, 2 * i + 1);
            }
        }
        if s + 1 < stages {
            let link = &links[s];
            let mut next = vec![0u32; nn];
            for (p, &t) in tags.iter().enumerate() {
                next[link[p] as usize] = t;
            }
            tags = next;
        }
        // The first n−1 links split the traffic into the recursion's
        // subnetworks; at depth s+1 each block of ports must hold a full
        // set of reduced tags. A duplicate here is the Theorem 1
        // violation that dooms the route — no simulation required.
        if s < n as usize - 1 {
            let depth = s + 1;
            let bsize = nn >> depth;
            for b in 0..(1usize << depth) {
                let mut seen = vec![usize::MAX; bsize];
                for off in 0..bsize {
                    let port = b * bsize + off;
                    let reduced = (tags[port] >> depth) as usize;
                    if seen[reduced] == usize::MAX {
                        seen[reduced] = port;
                    } else {
                        conflicts.push(Conflict {
                            stage: s,
                            block: b,
                            reduced_tag: reduced as u32,
                            ports: (seen[reduced], port),
                        });
                    }
                }
            }
        }
    }
    SelfRouteAnalysis { n, settings, outputs: tags, conflicts }
}

/// Symbolically runs the Fig. 3 self-routing rule for `D` and reports
/// the commanded settings, the arrival tags, and every split conflict.
/// `D ∈ F(n)` iff the analysis is conflict-free.
///
/// # Panics
///
/// Panics if `d.len()` is not `2^n` with `n ≥ 1`.
#[must_use]
pub fn analyze_self_route(d: &Permutation) -> SelfRouteAnalysis {
    analyze_tag_route(d, 0)
}

/// Symbolically runs the omega-bit variant (stages `0..n−1` forced
/// straight). `D ∈ Ω(n)` iff the analysis is conflict-free.
///
/// # Panics
///
/// Panics if `d.len()` is not `2^n` with `n ≥ 1`.
#[must_use]
pub fn analyze_omega_route(d: &Permutation) -> SelfRouteAnalysis {
    let n = order_of(d);
    analyze_tag_route(d, n as usize - 1)
}

/// One switch whose commanded state is not what the stage's control bit
/// dictates for the tag crossing its upper input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBitDeviation {
    /// Stage of the deviating switch.
    pub stage: usize,
    /// Switch index within the stage.
    pub switch: usize,
    /// What the settings matrix commands.
    pub commanded: SwitchState,
    /// What the stage-bit rule would command (bit `min(s, 2n−2−s)` of
    /// the upper input's destination tag).
    pub keyed: SwitchState,
}

/// Verifies the stage-bit invariant of a settings matrix against `d`:
/// propagating `d`'s destination tags *under the given settings*, every
/// switch of stage `s` should hold bit `min(s, 2n−2−s)` of its upper
/// input's tag. Self-routed settings have zero deviations; externally
/// planned (Waksman) settings may deviate — each deviation is reported
/// with its coordinates.
///
/// # Panics
///
/// Panics if `d.len()` does not match the settings' order.
#[must_use]
pub fn stage_bit_deviations(
    settings: &SwitchSettings,
    d: &Permutation,
) -> Vec<StageBitDeviation> {
    let n = settings.n();
    assert_eq!(
        d.len(),
        topology::terminal_count(n),
        "permutation length must match the settings' order"
    );
    let nn = topology::terminal_count(n);
    let stages = topology::stage_count(n);
    let links = topology::build_links(n);
    let mut tags: Vec<u32> = d.destinations().to_vec();
    let mut deviations = Vec::new();
    for s in 0..stages {
        let bit = topology::control_bit(n, s);
        for i in 0..nn / 2 {
            let commanded = settings.get(s, i);
            let keyed = SwitchState::from_bit(u64::from((tags[2 * i] >> bit) & 1));
            if commanded != keyed {
                deviations.push(StageBitDeviation {
                    stage: s,
                    switch: i,
                    commanded,
                    keyed,
                });
            }
            if commanded == SwitchState::Cross {
                tags.swap(2 * i, 2 * i + 1);
            }
        }
        if s + 1 < stages {
            let link = &links[s];
            let mut next = vec![0u32; nn];
            for (p, &t) in tags.iter().enumerate() {
                next[link[p] as usize] = t;
            }
            tags = next;
        }
    }
    deviations
}

/// One registered fault whose forced state contradicts the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDisagreement {
    /// Stage of the faulty switch.
    pub stage: usize,
    /// Switch index within the stage.
    pub switch: usize,
    /// What the plan commands.
    pub commanded: SwitchState,
    /// The stuck state, or `None` for a dead switch (which never
    /// agrees with any plan).
    pub forced: Option<SwitchState>,
}

/// Lists every registered fault that disagrees with `settings` — the
/// itemized form of [`FaultSet::agrees_with`]. Empty means the fault
/// overlay is a no-op on this plan: whatever the plan realizes on a
/// healthy fabric, it realizes identically on this degraded one.
#[must_use]
pub fn fault_disagreements(
    settings: &SwitchSettings,
    faults: &FaultSet,
) -> Vec<FaultDisagreement> {
    faults
        .disagreements(settings)
        .into_iter()
        .map(|(stage, switch, commanded, forced)| FaultDisagreement {
            stage,
            switch,
            commanded,
            forced,
        })
        .collect()
}

/// The permutation `settings` realize on the fabric degraded by
/// `faults`, computed symbolically: overlay the stuck states, then
/// compose stages and links. Returns `None` when the set contains a
/// dead switch (no permutation is realized — the pair of records is
/// lost, which no overlay models).
///
/// # Panics
///
/// Panics if `faults.n() != settings.n()`.
#[must_use]
pub fn symbolic_realized_with_faults(
    settings: &SwitchSettings,
    faults: &FaultSet,
) -> Option<Permutation> {
    assert_eq!(faults.n(), settings.n(), "fault set and settings must share an order");
    if faults.has_dead() {
        return None;
    }
    Some(symbolic_realized(&faults.apply_to(settings)))
}

/// Statically audits one engine [`Plan`] for permutation `d` under an
/// optional fault set, returning findings (empty = the plan provably
/// serves `d` on that fabric). This is the checker behind the engine's
/// replay-free validation of cached plans on degraded fabrics.
///
/// # Panics
///
/// Panics if `d.len()` is not `2^n` with `n ≥ 1` or mismatches the
/// plan's order.
#[must_use]
pub fn check_plan(plan: &Plan, d: &Permutation, faults: Option<&FaultSet>) -> Vec<Finding> {
    let n = order_of(d);
    let loc = format!("B({n})");
    let mut findings = Vec::new();
    let derived = match plan {
        Plan::SelfRoute => {
            let a = analyze_self_route(d);
            for c in &a.conflicts {
                findings.push(Finding::error(
                    Pillar::Domain,
                    "self-route-conflict",
                    &loc,
                    0,
                    format!("plan claims D ∈ F({n}) but {c}"),
                ));
            }
            Some(a.settings)
        }
        Plan::OmegaBit => {
            let a = analyze_omega_route(d);
            for c in &a.conflicts {
                findings.push(Finding::error(
                    Pillar::Domain,
                    "omega-route-conflict",
                    &loc,
                    0,
                    format!("plan claims D ∈ Ω({n}) but {c}"),
                ));
            }
            Some(a.settings)
        }
        Plan::Settings(program) => {
            let settings = program.to_settings();
            if let SettingsVerdict::Misroutes { realized } = check_settings(&settings, d) {
                findings.push(Finding::error(
                    Pillar::Domain,
                    "settings-misroute",
                    &loc,
                    0,
                    format!("cached settings realize {realized}, not {d}"),
                ));
            }
            Some(settings)
        }
        Plan::TwoPass { first, second } => {
            if first.then(second) != *d {
                findings.push(Finding::error(
                    Pillar::Domain,
                    "factorization-mismatch",
                    &loc,
                    0,
                    format!("two-pass factors compose to {}, not {d}", first.then(second)),
                ));
            }
            for c in &analyze_self_route(first).conflicts {
                findings.push(Finding::error(
                    Pillar::Domain,
                    "self-route-conflict",
                    &loc,
                    0,
                    format!("two-pass first factor outside F({n}): {c}"),
                ));
            }
            for c in &analyze_omega_route(second).conflicts {
                findings.push(Finding::error(
                    Pillar::Domain,
                    "omega-route-conflict",
                    &loc,
                    0,
                    format!("two-pass second factor outside Ω({n}): {c}"),
                ));
            }
            // Two passes command different settings; fault agreement is
            // per pass and already covered by the conflict checks above.
            None
        }
    };
    if let (Some(settings), Some(faults)) = (derived, faults) {
        for dis in fault_disagreements(&settings, faults) {
            let forced =
                dis.forced.map_or_else(|| "dead".to_string(), |s| format!("stuck {s:?}"));
            findings.push(Finding::error(
                Pillar::Domain,
                "fault-disagreement",
                format!("B({n}) stage {} switch {}", dis.stage, dis.switch),
                0,
                format!(
                    "plan commands {:?} but the switch is {forced}; the plan cannot \
                     serve {d} on this fabric",
                    dis.commanded
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_core::faults::FaultKind;
    use benes_core::waksman;
    use benes_core::word::MaskProgram;
    use benes_core::Benes;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
    }

    #[test]
    fn symbolic_realized_matches_replay_on_waksman_settings() {
        let d = p(&[2, 5, 3, 7, 1, 6, 4, 0]);
        let settings = waksman::setup(&d).unwrap();
        assert_eq!(symbolic_realized(&settings), d);
        assert_eq!(check_settings(&settings, &d), SettingsVerdict::Realizes);
        let wrong = Permutation::identity(8);
        match check_settings(&settings, &wrong) {
            SettingsVerdict::Misroutes { realized } => assert_eq!(realized, d),
            SettingsVerdict::Realizes => panic!("must misroute the identity claim"),
        }
    }

    #[test]
    fn fig4_bit_reversal_is_conflict_free() {
        // Fig. 4 of the paper: the bit-reversal self-routes on B(3).
        let a = analyze_self_route(&p(&[0, 4, 2, 6, 1, 5, 3, 7]));
        assert!(a.is_conflict_free());
        assert!(a.delivers());
        assert!(stage_bit_deviations(&a.settings, &p(&[0, 4, 2, 6, 1, 5, 3, 7])).is_empty());
    }

    #[test]
    fn fig5_failure_is_detected_statically() {
        // Fig. 5: D = (1, 3, 2, 0) is outside F(2); the simulation
        // delivers (2, 1, 0, 3). The static walk must agree exactly.
        let d = p(&[1, 3, 2, 0]);
        let a = analyze_self_route(&d);
        assert!(!a.delivers());
        assert!(!a.is_conflict_free());
        assert_eq!(a.outputs, vec![2, 1, 0, 3]);
        // …and the omega walk proves the same D is in Ω(2).
        let o = analyze_omega_route(&d);
        assert!(o.delivers());
        assert!(o.is_conflict_free());
    }

    #[test]
    fn waksman_settings_for_non_f_perms_deviate_from_the_stage_bit_rule() {
        let d = p(&[1, 3, 2, 0]);
        let settings = waksman::setup(&d).unwrap();
        assert_eq!(check_settings(&settings, &d), SettingsVerdict::Realizes);
        assert!(
            !stage_bit_deviations(&settings, &d).is_empty(),
            "a permutation outside F(n) cannot satisfy the stage-bit invariant"
        );
    }

    #[test]
    fn fault_agreement_is_itemized() {
        let d = p(&[2, 5, 3, 7, 1, 6, 4, 0]);
        let settings = waksman::setup(&d).unwrap();
        let mut faults = FaultSet::new(3);
        // Agreeing fault: stuck at exactly the commanded state.
        let agree = match settings.get(0, 0) {
            SwitchState::Straight => FaultKind::StuckStraight,
            SwitchState::Cross => FaultKind::StuckCross,
        };
        faults.insert(0, 0, agree).unwrap();
        assert!(fault_disagreements(&settings, &faults).is_empty());
        assert_eq!(symbolic_realized_with_faults(&settings, &faults), Some(d.clone()));

        // Disagreeing fault: the opposite state.
        let disagree = match settings.get(1, 1) {
            SwitchState::Straight => FaultKind::StuckCross,
            SwitchState::Cross => FaultKind::StuckStraight,
        };
        faults.insert(1, 1, disagree).unwrap();
        let dis = fault_disagreements(&settings, &faults);
        assert_eq!(dis.len(), 1);
        assert_eq!((dis[0].stage, dis[0].switch), (1, 1));
        let realized = symbolic_realized_with_faults(&settings, &faults).unwrap();
        assert_ne!(realized, d, "a disagreeing overlay changes the routing");
        // A dead switch has no realized permutation at all.
        faults.insert(2, 0, FaultKind::Dead).unwrap();
        assert_eq!(symbolic_realized_with_faults(&settings, &faults), None);
        assert_eq!(fault_disagreements(&settings, &faults).len(), 2);
    }

    #[test]
    fn check_plan_flags_each_plan_shape() {
        let net = Benes::new(2);
        let d = p(&[1, 3, 2, 0]); // outside F(2), inside Ω(2)
        assert!(!check_plan(&Plan::SelfRoute, &d, None).is_empty());
        assert!(check_plan(&Plan::OmegaBit, &d, None).is_empty());
        let good = waksman::setup(&d).unwrap();
        let settings_plan =
            |s: &SwitchSettings| Plan::Settings(MaskProgram::from_settings(s));
        assert!(check_plan(&settings_plan(&good), &d, None).is_empty());
        let bad = SwitchSettings::all_straight(2);
        assert!(!check_plan(&settings_plan(&bad), &d, None).is_empty());
        // Fault disagreement on an otherwise good plan is reported.
        let mut faults = FaultSet::new(2);
        let opposite = match good.get(0, 0) {
            SwitchState::Straight => FaultKind::StuckCross,
            SwitchState::Cross => FaultKind::StuckStraight,
        };
        faults.insert(0, 0, opposite).unwrap();
        let findings = check_plan(&settings_plan(&good), &d, Some(&faults));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "fault-disagreement");
        // Sanity: the checker's notion of realization matches the net.
        assert_eq!(net.realized_permutation(&waksman::setup(&d).unwrap()).unwrap(), d);
    }
}
