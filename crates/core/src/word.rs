//! Word-parallel (bit-sliced) self-routing kernels.
//!
//! The scalar kernels in [`crate::selfroute`] walk the network one switch at
//! a time: per stage, per switch, extract the upper tag's control bit,
//! branch, and move two tags. This module computes **whole switch columns at
//! once** as `u64` masks, in the style of SNIPPETS.md snippet 1's
//! `benes_step`: settings become mask words, and applying a column is a
//! handful of shifts/XORs per destination-bit plane instead of `N/2`
//! branches.
//!
//! # Flattened coordinates
//!
//! The trick that makes this cheap is a change of coordinates. Conjugating
//! the network by the composed inter-stage links "flattens" it into a
//! butterfly: tracking each stage-0 input position forward through the links
//! alone (ignoring switches), stage `s` always pairs flattened positions
//! that differ in exactly bit `δ(s) = control_bit(s) = min(s, 2n−2−s)`, with
//! the physical **upper** input of each switch sitting at the flattened
//! position whose bit `δ(s)` is *clear*. Moreover the composition of **all**
//! links is the identity (the closing links mirror-invert the opening ones),
//! so after the last column the flattened positions *are* the physical
//! output terminals. Consequently the kernel needs **no link permutations at
//! all** — just one masked delta-swap per stage per bit plane. The
//! `flattened_pairing_is_control_bit` test verifies this structural claim
//! against [`Benes::link`](crate::network::Benes::link) for every order up
//! to `B(8)`.
//!
//! # Representation
//!
//! A routing state is `n` **bit planes** of `N = 2^n` bits each, packed into
//! `W = max(1, N/64)` words per plane: bit `p` of plane `b` holds bit `b` of
//! the destination tag currently at flattened position `p`. Stage `s` with
//! pairing distance `d = 2^{δ(s)}` then takes its whole commanded cross-mask
//! from one of three [`Columns`] sources — plane `δ(s)` (the upper input's
//! control bit, for every switch at once), all-straight (the omega bit's
//! forced prefix), or a given [`MaskProgram`] (an external set-up) —
//! overlays any stuck/dead [`FaultMasks`], and applies the column with
//! [`benes_bits::delta_swap`] (intra-word for `d < 64`, word-pair XOR
//! otherwise).
//!
//! The scalar kernels remain the **oracle**: exhaustive `B(2)`/`B(3)` and
//! property-based `B(1..10)` tests assert output- and settings-level
//! agreement on healthy and faulty fabrics, for tag-derived and given
//! columns alike.
//!
//! # Examples
//!
//! ```
//! use benes_core::word;
//! use benes_perm::bpc::Bpc;
//!
//! // Fig. 4 of the paper: bit reversal self-routes on B(3).
//! let d = Bpc::bit_reversal(3).to_permutation();
//! let outcome = word::self_route(3, &d).unwrap();
//! assert!(outcome.is_success());
//! assert_eq!(outcome.outputs(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! ```

use benes_perm::Permutation;

use crate::faults::{FaultKind, FaultSet};
use crate::network::{NetworkError, SwitchSettings, SwitchState};
use crate::topology;

/// Words per bit plane for an order-`n` network.
#[inline]
fn word_count(n: u32) -> usize {
    let size = 1usize << n;
    size.div_ceil(64)
}

/// The identity pattern for plane `b`, word `w`: bit `p` set iff bit `b` of
/// the global position `64·w + p` is set. Tags sitting at their own index
/// produce exactly these planes.
#[inline]
fn identity_plane_word(n: u32, b: u32, w: usize) -> u64 {
    let pattern = if b < 6 {
        !benes_bits::delta_mask(b)
    } else if (w >> (b - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    };
    if n < 6 {
        pattern & benes_bits::mask(1 << n)
    } else {
        pattern
    }
}

/// One stage of a [`FaultMasks`] overlay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct StageFaults {
    /// Upper positions whose switch is stuck (either way): commanded bit is
    /// ignored there.
    stuck: Vec<u64>,
    /// Upper positions stuck at Cross.
    stuck_cross: Vec<u64>,
    /// Upper positions whose switch is dead: commanded bit is complemented.
    dead: Vec<u64>,
    /// Whether this stage has any fault at all (fast skip).
    any: bool,
}

/// A [`FaultSet`] in word form: per-stage stuck / stuck-cross / dead masks
/// in flattened upper-position coordinates, overlaid on every column as
/// `((commanded & !stuck) | stuck_cross) ^ dead`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMasks {
    n: u32,
    stages: Vec<StageFaults>,
}

impl FaultMasks {
    /// Builds the overlay for `faults` through the per-order position
    /// table ([`topology::flat_upper`]).
    #[must_use]
    pub fn new(faults: &FaultSet) -> Self {
        let n = faults.n();
        let words = word_count(n);
        let half = topology::switches_per_stage(n);
        let table = topology::flat_upper(n);
        let blank = StageFaults {
            stuck: vec![0; words],
            stuck_cross: vec![0; words],
            dead: vec![0; words],
            any: false,
        };
        let mut stages = vec![blank; topology::stage_count(n)];
        for (s, switch, kind) in faults.iter() {
            let u = table[s * half + switch] as usize;
            let (w, bit) = (u >> 6, 1u64 << (u & 63));
            let masks = &mut stages[s];
            masks.any = true;
            match kind {
                FaultKind::StuckStraight => masks.stuck[w] |= bit,
                FaultKind::StuckCross => {
                    masks.stuck[w] |= bit;
                    masks.stuck_cross[w] |= bit;
                }
                FaultKind::Dead => masks.dead[w] |= bit,
            }
        }
        Self { n, stages }
    }
}

/// An explicit switch assignment in the word kernel's own form: one
/// cross-mask per stage, with bit `flat_upper(s)[i]` set iff switch `i` of
/// stage `s` is crossed (see [`topology::flat_upper`]).
///
/// This is how a plan computed by external set-up (Waksman, fault-avoiding
/// set-up) is stored and replayed: `2n − 1` columns of `max(1, N/64)`
/// words — 480 bytes at `n = 8` — replayed by [`route`] with
/// [`Columns::Given`] at the cost of one word-kernel pass.
///
/// # Examples
///
/// ```
/// use benes_core::word::{self, Columns, MaskProgram};
/// use benes_core::{waksman, Benes};
/// use benes_perm::Permutation;
///
/// let d = Permutation::from_destinations(vec![2, 5, 3, 7, 1, 6, 4, 0]).unwrap();
/// let settings = waksman::setup(&d).unwrap();
/// let program = MaskProgram::from_settings(&settings);
/// assert_eq!(program.to_settings(), settings);
/// // Routing the destination tags through the program lands each one on
/// // its own output: the program realizes `d`.
/// assert!(word::route(3, &d, Columns::Given(&program), None).unwrap().is_success());
/// assert_eq!(Benes::new(3).realized_permutation(&settings).unwrap(), d);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MaskProgram {
    n: u32,
    masks: Vec<u64>,
}

impl MaskProgram {
    /// Every switch straight (the program realizes the identity).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range (see [`topology::MAX_N`]).
    #[must_use]
    pub fn all_straight(n: u32) -> Self {
        Self { n, masks: vec![0; topology::stage_count(n) * word_count(n)] }
    }

    /// Crosses the switch of `stage` whose upper input sits at flattened
    /// position `upper` if `cross` holds (branch-free).
    pub(crate) fn cross_if(&mut self, stage: usize, upper: usize, cross: bool) {
        let words = word_count(self.n);
        self.masks[stage * words + (upper >> 6)] |= u64::from(cross) << (upper & 63);
    }

    /// Converts a per-switch assignment into column masks.
    #[must_use]
    pub fn from_settings(settings: &SwitchSettings) -> Self {
        let n = settings.n();
        let words = word_count(n);
        let half = topology::switches_per_stage(n);
        let table = topology::flat_upper(n);
        let mut program = Self::all_straight(n);
        for s in 0..settings.stage_count() {
            let column = &mut program.masks[s * words..(s + 1) * words];
            let rows = &table[s * half..(s + 1) * half];
            for (&state, &u) in settings.stage(s).iter().zip(rows) {
                column[u as usize >> 6] |= state.as_bit() << (u & 63);
            }
        }
        program
    }

    /// Converts the column masks back into a per-switch assignment (the
    /// form the scalar oracles and route traces take).
    #[must_use]
    pub fn to_settings(&self) -> SwitchSettings {
        let half = topology::switches_per_stage(self.n);
        let table = topology::flat_upper(self.n);
        let mut settings = SwitchSettings::all_straight(self.n);
        for (s, rows) in table.chunks(half).enumerate() {
            let column = self.stage(s);
            for (i, &u) in rows.iter().enumerate() {
                if (column[u as usize >> 6] >> (u & 63)) & 1 == 1 {
                    settings.set(s, i, SwitchState::Cross);
                }
            }
        }
        settings
    }

    /// The cross-mask of one stage.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    #[must_use]
    pub fn stage(&self, stage: usize) -> &[u64] {
        let words = word_count(self.n);
        &self.masks[stage * words..(stage + 1) * words]
    }

    /// Whether the program **agrees** with every fault in `faults` (the
    /// mask form of [`FaultSet::agrees_with`]): in every stage each stuck
    /// switch is commanded its stuck state, `(program & stuck) ==
    /// stuck_cross`, and no switch is dead. The overlay is then a no-op, so
    /// a program that realizes `D` on the healthy fabric realizes it on the
    /// faulty one too.
    ///
    /// # Panics
    ///
    /// Panics if `faults` was built for a different order.
    #[must_use]
    pub fn agrees_with(&self, faults: &FaultMasks) -> bool {
        assert_eq!(self.n, faults.n, "fault masks order must match the program");
        faults.stages.iter().enumerate().filter(|(_, f)| f.any).all(|(s, f)| {
            self.stage(s).iter().zip(&f.stuck).zip(&f.stuck_cross).zip(&f.dead).all(
                |(((&m, &stuck), &stuck_cross), &dead)| {
                    m & stuck == stuck_cross && dead == 0
                },
            )
        })
    }
}

/// Where each column's commanded cross-mask comes from in [`route`].
#[derive(Debug, Clone, Copy)]
pub enum Columns<'a> {
    /// The Fig. 3 tag rule: each switch crosses iff its upper input's
    /// control bit is set.
    Tags,
    /// The omega bit asserted (§II after Theorem 3): stages `0..n−1`
    /// straight, the trailing omega half by the tag rule.
    Omega,
    /// An externally computed assignment, replayed as given.
    Given(&'a MaskProgram),
}

/// The result of a word-parallel self-routing pass.
///
/// Holds the final bit planes (in flattened coordinates, which after the
/// last stage coincide with physical output terminals) plus the per-stage
/// cross-masks actually applied, so the realized [`SwitchSettings`] can be
/// recovered for oracle comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordOutcome {
    n: u32,
    words: usize,
    planes: Vec<u64>,
    stage_cross: Vec<u64>,
}

impl WordOutcome {
    /// The network order `n` this outcome was computed for.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `true` iff every destination tag arrived at its own output terminal.
    ///
    /// Checked directly against the constant identity bit patterns — no
    /// unpacking, `n · W` word compares.
    #[must_use]
    pub fn is_success(&self) -> bool {
        for b in 0..self.n {
            let base = b as usize * self.words;
            for w in 0..self.words {
                if self.planes[base + w] != identity_plane_word(self.n, b, w) {
                    return false;
                }
            }
        }
        true
    }

    /// Unpacks the planes: `outputs()[terminal]` is the destination tag that
    /// arrived at that output terminal.
    #[must_use]
    pub fn outputs(&self) -> Vec<u32> {
        let size = 1usize << self.n;
        let mut out = vec![0u32; size];
        for b in 0..self.n {
            let base = b as usize * self.words;
            for w in 0..self.words {
                let mut word = self.planes[base + w];
                while word != 0 {
                    let p = word.trailing_zeros() as usize;
                    out[(w << 6) | p] |= 1 << b;
                    word &= word - 1;
                }
            }
        }
        out
    }

    /// Recovers the realized [`SwitchSettings`] from the applied
    /// cross-masks. Intended for oracle comparison against the scalar
    /// kernels.
    #[must_use]
    pub fn settings(&self) -> SwitchSettings {
        MaskProgram { n: self.n, masks: self.stage_cross.clone() }.to_settings()
    }
}

/// Packs one `≤ 64`-position chunk of destination tags into per-plane
/// accumulators. Branch-free — a data-dependent branch per position-bit
/// mispredicts ~half the time on permutation data and dominates the
/// whole kernel — and monomorphized per order so the plane loop unrolls.
#[inline]
fn pack_chunk<const NB: usize>(chunk: &[u32], acc: &mut [u64; MAX_PLANES]) {
    for (p, &v) in chunk.iter().enumerate() {
        let v = u64::from(v);
        for b in 0..NB {
            acc[b] |= ((v >> b) & 1) << p;
        }
    }
}

/// Upper bound on `n` for the unrolled packer (planes per accumulator
/// block); orders beyond it take the generic loop.
const MAX_PLANES: usize = 16;

/// Packs a destination permutation into `n` bit planes.
fn pack(n: u32, d: &Permutation) -> Vec<u64> {
    let words = word_count(n);
    let mut planes = vec![0u64; n as usize * words];
    let dests = d.destinations();
    for w in 0..words {
        let start = w << 6;
        let chunk = &dests[start..dests.len().min(start + 64)];
        let mut acc = [0u64; MAX_PLANES];
        if n <= 8 && chunk.len() == 64 {
            // Byte-gather fast path: tags fit in a byte, so eight of
            // them pack into one word and a mask-multiply-shift gathers
            // bit `b` of all eight at once (⌈5⌉ ops per position instead
            // of `n`).
            for g in 0..8usize {
                let mut eight = 0u64;
                for (k, &v) in chunk[g * 8..(g + 1) * 8].iter().enumerate() {
                    eight |= u64::from(v & 0xff) << (8 * k);
                }
                for (b, slot) in acc.iter_mut().enumerate().take(n as usize) {
                    let t = (eight >> b) & 0x0101_0101_0101_0101;
                    *slot |= (t.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
                }
            }
            for (b, &a) in acc.iter().enumerate().take(n as usize) {
                planes[b * words + w] = a;
            }
            continue;
        }
        match n {
            1 => pack_chunk::<1>(chunk, &mut acc),
            2 => pack_chunk::<2>(chunk, &mut acc),
            3 => pack_chunk::<3>(chunk, &mut acc),
            4 => pack_chunk::<4>(chunk, &mut acc),
            5 => pack_chunk::<5>(chunk, &mut acc),
            6 => pack_chunk::<6>(chunk, &mut acc),
            7 => pack_chunk::<7>(chunk, &mut acc),
            8 => pack_chunk::<8>(chunk, &mut acc),
            9 => pack_chunk::<9>(chunk, &mut acc),
            10 => pack_chunk::<10>(chunk, &mut acc),
            11 => pack_chunk::<11>(chunk, &mut acc),
            12 => pack_chunk::<12>(chunk, &mut acc),
            13 => pack_chunk::<13>(chunk, &mut acc),
            14 => pack_chunk::<14>(chunk, &mut acc),
            15 => pack_chunk::<15>(chunk, &mut acc),
            16 => pack_chunk::<16>(chunk, &mut acc),
            _ => {
                for (p, &v) in chunk.iter().enumerate() {
                    let v = u64::from(v);
                    for (b, slot) in acc.iter_mut().enumerate().take(n as usize) {
                        *slot |= ((v >> b) & 1) << p;
                    }
                }
            }
        }
        for b in 0..(n as usize).min(MAX_PLANES) {
            planes[b * words + w] = acc[b];
        }
        // Orders past the accumulator width spill plane-by-plane.
        for b in MAX_PLANES..n as usize {
            let mut word = 0u64;
            for (p, &v) in chunk.iter().enumerate() {
                word |= ((u64::from(v) >> b) & 1) << p;
            }
            planes[b * words + w] = word;
        }
    }
    planes
}

/// The column-at-a-time routing pass: routes the destination tags of `d`
/// through `B(n)`, taking each column's commanded cross-mask from
/// `columns` and overlaying `faults` (when given) on every column.
///
/// This one loop serves every plan the engine executes: tag-derived
/// columns ([`Columns::Tags`]) are Theorem-1 self-routing, omega-forced
/// columns ([`Columns::Omega`]) the §II omega bit, and given columns
/// ([`Columns::Given`]) the replay of an external set-up. With given
/// columns the outcome succeeds iff the program realizes `d`, exactly as
/// `Benes::realized_permutation(&program.to_settings()) == d`.
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`;
/// [`NetworkError::SettingsOrder`] if a given program is for another order.
///
/// # Panics
///
/// Panics if `n == 0` or `faults` was built for a different order.
///
/// # Examples
///
/// ```
/// use benes_core::word::{self, Columns, FaultMasks, MaskProgram};
/// use benes_core::{FaultKind, FaultSet};
/// use benes_perm::Permutation;
///
/// // The all-straight program realizes the identity…
/// let id = Permutation::identity(8);
/// let straight = MaskProgram::all_straight(3);
/// assert!(word::route(3, &id, Columns::Given(&straight), None).unwrap().is_success());
/// // …until a switch sticks at cross.
/// let mut faults = FaultSet::new(3);
/// faults.insert(2, 1, FaultKind::StuckCross).unwrap();
/// let overlay = FaultMasks::new(&faults);
/// let broken = word::route(3, &id, Columns::Given(&straight), Some(&overlay)).unwrap();
/// assert!(!broken.is_success());
/// ```
pub fn route(
    n: u32,
    d: &Permutation,
    columns: Columns<'_>,
    faults: Option<&FaultMasks>,
) -> Result<WordOutcome, NetworkError> {
    assert!(n >= 1, "word kernels require n >= 1");
    let size = 1usize << n;
    if d.len() != size {
        return Err(NetworkError::PermutationLength { expected: size, actual: d.len() });
    }
    if let Columns::Given(program) = columns {
        if program.n != n {
            return Err(NetworkError::SettingsOrder {
                network_n: n,
                settings_n: program.n,
            });
        }
    }
    if let Some(f) = faults {
        assert_eq!(f.n, n, "fault masks order must match the network");
    }
    let words = word_count(n);
    let mut planes = pack(n, d);
    let stages = 2 * n as usize - 1;
    // Omega-bit variant (§II after Theorem 3): stages 0..n−1 forced straight.
    let forced_below = n as usize - 1;
    let mut stage_cross = vec![0u64; stages * words];
    for s in 0..stages {
        let c = topology::control_bit(n, s);
        let sf = faults.and_then(|f| f.stages[s].any.then_some(&f.stages[s]));
        // The commanded column: the upper input's control bit, read for
        // the whole column from plane δ(s); or the given program's column.
        let commanded = match columns {
            Columns::Omega if s < forced_below => None,
            Columns::Tags | Columns::Omega => {
                Some(&planes[c as usize * words..(c as usize + 1) * words])
            }
            Columns::Given(program) => Some(program.stage(s)),
        };
        if commanded.is_none() && sf.is_none() {
            // A healthy forced-straight column moves nothing: skip it.
            continue;
        }
        let cross = &mut stage_cross[s * words..(s + 1) * words];
        if let Some(source) = commanded {
            // Keep only the upper position of every pair (bit δ(s) clear).
            if c < 6 {
                let m = benes_bits::delta_mask(c);
                for (cw, &pw) in cross.iter_mut().zip(source) {
                    *cw = pw & m;
                }
            } else {
                for (w, (cw, &pw)) in cross.iter_mut().zip(source).enumerate() {
                    *cw = if (w >> (c - 6)) & 1 == 0 { pw } else { 0 };
                }
            }
        }
        if let Some(f) = sf {
            // Stuck switches ignore the command, dead ones invert it.
            for (w, cw) in cross.iter_mut().enumerate() {
                *cw = ((*cw & !f.stuck[w]) | f.stuck_cross[w]) ^ f.dead[w];
            }
        }
        // Apply the column to every plane: one delta-swap per plane word.
        if c < 6 {
            let shift = 1u32 << c;
            for b in 0..n as usize {
                let base = b * words;
                for w in 0..words {
                    planes[base + w] =
                        benes_bits::delta_swap(planes[base + w], cross[w], shift);
                }
            }
        } else {
            // Pairs span words: partner word sits 2^(c-6) words higher.
            let half = 1usize << (c - 6);
            for b in 0..n as usize {
                let base = b * words;
                for wa in 0..words {
                    if (wa >> (c - 6)) & 1 == 0 {
                        let wb = wa + half;
                        let t = (planes[base + wa] ^ planes[base + wb]) & cross[wa];
                        planes[base + wa] ^= t;
                        planes[base + wb] ^= t;
                    }
                }
            }
        }
    }
    Ok(WordOutcome { n, words, planes, stage_cross })
}

/// Word-parallel self-routing of `d` through a healthy `B(n)`
/// (the fast form of [`Benes::try_self_route`](crate::network::Benes)).
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`.
///
/// # Examples
///
/// ```
/// use benes_core::word;
/// use benes_perm::Permutation;
///
/// // Fig. 5 of the paper: D = (1, 3, 2, 0) does NOT self-route on B(2)…
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
/// assert!(!word::self_route(2, &d).unwrap().is_success());
/// // …but it does with the omega bit asserted.
/// assert!(word::self_route_omega(2, &d).unwrap().is_success());
/// ```
pub fn self_route(n: u32, d: &Permutation) -> Result<WordOutcome, NetworkError> {
    route(n, d, Columns::Tags, None)
}

/// Word-parallel omega-bit self-routing: stages `0..n−1` forced straight,
/// the trailing omega half self-routes (realizes all of `Ω(n)`).
///
/// # Errors
///
/// [`NetworkError::PermutationLength`] if `d.len() != 2^n`.
pub fn self_route_omega(n: u32, d: &Permutation) -> Result<WordOutcome, NetworkError> {
    route(n, d, Columns::Omega, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{self, FaultKind};
    use crate::network::Benes;

    /// Advances the physical→flattened map across one inter-stage link:
    /// the element at output port `p` arrives at input port `link[p]`.
    fn advance(p2f: &[u32], link: &[u32]) -> Vec<u32> {
        let mut next = vec![0u32; p2f.len()];
        for (p, &f) in p2f.iter().enumerate() {
            next[link[p] as usize] = f;
        }
        next
    }

    /// The structural claim the whole module rests on: tracked through the
    /// links, stage `s` pairs flattened positions differing in exactly bit
    /// `control_bit(s)` (physical upper port = bit clear), the position
    /// table names each upper port's flattened coordinate, and the
    /// composition of all links is the identity.
    #[test]
    fn flattened_pairing_is_control_bit() {
        for n in 1..=8u32 {
            let net = Benes::new(n);
            let size = net.terminal_count();
            let stages = net.stage_count();
            let mut p2f: Vec<u32> = (0..size as u32).collect();
            for s in 0..stages {
                let c = net.control_bit(s);
                for i in 0..size / 2 {
                    let upper = p2f[2 * i];
                    let lower = p2f[2 * i + 1];
                    assert_eq!(upper >> c & 1, 0, "B({n}) stage {s} switch {i}");
                    assert_eq!(lower, upper | (1 << c), "B({n}) stage {s} switch {i}");
                    let table = topology::flat_upper(n)[s * size / 2 + i];
                    assert_eq!(table, upper, "B({n}) position table");
                }
                if s + 1 < stages {
                    p2f = advance(&p2f, net.link(s));
                }
            }
            let identity: Vec<u32> = (0..size as u32).collect();
            assert_eq!(p2f, identity, "B({n}): links do not compose to identity");
        }
    }

    #[test]
    fn identity_plane_word_matches_definition() {
        for n in 1..=8u32 {
            let words = word_count(n);
            for b in 0..n {
                for w in 0..words {
                    let mut expected = 0u64;
                    for p in 0..64usize {
                        let pos = (w << 6) | p;
                        if pos < (1 << n) && (pos >> b) & 1 == 1 {
                            expected |= 1 << p;
                        }
                    }
                    assert_eq!(identity_plane_word(n, b, w), expected, "n={n} b={b} w={w}");
                }
            }
        }
    }

    #[test]
    fn pack_then_unpack_round_trips() {
        for n in [1u32, 3, 6, 7, 8] {
            let d = lcg_perm(n, 0x5eed ^ u64::from(n));
            let outcome = WordOutcome {
                n,
                words: word_count(n),
                planes: pack(n, &d),
                stage_cross: Vec::new(),
            };
            assert_eq!(outcome.outputs(), d.destinations());
        }
    }

    #[test]
    fn rejects_length_mismatch() {
        let d = Permutation::identity(4);
        assert_eq!(
            self_route(3, &d),
            Err(NetworkError::PermutationLength { expected: 8, actual: 4 })
        );
    }

    /// Exhaustive agreement with the scalar oracle on B(2) and B(3):
    /// success flag, arrival tags, and recovered settings, for both the
    /// plain and the omega-bit kernels.
    #[test]
    fn exhaustive_agreement_with_scalar_oracle() {
        for n in [2u32, 3] {
            let net = Benes::new(n);
            for d in all_perms(1 << n) {
                let scalar = net.self_route(&d);
                let word = self_route(n, &d).unwrap();
                assert_eq!(word.is_success(), scalar.is_success(), "B({n}) {d:?}");
                assert_eq!(word.outputs(), scalar.outputs(), "B({n}) {d:?}");
                assert_eq!(&word.settings(), scalar.settings(), "B({n}) {d:?}");

                let scalar_o = net.self_route_omega(&d);
                let word_o = self_route_omega(n, &d).unwrap();
                assert_eq!(
                    word_o.is_success(),
                    scalar_o.is_success(),
                    "B({n}) omega {d:?}"
                );
                assert_eq!(word_o.outputs(), scalar_o.outputs(), "B({n}) omega {d:?}");
                assert_eq!(&word_o.settings(), scalar_o.settings(), "B({n}) omega {d:?}");
            }
        }
    }

    /// Same exhaustive comparison over faulty fabrics, including a dead
    /// switch and faults inside the omega-forced stages.
    #[test]
    fn exhaustive_faulty_agreement_with_scalar_oracle() {
        let n = 3u32;
        let net = Benes::new(n);
        let fault_sets = [
            fault_set(n, &[(0, 1, FaultKind::StuckCross)]),
            fault_set(n, &[(2, 0, FaultKind::StuckStraight), (4, 3, FaultKind::Dead)]),
            fault_set(
                n,
                &[
                    (0, 0, FaultKind::Dead),
                    (1, 2, FaultKind::StuckCross),
                    (3, 1, FaultKind::StuckStraight),
                ],
            ),
        ];
        for fs in &fault_sets {
            for d in all_perms(1 << n) {
                let scalar = faults::self_route_with_faults(&net, &d, fs);
                let word = route(n, &d, Columns::Tags, Some(&FaultMasks::new(fs))).unwrap();
                assert_eq!(word.is_success(), scalar.is_success(), "{fs:?} {d:?}");
                assert_eq!(word.outputs(), scalar.outputs(), "{fs:?} {d:?}");
                assert_eq!(&word.settings(), scalar.settings(), "{fs:?} {d:?}");

                let scalar_o = faults::self_route_omega_with_faults(&net, &d, fs);
                let word_o =
                    route(n, &d, Columns::Omega, Some(&FaultMasks::new(fs))).unwrap();
                assert_eq!(
                    word_o.is_success(),
                    scalar_o.is_success(),
                    "omega {fs:?} {d:?}"
                );
                assert_eq!(word_o.outputs(), scalar_o.outputs(), "omega {fs:?} {d:?}");
                assert_eq!(&word_o.settings(), scalar_o.settings(), "omega {fs:?} {d:?}");
            }
        }
    }

    /// Given columns replay external set-ups exactly as the scalar
    /// `route_with` walk does, on healthy and faulty fabrics: every
    /// Waksman program of B(2)/B(3) realizes its permutation, and a
    /// program built from arbitrary settings moves tags like the scalar
    /// replay, with and without overlay.
    #[test]
    fn given_columns_agree_with_scalar_replay() {
        for n in [2u32, 3] {
            let net = Benes::new(n);
            let fs =
                fault_set(n, &[(0, 1, FaultKind::StuckCross), (2, 0, FaultKind::Dead)]);
            let overlay = FaultMasks::new(&fs);
            for (k, d) in all_perms(1 << n).into_iter().enumerate() {
                let program =
                    MaskProgram::from_settings(&crate::waksman::setup(&d).unwrap());
                let replay = route(n, &d, Columns::Given(&program), None).unwrap();
                assert!(replay.is_success(), "B({n}) {d:?}");

                // Arbitrary settings: pick each switch from the index bits.
                let mut settings = SwitchSettings::all_straight(n);
                for s in 0..net.stage_count() {
                    for i in 0..net.switches_per_stage() {
                        let bit = ((k * 7 + s * 5 + i * 3) >> 1) as u64 & 1;
                        settings.set(s, i, SwitchState::from_bit(bit));
                    }
                }
                let program = MaskProgram::from_settings(&settings);
                assert_eq!(program.to_settings(), settings);
                let tags = d.destinations();
                let word = route(n, &d, Columns::Given(&program), None).unwrap();
                assert_eq!(word.outputs(), net.route_with(&settings, tags).unwrap());
                assert_eq!(word.settings(), settings);
                let word_f =
                    route(n, &d, Columns::Given(&program), Some(&overlay)).unwrap();
                let scalar_f =
                    faults::route_with_faults(&net, &settings, &fs, tags).unwrap();
                assert_eq!(word_f.outputs(), scalar_f, "B({n}) faulty {d:?}");
                assert_eq!(
                    program.agrees_with(&overlay),
                    fs.agrees_with(&settings),
                    "B({n}) agreement"
                );
            }
        }
    }

    #[test]
    fn given_columns_reject_a_program_of_another_order() {
        let d = Permutation::identity(8);
        assert_eq!(
            route(3, &d, Columns::Given(&MaskProgram::all_straight(2)), None),
            Err(NetworkError::SettingsOrder { network_n: 3, settings_n: 2 })
        );
    }

    /// Multi-word orders exercise the cross-word (`δ(s) ≥ 6`) column path:
    /// B(7) pairs words at distance 1 and B(8) at distances 1 and 2.
    #[test]
    fn multiword_orders_agree_with_scalar_oracle() {
        for n in [6u32, 7, 8] {
            let net = Benes::new(n);
            for seed in 0..8u64 {
                let d = lcg_perm(n, seed.wrapping_mul(0x9e37_79b9) ^ u64::from(n));
                let scalar = net.self_route(&d);
                let word = self_route(n, &d).unwrap();
                assert_eq!(word.is_success(), scalar.is_success(), "B({n}) seed {seed}");
                assert_eq!(word.outputs(), scalar.outputs(), "B({n}) seed {seed}");
                assert_eq!(&word.settings(), scalar.settings(), "B({n}) seed {seed}");
            }
            // Random stuck/dead fabric at the same orders.
            let fs = FaultSet::random_stuck(n, 4, 0xfab ^ u64::from(n));
            for seed in 0..4u64 {
                let d = lcg_perm(n, seed ^ 0xabcd);
                let scalar = faults::self_route_with_faults(&net, &d, &fs);
                let word =
                    route(n, &d, Columns::Tags, Some(&FaultMasks::new(&fs))).unwrap();
                assert_eq!(word.outputs(), scalar.outputs(), "B({n}) faulty seed {seed}");
            }
        }
    }

    /// The paper's Fig. 5 example, traced by hand in flattened form.
    #[test]
    fn fig5_word_trace() {
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        let outcome = self_route(2, &d).unwrap();
        assert!(!outcome.is_success());
        assert_eq!(outcome.outputs(), vec![2, 1, 0, 3]);
        assert!(self_route_omega(2, &d).unwrap().is_success());
    }

    fn fault_set(n: u32, entries: &[(usize, usize, FaultKind)]) -> FaultSet {
        let mut fs = FaultSet::new(n);
        for &(s, i, k) in entries {
            fs.insert(s, i, k).unwrap();
        }
        fs
    }

    /// Deterministic Fisher–Yates driven by a 64-bit LCG.
    fn lcg_perm(n: u32, seed: u64) -> Permutation {
        let size = 1usize << n;
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut dest: Vec<u32> = (0..size as u32).collect();
        for i in (1..size).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            dest.swap(i, j);
        }
        Permutation::from_destinations(dest).unwrap()
    }

    fn all_perms(len: usize) -> Vec<Permutation> {
        fn rec(rem: &mut Vec<u32>, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if rem.is_empty() {
                out.push(cur.clone());
                return;
            }
            for idx in 0..rem.len() {
                let v = rem.remove(idx);
                cur.push(v);
                rec(rem, cur, out);
                cur.pop();
                rem.insert(idx, v);
            }
        }
        let mut raw = Vec::new();
        rec(&mut (0..len as u32).collect(), &mut Vec::new(), &mut raw);
        raw.into_iter().map(|d| Permutation::from_destinations(d).unwrap()).collect()
    }
}
