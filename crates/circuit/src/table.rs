//! Interned gate storage and constant-time set-commutation summaries.
//!
//! The indexed IR (`CommIr` in `autocomm`) stores every gate of a program
//! **once** in a [`GateTable`] and refers to it by [`GateId`] everywhere
//! else — blocks, items, and schedules hold `u32` indices instead of cloned
//! [`Gate`] values. Interning is by content, so repeated gates (the common
//! case in unrolled circuits) share one slot and one id, which also makes
//! "are these the same gate?" an integer comparison.
//!
//! On intern the table precomputes, per unique gate, a flat (CSR) record of
//! its wires and their commutation classes, so the hot passes never resolve
//! a [`Gate`] at all:
//!
//! * [`GateTable::commutes_ids`] — the exact pairwise [`crate::commutes`]
//!   oracle over ids (identical-gate test becomes `a == b`);
//! * [`CommSummary`] — summarizes a *set* of gates per qubit wire so that
//!   "does gate `g` commute with every gate in the set?"
//!   ([`CommSummary::commutes_with`]) is answered in `O(operands(g))`
//!   instead of `O(|set|)`, with answers **exactly** equal to
//!   [`crate::commutes_with_all`] — same axis-diagonality algebra, same
//!   classical-bit hazards, same identical-unitary rule, as the property
//!   suite asserts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{AxisBehavior, Gate, GateKind, QubitId};

/// Index of an interned gate in a [`GateTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(u32);

impl GateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Minimal FNV-1a hasher for the interning index — the keys are already
/// well-mixed 64-bit content hashes (finalized by [`fmix64`]), and the
/// workspace takes no external fast-hash crates.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Content hash of a gate (parameters bit-exact, `-0.0` normalized).
fn content_hash(gate: &Gate) -> u64 {
    let mut h = FnvHasher::default();
    h.write_u64(gate.kind() as u64);
    for q in gate.qubits() {
        h.write_u64(q.index() as u64 + 1);
    }
    h.write_u64(0x9e37_79b9_7f4a_7c15); // qubit/param separator
    for p in gate.params() {
        h.write_u64((p + 0.0).to_bits());
    }
    h.write_u64(bit_code(gate.cbit()));
    h.write_u64(bit_code(gate.condition()));
    fmix64(h.finish())
}

/// MurmurHash3's 64-bit finalizer. FNV's multiply only carries low bits
/// upward, so without it gates differing only in high bits (the exponent
/// of `π/2^k` angles) would share the low bits the hash map buckets by.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn bit_code(bit: Option<crate::CBitId>) -> u64 {
    match bit {
        Some(b) => b.index() as u64 + 2,
        None => 1,
    }
}

/// Bit-exact gate content equality (matches [`Gate`]'s `PartialEq` on the
/// values produced by this workspace; `-0.0` and `0.0` compare equal).
fn content_eq(a: &Gate, b: &Gate) -> bool {
    a.kind() == b.kind()
        && a.qubits() == b.qubits()
        && a.params().len() == b.params().len()
        && a.params()
            .iter()
            .zip(b.params())
            .all(|(x, y)| (x + 0.0).to_bits() == (y + 0.0).to_bits())
        && a.cbit() == b.cbit()
        && a.condition() == b.condition()
}

/// Per-wire commutation class tag stored in the table's CSR record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireTag {
    /// Diagonal in the computational basis on this wire.
    Z,
    /// Diagonal in the |±⟩ basis on this wire.
    X,
    /// Opaque but unitary: commutes only with bit-identical copies.
    Opaque,
    /// Barrier/reset: conflicts with everything sharing the wire.
    Block,
}

impl WireTag {
    fn class(self) -> WireClass {
        match self {
            WireTag::Z => WireClass::ZDiag,
            WireTag::X => WireClass::XDiag,
            WireTag::Opaque => WireClass::Opaque,
            WireTag::Block => WireClass::Block,
        }
    }
}

fn wire_tag(gate: &Gate, q: QubitId) -> WireTag {
    if matches!(gate.kind(), GateKind::Barrier | GateKind::Reset) {
        return WireTag::Block;
    }
    match AxisBehavior::of(gate, q) {
        AxisBehavior::ZDiag => WireTag::Z,
        AxisBehavior::XDiag => WireTag::X,
        AxisBehavior::Opaque if gate.kind().is_unitary() => WireTag::Opaque,
        AxisBehavior::Opaque => WireTag::Block,
    }
}

/// One wire of a gate's precomputed commutation record.
#[derive(Clone, Copy, Debug)]
struct Wire {
    qubit: u32,
    tag: WireTag,
}

/// Public view of a gate's precomputed per-wire commutation class — what
/// [`GateTable::wire_class_on`] reports so hot passes (segmentation,
/// aggregation) can classify a gate's action on a wire without resolving
/// the [`Gate`] at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireClass {
    /// Diagonal in the computational basis on this wire.
    ZDiag,
    /// Diagonal in the |±⟩ basis on this wire.
    XDiag,
    /// Opaque but unitary: commutes only with bit-identical copies.
    Opaque,
    /// Barrier/reset: conflicts with everything sharing the wire.
    Block,
}

const NO_CBIT: u32 = u32::MAX;

/// Fixed-size classical-bit record: `[cbit, condition]`, `NO_CBIT` = none.
#[derive(Clone, Copy, Debug)]
struct CBits([u32; 2]);

impl CBits {
    fn of(gate: &Gate) -> CBits {
        let code = |b: Option<crate::CBitId>| b.map_or(NO_CBIT, |c| c.index() as u32);
        CBits([code(gate.cbit()), code(gate.condition())])
    }

    fn iter(self) -> impl Iterator<Item = u32> {
        self.0.into_iter().filter(|&c| c != NO_CBIT)
    }

    fn any(self) -> bool {
        self.0[0] != NO_CBIT || self.0[1] != NO_CBIT
    }
}

/// An append-only, content-interned gate store with per-gate precomputed
/// commutation records.
///
/// ```
/// use dqc_circuit::{Gate, GateTable, QubitId};
/// let q = |i| QubitId::new(i);
/// let mut table = GateTable::new();
/// let a = table.intern(&Gate::cx(q(0), q(1)));
/// let b = table.intern(&Gate::cx(q(0), q(1)));
/// let c = table.intern(&Gate::h(q(0)));
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.gate(a), &Gate::cx(q(0), q(1)));
/// assert!(table.commutes_ids(a, c) == dqc_circuit::commutes(table.gate(a), table.gate(c)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GateTable {
    gates: Vec<Gate>,
    /// content hash → interned id (collisions verified by full content
    /// comparison; true 64-bit collisions spill to `collisions`).
    index: FnvMap<u64, GateId>,
    /// Overflow entries for distinct gates sharing a content hash.
    collisions: Vec<(u64, GateId)>,
    /// CSR wire records: `wires[offsets[id]..offsets[id + 1]]`.
    wires: Vec<Wire>,
    offsets: Vec<u32>,
    /// Arena (bump) copies of the per-gate scalar metadata, so the hot
    /// passes read flat `Vec`s instead of resolving each [`Gate`]: one
    /// [`GateKind`] per gate…
    kinds: Vec<GateKind>,
    /// …and the rotation parameters in a CSR arena
    /// (`params[param_off[id]..param_off[id + 1]]`).
    params: Vec<f64>,
    param_off: Vec<u32>,
    cbits: Vec<CBits>,
    /// Per-gate folded wire mask: bit `q % 64` per operand (collisions past
    /// 64 qubits only ever make overlap checks conservative).
    masks: Vec<u64>,
    /// Like `masks`, but all-ones for classically-entangled gates so a
    /// single load answers "certainly disjoint and classically clean?".
    disjoint_masks: Vec<u64>,
}

impl GateTable {
    /// An empty table.
    pub fn new() -> Self {
        GateTable { offsets: vec![0], param_off: vec![0], ..GateTable::default() }
    }

    /// An empty table sized for roughly `gates` interned gates.
    pub fn with_capacity(gates: usize) -> Self {
        let mut t = GateTable::new();
        t.gates.reserve(gates);
        t.index.reserve(gates);
        t.wires.reserve(gates * 2);
        t.offsets.reserve(gates);
        t.kinds.reserve(gates);
        t.params.reserve(gates);
        t.param_off.reserve(gates);
        t.cbits.reserve(gates);
        t.masks.reserve(gates);
        t.disjoint_masks.reserve(gates);
        t
    }

    /// Interns `gate`, returning the id of its unique copy.
    pub fn intern(&mut self, gate: &Gate) -> GateId {
        let hash = content_hash(gate);
        let mut collided = false;
        if let Some(&id) = self.index.get(&hash) {
            if content_eq(&self.gates[id.index()], gate) {
                return id;
            }
            collided = true;
            for &(h, cid) in &self.collisions {
                if h == hash && content_eq(&self.gates[cid.index()], gate) {
                    return cid;
                }
            }
        }
        let id = GateId(u32::try_from(self.gates.len()).expect("gate table fits in u32"));
        let mut mask = 0u64;
        for &q in gate.qubits() {
            self.wires.push(Wire { qubit: q.index() as u32, tag: wire_tag(gate, q) });
            mask |= 1u64 << (q.index() % 64);
        }
        self.offsets.push(self.wires.len() as u32);
        self.kinds.push(gate.kind());
        self.params.extend_from_slice(gate.params());
        self.param_off.push(self.params.len() as u32);
        let cbits = CBits::of(gate);
        self.disjoint_masks.push(if cbits.any() { u64::MAX } else { mask });
        self.cbits.push(cbits);
        self.masks.push(mask);
        self.gates.push(gate.clone());
        if collided {
            self.collisions.push((hash, id));
        } else {
            self.index.insert(hash, id);
        }
        id
    }

    /// Resolves an id to its gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Resolves a slice of ids to gate references.
    pub fn gates<'a>(&'a self, ids: &'a [GateId]) -> impl Iterator<Item = &'a Gate> + 'a {
        ids.iter().map(|&id| self.gate(id))
    }

    /// Number of distinct gates interned.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    fn wires_of(&self, id: GateId) -> &[Wire] {
        &self.wires[self.offsets[id.index()] as usize..self.offsets[id.index() + 1] as usize]
    }

    /// The operand qubit indices of `id`, without touching the gate.
    pub fn qubit_indices(&self, id: GateId) -> impl Iterator<Item = usize> + '_ {
        self.wires_of(id).iter().map(|w| w.qubit as usize)
    }

    /// The kind of gate `id`, from the flat kind arena.
    pub fn kind_of(&self, id: GateId) -> GateKind {
        self.kinds[id.index()]
    }

    /// The rotation parameters of `id`, from the CSR parameter arena.
    pub fn params_of(&self, id: GateId) -> &[f64] {
        &self.params[self.param_off[id.index()] as usize..self.param_off[id.index() + 1] as usize]
    }

    /// Number of qubit operands of `id` (CSR offset difference; no gate
    /// resolution).
    pub fn operand_count(&self, id: GateId) -> usize {
        (self.offsets[id.index() + 1] - self.offsets[id.index()]) as usize
    }

    /// Whether `id` is a unitary gate (not a measure/reset/barrier).
    pub fn is_unitary(&self, id: GateId) -> bool {
        self.kinds[id.index()].is_unitary()
    }

    /// The precomputed commutation class of `id`'s action on `qubit`, or
    /// `None` when the gate does not act on that wire.
    pub fn wire_class_on(&self, id: GateId, qubit: usize) -> Option<WireClass> {
        self.wires_of(id).iter().find(|w| w.qubit as usize == qubit).map(|w| w.tag.class())
    }

    /// Each operand qubit of `id` with the gate's commutation class on it,
    /// in operand order, read straight from the precomputed wire records.
    pub fn wire_classes(&self, id: GateId) -> impl Iterator<Item = (usize, WireClass)> + '_ {
        self.wires_of(id).iter().map(|w| (w.qubit as usize, w.tag.class()))
    }

    /// The classical bit written by `id` if it is a measurement.
    pub fn measure_bit(&self, id: GateId) -> Option<usize> {
        let c = self.cbits[id.index()].0[0];
        (c != NO_CBIT).then_some(c as usize)
    }

    /// The classical bit conditioning `id`, if any.
    pub fn condition_bit(&self, id: GateId) -> Option<usize> {
        let c = self.cbits[id.index()].0[1];
        (c != NO_CBIT).then_some(c as usize)
    }

    /// Whether `id` reads or writes any classical bit.
    pub fn touches_classical(&self, id: GateId) -> bool {
        self.cbits[id.index()].any()
    }

    /// The classical bits `id` reads or writes (measurement target and
    /// condition bit).
    pub fn classical_bits(&self, id: GateId) -> impl Iterator<Item = usize> + '_ {
        self.cbits[id.index()].iter().map(|c| c as usize)
    }

    /// Folded operand mask of `id`: bit `q % 64` set per operand qubit.
    /// Disjoint masks prove disjoint supports; overlapping masks prove
    /// nothing past 64 qubits (fold collisions are conservative).
    pub fn wire_mask(&self, id: GateId) -> u64 {
        self.masks[id.index()]
    }

    /// [`Self::wire_mask`], except all-ones when `id` touches a classical
    /// bit: `disjoint_mask(id) & set_mask == 0` proves in one load that the
    /// gate overlaps none of the set's wires and carries no classical
    /// hazard (the fast-path test of the aggregation hoist loop).
    pub fn disjoint_mask(&self, id: GateId) -> u64 {
        self.disjoint_masks[id.index()]
    }

    /// Approximate heap footprint of the flat arenas in bytes: the CSR wire
    /// records and offsets plus the kind/param/cbit/mask copies. Excludes
    /// the resolved [`Gate`] values and the interning index (whose sizes
    /// depend on hash-map capacity growth, not on content) so the number is
    /// deterministic for a given program — the memory counter the front-end
    /// scale gate records in its baseline.
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.wires.len() * size_of::<Wire>()
            + self.offsets.len() * size_of::<u32>()
            + self.kinds.len() * size_of::<GateKind>()
            + self.params.len() * size_of::<f64>()
            + self.param_off.len() * size_of::<u32>()
            + self.cbits.len() * size_of::<CBits>()
            + self.masks.len() * size_of::<u64>()
            + self.disjoint_masks.len() * size_of::<u64>()
    }

    /// Exact pairwise commutation over interned ids — identical to
    /// [`crate::commutes`] on the resolved gates, but using the precomputed
    /// wire records (the identical-unitary rule becomes `a == b`).
    pub fn commutes_ids(&self, a: GateId, b: GateId) -> bool {
        let (ca, cb) = (self.cbits[a.index()], self.cbits[b.index()]);
        if ca.any() && cb.any() {
            for x in ca.iter() {
                for y in cb.iter() {
                    if x == y {
                        return false;
                    }
                }
            }
        }
        let (wa, wb) = (self.wires_of(a), self.wires_of(b));
        for x in wa {
            for y in wb {
                if x.qubit == y.qubit {
                    let ok = match (x.tag, y.tag) {
                        (WireTag::Z, WireTag::Z) | (WireTag::X, WireTag::X) => true,
                        // Identical-unitary rule; barriers/resets carry
                        // `Block` and conflict even with identical copies.
                        (WireTag::Opaque, WireTag::Opaque) => a == b,
                        _ => false,
                    };
                    if !ok {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Per-wire state of a [`CommSummary`]: what class of gates touched the
/// wire (generation-stamped so `clear` is O(1)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WireState {
    /// All touches so far are Z-diagonal.
    Z,
    /// All touches so far are X-diagonal.
    X,
    /// All touches so far are bit-identical copies of one opaque unitary.
    Same(GateId),
    /// Mixed classes or a barrier/reset: nothing further commutes here.
    Conflict,
}

#[derive(Clone, Copy, Debug)]
struct WireEntry {
    gen: u32,
    state: WireState,
}

/// An exact, incrementally-built summary of a gate *set* that answers
/// "does `g` commute with every member?" in `O(operands(g))`.
///
/// Equivalent to [`crate::commutes_with_all`] over the inserted gates — the
/// replacement for the pass-internal `O(set)` rescans:
///
/// ```
/// use dqc_circuit::{commutes_with_all, CommSummary, Gate, GateTable, QubitId};
/// let q = |i| QubitId::new(i);
/// let mut table = GateTable::new();
/// let set = vec![Gate::cx(q(0), q(1)), Gate::cx(q(0), q(2))];
/// let mut summary = CommSummary::new(4, 0);
/// for g in &set {
///     let id = table.intern(g);
///     summary.add(&table, id);
/// }
/// let rz = table.intern(&Gate::rz(0.1, q(0)));
/// assert!(summary.commutes_with(&table, rz));
/// let x = table.intern(&Gate::x(q(0)));
/// assert!(!summary.commutes_with(&table, x));
/// ```
#[derive(Clone, Debug)]
pub struct CommSummary {
    gen: u32,
    wires: Vec<WireEntry>,
    cbit_gen: Vec<u32>,
    len: usize,
    /// Distinct qubit wires plus classical bits touched since the last
    /// clear.
    wire_count: usize,
}

impl CommSummary {
    /// An empty summary over registers of the given widths (both grow on
    /// demand).
    pub fn new(num_qubits: usize, num_cbits: usize) -> Self {
        CommSummary {
            gen: 1,
            wires: vec![WireEntry { gen: 0, state: WireState::Conflict }; num_qubits],
            cbit_gen: vec![0; num_cbits],
            len: 0,
            wire_count: 0,
        }
    }

    /// Empties the summary in O(1) (the backing storage is reused).
    pub fn clear(&mut self) {
        self.gen += 1;
        self.len = 0;
        self.wire_count = 0;
    }

    /// Number of gates inserted since the last [`CommSummary::clear`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no gate has been inserted since the last clear.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct qubit wires plus distinct classical bits that the gates
    /// inserted since the last clear touch: the summary's live entries.
    pub fn wire_count(&self) -> usize {
        self.wire_count
    }

    /// Inserts gate `id` into the set.
    pub fn add(&mut self, table: &GateTable, id: GateId) {
        self.len += 1;
        for w in table.wires_of(id) {
            let incoming = match w.tag {
                WireTag::Z => WireState::Z,
                WireTag::X => WireState::X,
                WireTag::Opaque => WireState::Same(id),
                WireTag::Block => WireState::Conflict,
            };
            let qi = w.qubit as usize;
            if qi >= self.wires.len() {
                self.wires.resize(qi + 1, WireEntry { gen: 0, state: WireState::Conflict });
            }
            let entry = &mut self.wires[qi];
            if entry.gen != self.gen {
                *entry = WireEntry { gen: self.gen, state: incoming };
                self.wire_count += 1;
            } else if entry.state != incoming || incoming == WireState::Conflict {
                entry.state = WireState::Conflict;
            }
        }
        for c in table.cbits[id.index()].iter() {
            let ci = c as usize;
            if ci >= self.cbit_gen.len() {
                self.cbit_gen.resize(ci + 1, 0);
            }
            if self.cbit_gen[ci] != self.gen {
                self.cbit_gen[ci] = self.gen;
                self.wire_count += 1;
            }
        }
    }

    /// Whether gate `id` commutes with **every** gate in the set — exactly
    /// [`crate::commutes_with_all`] over the inserted gates.
    pub fn commutes_with(&self, table: &GateTable, id: GateId) -> bool {
        if self.len == 0 {
            return true;
        }
        for c in table.cbits[id.index()].iter() {
            if self.cbit_gen.get(c as usize).copied() == Some(self.gen) {
                return false;
            }
        }
        for w in table.wires_of(id) {
            let Some(entry) = self.wires.get(w.qubit as usize) else { continue };
            if entry.gen != self.gen {
                continue; // wire untouched by the set
            }
            let ok = match (w.tag, entry.state) {
                (WireTag::Z, WireState::Z) | (WireTag::X, WireState::X) => true,
                (WireTag::Opaque, WireState::Same(member)) => member == id,
                _ => false,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{commutes, commutes_with_all, CBitId};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn zoo() -> Vec<Gate> {
        vec![
            Gate::h(q(0)),
            Gate::h(q(1)),
            Gate::t(q(0)),
            Gate::x(q(1)),
            Gate::rz(0.5, q(2)),
            Gate::rx(0.5, q(2)),
            Gate::cx(q(0), q(1)),
            Gate::cx(q(1), q(0)),
            Gate::cx(q(0), q(2)),
            Gate::cz(q(1), q(2)),
            Gate::rzz(0.3, q(0), q(2)),
            Gate::swap(q(0), q(1)),
            Gate::swap(q(1), q(2)),
            Gate::ccx(q(0), q(1), q(2)),
            Gate::barrier(&[q(1)]),
            Gate::reset(q(2)),
            Gate::measure(q(0), CBitId::new(0)),
            Gate::x(q(1)).with_condition(CBitId::new(0)),
            Gate::x(q(1)).with_condition(CBitId::new(1)),
        ]
    }

    fn summary_of(gates: &[Gate], table: &mut GateTable) -> CommSummary {
        let mut s = CommSummary::new(0, 0);
        for g in gates {
            let id = table.intern(g);
            s.add(table, id);
        }
        s
    }

    /// Exhaustive agreement with `commutes_with_all` over a gate zoo.
    #[test]
    fn summary_matches_pairwise_commutation() {
        let zoo = zoo();
        let mut table = GateTable::new();
        // Every subset would be 2^19; instead check every (pair, probe) —
        // the shapes the passes actually use.
        for i in 0..zoo.len() {
            for j in 0..zoo.len() {
                let set = [zoo[i].clone(), zoo[j].clone()];
                let summary = summary_of(&set, &mut table);
                for probe in &zoo {
                    let id = table.intern(probe);
                    assert_eq!(
                        summary.commutes_with(&table, id),
                        commutes_with_all(probe, &set),
                        "set [{}, {}], probe {probe}",
                        zoo[i],
                        zoo[j],
                    );
                }
            }
        }
    }

    /// The id-level pairwise oracle agrees with `commutes` everywhere.
    #[test]
    fn commutes_ids_matches_commutes() {
        let zoo = zoo();
        let mut table = GateTable::new();
        let ids: Vec<GateId> = zoo.iter().map(|g| table.intern(g)).collect();
        for (i, a) in zoo.iter().enumerate() {
            for (j, b) in zoo.iter().enumerate() {
                assert_eq!(table.commutes_ids(ids[i], ids[j]), commutes(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn identical_opaque_gates_commute_through_summary() {
        let mut table = GateTable::new();
        let h = Gate::h(q(0));
        let summary = summary_of(&[h.clone(), h.clone()], &mut table);
        let id = table.intern(&h);
        assert!(summary.commutes_with(&table, id));
        let other = table.intern(&Gate::y(q(0)));
        assert!(!summary.commutes_with(&table, other));
    }

    #[test]
    fn clear_reuses_storage() {
        let mut table = GateTable::new();
        let mut s = CommSummary::new(3, 1);
        let id = table.intern(&Gate::h(q(0)));
        s.add(&table, id);
        let zid = table.intern(&Gate::z(q(0)));
        assert!(!s.commutes_with(&table, zid));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.wire_count(), 0);
        assert!(s.commutes_with(&table, zid));
    }

    #[test]
    fn wire_count_counts_distinct_wires_and_bits() {
        let mut table = GateTable::new();
        let gates = [
            Gate::cx(q(0), q(1)),
            Gate::h(q(1)),
            Gate::measure(q(0), CBitId::new(3)),
            Gate::x(q(2)).with_condition(CBitId::new(3)),
        ];
        let s = summary_of(&gates, &mut table);
        assert_eq!(s.wire_count(), 4, "qubits 0, 1, 2 and classical bit 3");
    }

    #[test]
    fn interning_is_content_based() {
        let mut table = GateTable::new();
        let a = table.intern(&Gate::rz(0.5, q(0)));
        let b = table.intern(&Gate::rz(0.5, q(0)));
        let c = table.intern(&Gate::rz(0.25, q(0)));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let neg = table.intern(&Gate::rz(-0.0, q(1)));
        let pos = table.intern(&Gate::rz(0.0, q(1)));
        assert_eq!(neg, pos, "-0.0 and 0.0 parameters intern identically");
    }

    /// `rz(π/2^k)` angles differ only in exponent bits; the interning
    /// index must still spread them over the low bits its buckets use.
    #[test]
    fn content_hashes_spread_over_the_index_low_bits() {
        const LOW: u32 = 18;
        let mut buckets = std::collections::HashSet::new();
        let mut gates = 0usize;
        for k in 0..64 {
            let angle = std::f64::consts::PI / 2f64.powi(k);
            for qubit in 0..300 {
                let mut index_hash = FnvHasher::default();
                index_hash.write_u64(content_hash(&Gate::rz(angle, q(qubit))));
                buckets.insert(index_hash.finish() & ((1 << LOW) - 1));
                gates += 1;
            }
        }
        // A uniform hash fills ≈ 18,500 of the 2^18 positions.
        assert!(buckets.len() * 10 > gates * 9, "{} positions for {gates} gates", buckets.len());
    }

    #[test]
    fn summary_grows_past_initial_register() {
        let mut table = GateTable::new();
        let mut s = CommSummary::new(1, 0);
        let id = table.intern(&Gate::cx(q(5), q(9)));
        s.add(&table, id);
        let probe = table.intern(&Gate::h(q(9)));
        assert!(!s.commutes_with(&table, probe));
    }

    /// The arena accessors agree with the resolved gate for every zoo gate.
    #[test]
    fn arena_metadata_matches_gates() {
        let mut table = GateTable::new();
        let ids: Vec<GateId> = zoo().iter().map(|g| table.intern(g)).collect();
        for &id in &ids {
            let gate = table.gate(id).clone();
            assert_eq!(table.kind_of(id), gate.kind());
            assert_eq!(table.params_of(id), gate.params());
            assert_eq!(table.operand_count(id), gate.qubits().len());
            assert_eq!(table.is_unitary(id), gate.kind().is_unitary());
            for &q in gate.qubits() {
                let class = table.wire_class_on(id, q.index()).expect("gate acts on operand");
                let expected = match wire_tag(&gate, q) {
                    WireTag::Z => WireClass::ZDiag,
                    WireTag::X => WireClass::XDiag,
                    WireTag::Opaque => WireClass::Opaque,
                    WireTag::Block => WireClass::Block,
                };
                assert_eq!(class, expected, "{gate} on q{}", q.index());
            }
            assert_eq!(table.wire_class_on(id, 63), None, "{gate} does not act on q63");
        }
    }

    #[test]
    fn table_exposes_wire_metadata() {
        let mut table = GateTable::new();
        let id = table.intern(&Gate::cx(q(2), q(7)));
        assert_eq!(table.qubit_indices(id).collect::<Vec<_>>(), vec![2, 7]);
        assert!(!table.touches_classical(id));
        let m = table.intern(&Gate::measure(q(0), CBitId::new(3)));
        assert!(table.touches_classical(m));
    }
}
