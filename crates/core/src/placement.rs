//! Qubit placement: partition blocks pinned onto physical topology nodes.
//!
//! The historical pipeline consumed a raw [`Partition`] and implicitly
//! mapped partition block *i* onto physical node *i*. On a sparse
//! interconnect that arbitrary map leaves hop-weighted EPR cost on the
//! table: the hardware charges `comms × hops`, and which node a block lands
//! on decides the hops. [`Placement`] makes the block→node map explicit —
//! it is what `assign_on`, `schedule`, and `lower_assigned_on` consume now
//! — and [`comm_weighted_graph`] provides the post-aggregation interaction
//! weights the placement optimizer feeds on (burst blocks, not raw gate
//! counts).

use dqc_circuit::{NodeId, Partition, QubitId};
use dqc_partition::InteractionGraph;

use crate::{AggregatedProgram, CompileError, Item};

/// A qubit placement: a logical [`Partition`] (qubit → block) composed
/// with a block→node map (block → physical interconnect node).
///
/// The identity placement reproduces the historical behavior bit for bit;
/// every block→node map must be injective (two blocks cannot share a
/// physical node).
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    partition: Partition,
    node_map: Vec<NodeId>,
    /// The composition: qubit → physical node (cached because the
    /// scheduler and the protocol expander look it up per gate).
    physical: Partition,
}

impl Placement {
    /// The identity placement: block `i` on physical node `i` (the
    /// historical implicit map).
    pub fn identity(partition: &Partition) -> Self {
        let node_map = (0..partition.num_nodes()).map(NodeId::new).collect();
        Placement::new(partition.clone(), node_map).expect("identity is always valid")
    }

    /// A placement with an explicit block→node map.
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidPlacement`] when the map's length differs
    /// from the partition's block count or two blocks share a node.
    pub fn new(partition: Partition, node_map: Vec<NodeId>) -> Result<Self, CompileError> {
        if node_map.len() != partition.num_nodes() {
            return Err(CompileError::InvalidPlacement {
                reason: format!(
                    "map covers {} block(s) but the partition has {}",
                    node_map.len(),
                    partition.num_nodes()
                ),
            });
        }
        // Sort-based duplicate detection: a dense seen-vector sized by the
        // largest index would let one absurd NodeId attempt a huge
        // allocation before validation could reject it.
        let mut sorted = node_map.clone();
        sorted.sort_unstable_by_key(|n| n.index());
        if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(CompileError::InvalidPlacement {
                reason: format!("two blocks are placed on node {}", dup[0]),
            });
        }
        let physical_nodes =
            node_map.iter().map(|n| n.index() + 1).max().unwrap_or(partition.num_nodes());
        let physical = Partition::from_assignment(
            partition.assignment().iter().map(|block| node_map[block.index()]).collect(),
            physical_nodes.max(partition.num_nodes()),
        )
        .map_err(|e| CompileError::InvalidPlacement { reason: e.to_string() })?;
        Ok(Placement { partition, node_map, physical })
    }

    /// The logical partition (qubit → block). Aggregation and burst-pair
    /// discovery operate on this level.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The block→node map, indexed by partition block.
    pub fn node_map(&self) -> &[NodeId] {
        &self.node_map
    }

    /// The composed qubit → physical-node assignment. This is what the
    /// hardware timeline and the protocol expander consume: it decides
    /// which interconnect links a communication routes over.
    pub fn physical_partition(&self) -> &Partition {
        &self.physical
    }

    /// The physical node hosting partition block `block`.
    ///
    /// # Panics
    ///
    /// Panics when `block` is outside the partition.
    pub fn physical_of(&self, block: NodeId) -> NodeId {
        self.node_map[block.index()]
    }

    /// The physical node hosting qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside the partition.
    pub fn physical_node_of(&self, q: QubitId) -> NodeId {
        self.physical.node_of(q)
    }

    /// Number of partition blocks.
    pub fn num_nodes(&self) -> usize {
        self.partition.num_nodes()
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.partition.num_qubits()
    }

    /// Whether this is the identity map (block `i` → node `i`).
    pub fn is_identity(&self) -> bool {
        self.node_map.iter().enumerate().all(|(i, n)| n.index() == i)
    }
}

/// The communication-weighted interaction graph of an aggregated program:
/// each burst block adds **one** unit of weight between its burst qubit
/// and every partner qubit (the block rides one burst communication
/// regardless of how many remote gates it carries), while local multi-qubit
/// gates keep their raw per-gate counts (splitting a local pair *creates*
/// remote gates, so their full weight must keep them together).
///
/// This is the post-aggregation re-weighting the placement loop feeds OEE:
/// raw gate counts overweight pairs whose gates merge into few
/// communications. [`InteractionGraph::from_circuit`] remains the
/// documented raw-gate fallback for circuits that have not been aggregated
/// yet.
pub fn comm_weighted_graph(program: &AggregatedProgram) -> InteractionGraph {
    let table = program.ir().table();
    let mut g = InteractionGraph::new(program.ir().num_qubits());
    // `seen[x] == stamp`: qubit `x` already partners the current block.
    let mut seen = vec![0u32; program.ir().num_qubits()];
    let mut stamp = 0u32;
    for item in program.items() {
        match item {
            Item::Local(id) => {
                let gate = program.ir().gate(*id);
                if !gate.kind().is_unitary() || gate.num_qubits() < 2 {
                    continue;
                }
                let qs = gate.qubits();
                for i in 0..qs.len() {
                    for j in i + 1..qs.len() {
                        g.add_weight(qs[i], qs[j], 1);
                    }
                }
            }
            Item::Block(k) => {
                let block = program.block(*k);
                let q = block.qubit();
                stamp += 1;
                for &id in block.ids() {
                    for x in table.qubit_indices(id) {
                        if x != q.index() && seen[x] != stamp {
                            seen[x] = stamp;
                            g.add_weight(q, QubitId::new(x), 1);
                        }
                    }
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{aggregate, AggregateOptions};
    use dqc_circuit::{Circuit, Gate};

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn identity_placement_is_transparent() {
        let p = Partition::block(6, 3).unwrap();
        let placement = Placement::identity(&p);
        assert!(placement.is_identity());
        assert_eq!(placement.partition(), &p);
        assert_eq!(placement.physical_partition(), &p);
        assert_eq!(placement.physical_of(n(2)), n(2));
        assert_eq!(placement.physical_node_of(q(5)), p.node_of(q(5)));
    }

    #[test]
    fn permuted_placement_composes() {
        let p = Partition::block(6, 3).unwrap();
        let placement = Placement::new(p.clone(), vec![n(2), n(0), n(1)]).unwrap();
        assert!(!placement.is_identity());
        // Qubit 0 is in block 0, which lands on physical node 2.
        assert_eq!(placement.physical_node_of(q(0)), n(2));
        assert_eq!(placement.physical_node_of(q(2)), n(0));
        assert_eq!(placement.physical_node_of(q(4)), n(1));
        // Remote-ness is invariant under the relabeling.
        let g = Gate::cx(q(0), q(2));
        assert_eq!(p.is_remote(&g), placement.physical_partition().is_remote(&g));
    }

    #[test]
    fn invalid_maps_are_rejected() {
        let p = Partition::block(4, 2).unwrap();
        let short = Placement::new(p.clone(), vec![n(0)]);
        assert!(matches!(short, Err(CompileError::InvalidPlacement { .. })));
        let dup = Placement::new(p.clone(), vec![n(1), n(1)]);
        assert!(matches!(dup, Err(CompileError::InvalidPlacement { .. })));
        // Validation must not allocate proportionally to the largest index
        // (an absurd NodeId is rejected or accepted cheaply, never OOMed).
        let huge = Placement::new(p, vec![n(1 << 40), n(1 << 40)]);
        assert!(matches!(huge, Err(CompileError::InvalidPlacement { .. })));
    }

    #[test]
    fn comm_weighted_graph_counts_blocks_not_gates() {
        let p = Partition::block(4, 2).unwrap();
        let mut c = Circuit::new(4);
        // Five remote CXs between q0 and node 1 → one burst block.
        for _ in 0..5 {
            c.push(Gate::cx(q(0), q(2))).unwrap();
        }
        // Three local CXs stay at raw weight.
        for _ in 0..3 {
            c.push(Gate::cx(q(2), q(3))).unwrap();
        }
        let agg = aggregate(&c, &p, AggregateOptions::default());
        let g = comm_weighted_graph(&agg);
        assert_eq!(g.weight(q(0), q(2)), 1, "one block, one unit");
        assert_eq!(g.weight(q(2), q(3)), 3, "local gates keep raw counts");
        let raw = InteractionGraph::from_circuit(&c);
        assert_eq!(raw.weight(q(0), q(2)), 5, "the raw fallback counts gates");
    }
}
