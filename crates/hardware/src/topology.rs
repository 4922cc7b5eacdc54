//! Explicit interconnect topology of a modular quantum machine.
//!
//! The AutoComm paper assumes all-to-all EPR connectivity (§3); real
//! modular machines expose sparse link graphs where non-adjacent nodes
//! communicate through *entanglement swapping* along a routed path.
//! [`NetworkTopology`] makes that a first-class, pluggable layer:
//!
//! * a link graph over nodes, each link with an EPR-generation latency
//!   factor (multiplier on [`crate::LatencyModel::t_epr`]) and a capacity
//!   (concurrent EPR generations the link sustains);
//! * all-pairs shortest-path routing tables (weighted by latency factor,
//!   ties broken by hop count then lowest relay index, so routes are
//!   deterministic);
//! * standard constructors ([`NetworkTopology::all_to_all`],
//!   [`NetworkTopology::linear`], [`NetworkTopology::ring`],
//!   [`NetworkTopology::grid`], [`NetworkTopology::star`]) plus a small
//!   text format ([`NetworkTopology::from_text`]) and CLI-facing spec
//!   strings ([`NetworkTopology::parse_spec`]).
//!
//! `all_to_all` links carry unbounded capacity so that the topology layer
//! adds *no* constraint beyond per-node communication qubits — the
//! refactor's safety rail is that compiling against
//! `NetworkTopology::all_to_all(n)` is bit-identical to the historical
//! fully-connected model.

use std::fmt;

use dqc_circuit::NodeId;

use crate::HardwareError;

/// One undirected interconnect link between two nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Lower-indexed endpoint.
    pub a: NodeId,
    /// Higher-indexed endpoint.
    pub b: NodeId,
    /// Multiplier on the machine's base EPR preparation latency `t_epr`
    /// for pairs generated across this link (default 1.0).
    pub latency_factor: f64,
    /// Concurrent EPR generations the link sustains; `None` = unbounded
    /// (contention is then limited only by comm-qubit slots).
    pub capacity: Option<usize>,
}

impl Link {
    /// A link between `a` and `b` with default latency and unit capacity.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        let (a, b) = if a.index() <= b.index() { (a, b) } else { (b, a) };
        Link { a, b, latency_factor: 1.0, capacity: Some(1) }
    }

    /// Overrides the latency factor.
    #[must_use]
    pub fn with_latency_factor(mut self, f: f64) -> Self {
        self.latency_factor = f;
        self
    }

    /// Overrides the capacity (`None` = unbounded).
    #[must_use]
    pub fn with_capacity(mut self, c: Option<usize>) -> Self {
        self.capacity = c;
        self
    }
}

const UNREACHABLE: u32 = u32::MAX;

/// The interconnect link graph with precomputed shortest-path routing.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkTopology {
    name: String,
    num_nodes: usize,
    links: Vec<Link>,
    /// Flat `n×n` matrix: link index between `i` and `j`, or `UNREACHABLE`.
    link_of: Vec<u32>,
    /// Flat `n×n` weighted distance (sum of latency factors; `INFINITY` when
    /// unreachable).
    dist: Vec<f64>,
    /// Flat `n×n` hop counts.
    hops: Vec<u32>,
    /// Flat `n×n` next-hop node on the route `i → j`.
    next: Vec<u32>,
}

impl NetworkTopology {
    /// The paper's fully connected interconnect: every node pair shares a
    /// direct link with unbounded capacity, so only per-node communication
    /// qubits constrain concurrency. Compiling against this topology is
    /// bit-identical to the historical implicit all-to-all model.
    pub fn all_to_all(num_nodes: usize) -> Self {
        let mut links = Vec::new();
        for a in 0..num_nodes {
            for b in (a + 1)..num_nodes {
                links.push(Link::new(NodeId::new(a), NodeId::new(b)).with_capacity(None));
            }
        }
        NetworkTopology::from_links("all-to-all", num_nodes, links)
            .expect("all-to-all is always a valid topology")
    }

    /// A chain `0 – 1 – … – n-1`.
    ///
    /// # Errors
    ///
    /// [`HardwareError::ZeroNodes`] when `num_nodes` is zero.
    pub fn linear(num_nodes: usize) -> Result<Self, HardwareError> {
        if num_nodes == 0 {
            return Err(HardwareError::ZeroNodes);
        }
        let links = (1..num_nodes).map(|i| Link::new(NodeId::new(i - 1), NodeId::new(i))).collect();
        NetworkTopology::from_links("linear", num_nodes, links)
    }

    /// A cycle `0 – 1 – … – n-1 – 0`.
    ///
    /// # Errors
    ///
    /// [`HardwareError::ZeroNodes`] when `num_nodes` is zero;
    /// [`HardwareError::InvalidLink`] when `num_nodes < 3` (a 2-cycle would
    /// duplicate its only link).
    pub fn ring(num_nodes: usize) -> Result<Self, HardwareError> {
        if num_nodes == 0 {
            return Err(HardwareError::ZeroNodes);
        }
        if num_nodes < 3 {
            return Err(HardwareError::InvalidLink {
                a: 0,
                b: num_nodes - 1,
                reason: "a ring needs at least three nodes",
            });
        }
        let mut links: Vec<Link> =
            (1..num_nodes).map(|i| Link::new(NodeId::new(i - 1), NodeId::new(i))).collect();
        links.push(Link::new(NodeId::new(num_nodes - 1), NodeId::new(0)));
        NetworkTopology::from_links("ring", num_nodes, links)
    }

    /// A `rows × cols` mesh with nearest-neighbour links.
    ///
    /// # Errors
    ///
    /// [`HardwareError::ZeroNodes`] when either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Result<Self, HardwareError> {
        if rows == 0 || cols == 0 {
            return Err(HardwareError::ZeroNodes);
        }
        let at = |r: usize, c: usize| NodeId::new(r * cols + c);
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    links.push(Link::new(at(r, c), at(r, c + 1)));
                }
                if r + 1 < rows {
                    links.push(Link::new(at(r, c), at(r + 1, c)));
                }
            }
        }
        NetworkTopology::from_links(&format!("grid:{rows}x{cols}"), rows * cols, links)
    }

    /// A hub-and-spoke star: node 0 links to every other node.
    ///
    /// # Errors
    ///
    /// [`HardwareError::ZeroNodes`] when `num_nodes` is zero.
    pub fn star(num_nodes: usize) -> Result<Self, HardwareError> {
        if num_nodes == 0 {
            return Err(HardwareError::ZeroNodes);
        }
        let links = (1..num_nodes).map(|i| Link::new(NodeId::new(0), NodeId::new(i))).collect();
        NetworkTopology::from_links("star", num_nodes, links)
    }

    /// Builds a topology from an explicit link list, validating endpoints
    /// and precomputing the routing tables.
    ///
    /// # Errors
    ///
    /// [`HardwareError::InvalidLink`] for self-loops, out-of-range
    /// endpoints, duplicate links, or non-positive latency factors.
    pub fn from_links(
        name: &str,
        num_nodes: usize,
        links: Vec<Link>,
    ) -> Result<Self, HardwareError> {
        let mut link_of = vec![UNREACHABLE; num_nodes * num_nodes];
        for (idx, link) in links.iter().enumerate() {
            let (a, b) = (link.a.index(), link.b.index());
            if a == b {
                return Err(HardwareError::InvalidLink { a, b, reason: "self-loop" });
            }
            if a >= num_nodes || b >= num_nodes {
                return Err(HardwareError::InvalidLink { a, b, reason: "endpoint out of range" });
            }
            if link.latency_factor <= 0.0 || link.latency_factor.is_nan() {
                return Err(HardwareError::InvalidLink {
                    a,
                    b,
                    reason: "latency factor must be positive",
                });
            }
            if link.capacity == Some(0) {
                return Err(HardwareError::InvalidLink {
                    a,
                    b,
                    reason: "capacity must be positive (omit for unbounded)",
                });
            }
            if link_of[a * num_nodes + b] != UNREACHABLE {
                return Err(HardwareError::InvalidLink { a, b, reason: "duplicate link" });
            }
            link_of[a * num_nodes + b] = idx as u32;
            link_of[b * num_nodes + a] = idx as u32;
        }
        let mut t = NetworkTopology {
            name: name.to_owned(),
            num_nodes,
            links,
            link_of,
            dist: Vec::new(),
            hops: Vec::new(),
            next: Vec::new(),
        };
        t.build_routes();
        Ok(t)
    }

    /// Floyd–Warshall over latency factors with deterministic tie-breaking:
    /// lower weighted distance wins; ties prefer fewer hops, then the
    /// lowest-indexed relay (fixed by iteration order).
    fn build_routes(&mut self) {
        let n = self.num_nodes;
        let mut dist = vec![f64::INFINITY; n * n];
        let mut hops = vec![UNREACHABLE; n * n];
        let mut next = vec![UNREACHABLE; n * n];
        for i in 0..n {
            dist[i * n + i] = 0.0;
            hops[i * n + i] = 0;
            next[i * n + i] = i as u32;
        }
        for link in &self.links {
            let (a, b) = (link.a.index(), link.b.index());
            dist[a * n + b] = link.latency_factor;
            dist[b * n + a] = link.latency_factor;
            hops[a * n + b] = 1;
            hops[b * n + a] = 1;
            next[a * n + b] = b as u32;
            next[b * n + a] = a as u32;
        }
        const EPS: f64 = 1e-12;
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let dkj = dist[k * n + j];
                    if !dkj.is_finite() {
                        continue;
                    }
                    let cand = dik + dkj;
                    let cand_hops = hops[i * n + k].saturating_add(hops[k * n + j]);
                    let cur = dist[i * n + j];
                    let better = cand < cur - EPS
                        || ((cand - cur).abs() <= EPS && cand_hops < hops[i * n + j]);
                    if better {
                        dist[i * n + j] = cand;
                        hops[i * n + j] = cand_hops;
                        next[i * n + j] = next[i * n + k];
                    }
                }
            }
        }
        self.dist = dist;
        self.hops = hops;
        self.next = next;
    }

    /// Whether `spec` is one of the names [`NetworkTopology::parse_spec`]
    /// understands (a `grid:` prefix counts; its dimensions are checked
    /// when the spec is parsed against a node count). Anything else can
    /// only be a topology file path.
    pub fn is_named_spec(spec: &str) -> bool {
        matches!(
            spec,
            "all-to-all"
                | "all_to_all"
                | "full"
                | "linear"
                | "line"
                | "chain"
                | "ring"
                | "cycle"
                | "star"
                | "grid"
        ) || spec.starts_with("grid:")
    }

    /// Parses a CLI-facing topology spec string for a machine of
    /// `num_nodes` nodes: `all-to-all`, `linear`, `ring`, `star`, `grid`
    /// (most-square factorization of `num_nodes`), or `grid:RxC`.
    ///
    /// # Errors
    ///
    /// [`HardwareError::Parse`] for unknown names or a `grid:RxC` whose
    /// area disagrees with `num_nodes`; constructor errors pass through.
    pub fn parse_spec(spec: &str, num_nodes: usize) -> Result<Self, HardwareError> {
        let bad = |message: String| HardwareError::Parse { line: 0, message };
        match spec {
            "all-to-all" | "all_to_all" | "full" => Ok(NetworkTopology::all_to_all(num_nodes)),
            "linear" | "line" | "chain" => NetworkTopology::linear(num_nodes),
            "ring" | "cycle" => NetworkTopology::ring(num_nodes),
            "star" => NetworkTopology::star(num_nodes),
            "grid" => {
                // Most-square exact factorization (degenerates to linear
                // when num_nodes is prime).
                let mut rows = 1;
                for r in 1..=num_nodes {
                    if r * r > num_nodes {
                        break;
                    }
                    if num_nodes.is_multiple_of(r) {
                        rows = r;
                    }
                }
                NetworkTopology::grid(rows, num_nodes / rows)
            }
            other => {
                if let Some(dims) = other.strip_prefix("grid:") {
                    let (r, c) = dims
                        .split_once(['x', 'X'])
                        .ok_or_else(|| bad(format!("expected grid:RxC, got '{other}'")))?;
                    let rows = r
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad(format!("grid rows '{r}' is not a number")))?;
                    let cols = c
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad(format!("grid cols '{c}' is not a number")))?;
                    if rows * cols != num_nodes {
                        return Err(bad(format!(
                            "grid:{rows}x{cols} covers {} nodes but the machine has {num_nodes}",
                            rows * cols
                        )));
                    }
                    NetworkTopology::grid(rows, cols)
                } else {
                    Err(bad(format!(
                        "unknown topology '{other}' (expected all-to-all, linear, ring, star, \
                         grid, grid:RxC, or a topology file path)"
                    )))
                }
            }
        }
    }

    /// Parses the topology file format: a `nodes <N>` line followed by
    /// `link <a> <b> [latency=<F>] [capacity=<K|inf>]` lines; `#` starts a
    /// comment.
    ///
    /// ```text
    /// # a 4-node chain with one slow long-haul link
    /// nodes 4
    /// link 0 1
    /// link 1 2 latency=2.5 capacity=2
    /// link 2 3
    /// ```
    ///
    /// # Errors
    ///
    /// [`HardwareError::Parse`] naming the offending line.
    pub fn from_text(text: &str) -> Result<Self, HardwareError> {
        let mut num_nodes: Option<usize> = None;
        let mut links = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let bad = |message: String| HardwareError::Parse { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut words = content.split_whitespace();
            match words.next() {
                Some("nodes") => {
                    let v = words.next().ok_or_else(|| bad("nodes needs a count".into()))?;
                    let n = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad(format!("'{v}' is not a positive node count")))?;
                    if num_nodes.replace(n).is_some() {
                        return Err(bad("duplicate 'nodes' line".into()));
                    }
                }
                Some("link") => {
                    let n = num_nodes
                        .ok_or_else(|| bad("'nodes <N>' must precede the first link".into()))?;
                    let parse_node = |w: Option<&str>| -> Result<NodeId, HardwareError> {
                        let v = w.ok_or_else(|| bad("link needs two endpoints".into()))?;
                        let i = v
                            .parse::<usize>()
                            .ok()
                            .filter(|&i| i < n)
                            .ok_or_else(|| bad(format!("'{v}' is not a node index < {n}")))?;
                        Ok(NodeId::new(i))
                    };
                    let a = parse_node(words.next())?;
                    let b = parse_node(words.next())?;
                    let mut link = Link::new(a, b);
                    for opt in words {
                        if let Some(v) = opt.strip_prefix("latency=") {
                            let f = v
                                .parse::<f64>()
                                .ok()
                                .filter(|f| *f > 0.0)
                                .ok_or_else(|| bad(format!("bad latency factor '{v}'")))?;
                            link = link.with_latency_factor(f);
                        } else if let Some(v) = opt.strip_prefix("capacity=") {
                            let c = if v == "inf" {
                                None
                            } else {
                                Some(v.parse::<usize>().ok().filter(|&c| c > 0).ok_or_else(
                                    || bad(format!("bad capacity '{v}' (positive int or inf)")),
                                )?)
                            };
                            link = link.with_capacity(c);
                        } else {
                            return Err(bad(format!("unknown link option '{opt}'")));
                        }
                    }
                    links.push(link);
                }
                Some(other) => {
                    return Err(bad(format!("unknown directive '{other}'")));
                }
                None => unreachable!("blank lines were skipped"),
            }
        }
        let num_nodes = num_nodes
            .ok_or(HardwareError::Parse { line: 0, message: "missing 'nodes <N>'".into() })?;
        NetworkTopology::from_links("file", num_nodes, links)
    }

    /// The topology's display name (`all-to-all`, `linear`, `grid:2x3`,
    /// `file`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The links, in construction order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Index into [`NetworkTopology::links`] of the direct link between `a`
    /// and `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let i = self.link_of[a.index() * self.num_nodes + b.index()];
        (i != UNREACHABLE).then_some(i as usize)
    }

    /// Hop count of the routed path `a → b` (0 when `a == b`), or `None`
    /// when the nodes are disconnected.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let h = self.hops[a.index() * self.num_nodes + b.index()];
        (h != UNREACHABLE).then_some(h as usize)
    }

    /// Sum of latency factors along the routed path `a → b` (the path's
    /// EPR-generation weight), or `None` when disconnected.
    pub fn route_weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let d = self.dist[a.index() * self.num_nodes + b.index()];
        d.is_finite().then_some(d)
    }

    /// The routed node sequence `a, …, b` (just `[a]` when `a == b`), or
    /// `None` when disconnected.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        Some(self.route(a, b)?.collect())
    }

    /// [`NetworkTopology::path`] as an iterator, for callers that walk the
    /// route without keeping it.
    pub(crate) fn route(&self, a: NodeId, b: NodeId) -> Option<impl Iterator<Item = NodeId> + '_> {
        self.hop_distance(a, b)?;
        let mut next = Some(a);
        Some(std::iter::from_fn(move || {
            let cur = next?;
            next = (cur != b)
                .then(|| NodeId::new(self.next[cur.index() * self.num_nodes + b.index()] as usize));
            Some(cur)
        }))
    }

    /// Whether every node pair has a route.
    pub fn is_connected(&self) -> bool {
        self.diameter().is_some()
    }

    /// The largest hop distance over all node pairs (`Some(0)` for a
    /// single-node machine, `None` when disconnected).
    pub fn diameter(&self) -> Option<usize> {
        let mut max = 0usize;
        for a in 0..self.num_nodes {
            for b in (a + 1)..self.num_nodes {
                max = max.max(self.hop_distance(NodeId::new(a), NodeId::new(b))?);
            }
        }
        Some(max)
    }

    /// Whether routing ever needs an intermediate relay (diameter > 1).
    pub fn needs_relays(&self) -> bool {
        self.diameter().map(|d| d > 1).unwrap_or(true)
    }
}

impl fmt::Display for NetworkTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} nodes, {} links)", self.name, self.num_nodes, self.links.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn all_to_all_is_diameter_one() {
        let t = NetworkTopology::all_to_all(5);
        assert_eq!(t.links().len(), 10);
        assert_eq!(t.diameter(), Some(1));
        assert!(!t.needs_relays());
        assert_eq!(t.path(n(0), n(4)), Some(vec![n(0), n(4)]));
        assert_eq!(t.links()[0].capacity, None, "all-to-all links are uncontended");
    }

    #[test]
    fn linear_routes_through_the_chain() {
        let t = NetworkTopology::linear(4).unwrap();
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.hop_distance(n(0), n(3)), Some(3));
        assert_eq!(t.path(n(0), n(3)), Some(vec![n(0), n(1), n(2), n(3)]));
        assert_eq!(t.path(n(3), n(0)), Some(vec![n(3), n(2), n(1), n(0)]));
        assert_eq!(t.diameter(), Some(3));
        assert_eq!(t.link_between(n(1), n(2)), t.link_between(n(2), n(1)));
        assert_eq!(t.link_between(n(0), n(2)), None);
    }

    #[test]
    fn ring_takes_the_short_way_round() {
        let t = NetworkTopology::ring(6).unwrap();
        assert_eq!(t.hop_distance(n(0), n(5)), Some(1));
        assert_eq!(t.hop_distance(n(0), n(3)), Some(3));
        assert_eq!(t.diameter(), Some(3));
        assert!(NetworkTopology::ring(2).is_err());
    }

    #[test]
    fn grid_and_star_shapes() {
        let g = NetworkTopology::grid(2, 3).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.links().len(), 7);
        assert_eq!(g.hop_distance(n(0), n(5)), Some(3));
        let s = NetworkTopology::star(5).unwrap();
        assert_eq!(s.hop_distance(n(1), n(4)), Some(2));
        assert_eq!(s.path(n(1), n(4)), Some(vec![n(1), n(0), n(4)]));
        assert_eq!(s.diameter(), Some(2));
    }

    #[test]
    fn weighted_routing_prefers_the_cheap_path() {
        // Triangle where the direct 0–2 link is slower than relaying via 1.
        let links = vec![
            Link::new(n(0), n(1)),
            Link::new(n(1), n(2)),
            Link::new(n(0), n(2)).with_latency_factor(3.0),
        ];
        let t = NetworkTopology::from_links("custom", 3, links).unwrap();
        assert_eq!(t.path(n(0), n(2)), Some(vec![n(0), n(1), n(2)]));
        assert!((t.route_weight(n(0), n(2)).unwrap() - 2.0).abs() < 1e-12);
        // Equal weights prefer fewer hops.
        let links = vec![
            Link::new(n(0), n(1)),
            Link::new(n(1), n(2)),
            Link::new(n(0), n(2)).with_latency_factor(2.0),
        ];
        let t = NetworkTopology::from_links("custom", 3, links).unwrap();
        assert_eq!(t.path(n(0), n(2)), Some(vec![n(0), n(2)]));
    }

    #[test]
    fn invalid_links_are_rejected() {
        let loops = vec![Link::new(n(1), n(1))];
        assert!(matches!(
            NetworkTopology::from_links("x", 3, loops),
            Err(HardwareError::InvalidLink { reason: "self-loop", .. })
        ));
        let oob = vec![Link::new(n(0), n(9))];
        assert!(NetworkTopology::from_links("x", 3, oob).is_err());
        let dup = vec![Link::new(n(0), n(1)), Link::new(n(1), n(0))];
        assert!(matches!(
            NetworkTopology::from_links("x", 3, dup),
            Err(HardwareError::InvalidLink { reason: "duplicate link", .. })
        ));
        let zero_cap = vec![Link::new(n(0), n(1)).with_capacity(Some(0))];
        assert!(NetworkTopology::from_links("x", 3, zero_cap).is_err());
    }

    #[test]
    fn disconnected_pairs_have_no_route() {
        let t = NetworkTopology::from_links("x", 4, vec![Link::new(n(0), n(1))]).unwrap();
        assert!(!t.is_connected());
        assert_eq!(t.hop_distance(n(0), n(2)), None);
        assert_eq!(t.path(n(0), n(2)), None);
        assert_eq!(t.diameter(), None);
    }

    #[test]
    fn spec_strings_parse() {
        assert_eq!(NetworkTopology::parse_spec("all-to-all", 4).unwrap().diameter(), Some(1));
        assert_eq!(NetworkTopology::parse_spec("linear", 4).unwrap().diameter(), Some(3));
        assert_eq!(NetworkTopology::parse_spec("ring", 4).unwrap().diameter(), Some(2));
        assert_eq!(NetworkTopology::parse_spec("star", 4).unwrap().diameter(), Some(2));
        let g = NetworkTopology::parse_spec("grid", 6).unwrap();
        assert_eq!(g.name(), "grid:2x3");
        assert_eq!(NetworkTopology::parse_spec("grid:2x2", 4).unwrap().num_nodes(), 4);
        assert!(NetworkTopology::parse_spec("grid:2x3", 4).is_err());
        assert!(NetworkTopology::parse_spec("moebius", 4).is_err());
    }

    #[test]
    fn named_specs_are_exactly_the_parseable_names() {
        for name in [
            "all-to-all",
            "all_to_all",
            "full",
            "linear",
            "line",
            "chain",
            "ring",
            "cycle",
            "star",
            "grid",
            "grid:2x2",
        ] {
            assert!(NetworkTopology::is_named_spec(name), "{name}");
            assert!(NetworkTopology::parse_spec(name, 4).is_ok(), "{name}");
        }
        for other in ["moebius", "/tmp/t.txt", "topo.txt", "Linear", ""] {
            assert!(!NetworkTopology::is_named_spec(other), "{other}");
            assert!(NetworkTopology::parse_spec(other, 4).is_err(), "{other}");
        }
    }

    #[test]
    fn file_format_round_trips() {
        let text = "\
# comment line
nodes 4           # trailing comment
link 0 1
link 1 2 latency=2.5 capacity=2
link 2 3 capacity=inf
";
        let t = NetworkTopology::from_text(text).unwrap();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.links()[1].latency_factor, 2.5);
        assert_eq!(t.links()[1].capacity, Some(2));
        assert_eq!(t.links()[2].capacity, None);
        assert_eq!(t.hop_distance(n(0), n(3)), Some(3));
    }

    #[test]
    fn file_format_rejects_malformed_input() {
        for (text, needle) in [
            ("link 0 1\n", "must precede"),
            ("nodes 0\n", "positive"),
            ("nodes 2\nnodes 3\n", "duplicate"),
            ("nodes 2\nlink 0 5\n", "node index"),
            ("nodes 2\nlink 0 1 latency=-1\n", "latency"),
            ("nodes 2\nlink 0 1 capacity=0\n", "capacity"),
            ("nodes 2\nlink 0 1 frob=1\n", "unknown link option"),
            ("frobnicate\n", "unknown directive"),
            ("", "missing"),
        ] {
            match NetworkTopology::from_text(text) {
                Err(HardwareError::Parse { message, .. }) => {
                    assert!(message.contains(needle), "for {text:?}: {message}");
                }
                other => panic!("{text:?} should fail to parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_node_machines_are_trivially_connected() {
        let t = NetworkTopology::all_to_all(1);
        assert_eq!(t.diameter(), Some(0));
        assert_eq!(t.path(n(0), n(0)), Some(vec![n(0)]));
        assert!(NetworkTopology::linear(1).unwrap().is_connected());
    }
}
