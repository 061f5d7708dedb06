//! Case specifications: the serializable description of one fuzz case.
//!
//! A [`CaseSpec`] pins everything a case needs to replay bit-identically:
//! scheme, optional sabotage mutation, queue capacity, fault plan,
//! workload, shard counts, partition strategy, and the lane count for
//! the lane-engine differential. Specs round-trip
//! through the one-line `fadr-fuzz/1` JSON schema (hand-rolled, like
//! `fadr-faults/1` — the build has no serde), which is what the
//! committed regression corpus stores.

use std::fmt::Write as _;
use std::str::FromStr;

use fadr_core::{
    AdaptiveSbp, EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive,
    MeshKDFullyAdaptive, MeshStaticHang, MeshXY, ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::test_fixtures::EcubeHypercube;
use fadr_qdg::{BufferClass, LinkKind, QueueId, RoutingFunction, Transition};
use fadr_sim::{FaultPlan, PartitionStrategy};
use fadr_topology::{NodeId, Port, RandomRegular, Topology};

/// Schema tag of the serialized form.
pub const SCHEMA: &str = "fadr-fuzz/1";

/// Which routing scheme (and instance size) a case runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeSpec {
    /// `HypercubeFullyAdaptive::new(dims)`.
    HypercubeFa {
        /// Cube dimensions.
        dims: usize,
    },
    /// `HypercubeStaticHang::new(dims)`.
    HypercubeHang {
        /// Cube dimensions.
        dims: usize,
    },
    /// `EcubeSbp::new(dims)`.
    EcubeSbp {
        /// Cube dimensions.
        dims: usize,
    },
    /// `MeshFullyAdaptive::new(width, height)`.
    MeshFa {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// `MeshStaticHang::new(width, height)`.
    MeshHang {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// `MeshXY::new(width, height)`.
    MeshXy {
        /// Mesh width.
        width: usize,
        /// Mesh height.
        height: usize,
    },
    /// `MeshKDFullyAdaptive::new(&extents)`.
    MeshKd {
        /// Per-dimension extents.
        extents: Vec<usize>,
    },
    /// `TorusTwoPhase::new(width, height)`.
    Torus {
        /// Torus width.
        width: usize,
        /// Torus height.
        height: usize,
    },
    /// `ShuffleExchangeRouting::new(dims)` (corrected provisioning).
    ShuffleExchange {
        /// Address bits.
        dims: usize,
    },
    /// `ShuffleExchangeRouting::paper_literal(dims)` — the § 6 text as
    /// printed; deadlock-prone for composite `dims`.
    ShuffleExchangePaper {
        /// Address bits.
        dims: usize,
    },
    /// Single-central-queue store-and-forward e-cube (cyclic QDG; the
    /// classic rejected baseline).
    EcubeStoreForward {
        /// Cube dimensions.
        dims: usize,
    },
    /// `AdaptiveSbp` over a seeded [`RandomRegular`] graph: the
    /// structure-free adversarial instance.
    SbpRandomRegular {
        /// Node count (even times degree).
        nodes: usize,
        /// Uniform degree.
        degree: usize,
        /// Draw seed.
        seed: u64,
    },
}

impl SchemeSpec {
    /// Number of nodes the instance will have.
    pub fn num_nodes(&self) -> usize {
        match self {
            Self::HypercubeFa { dims }
            | Self::HypercubeHang { dims }
            | Self::EcubeSbp { dims }
            | Self::ShuffleExchange { dims }
            | Self::ShuffleExchangePaper { dims }
            | Self::EcubeStoreForward { dims } => 1 << dims,
            Self::MeshFa { width, height }
            | Self::MeshHang { width, height }
            | Self::MeshXy { width, height }
            | Self::Torus { width, height } => width * height,
            Self::MeshKd { extents } => extents.iter().product(),
            Self::SbpRandomRegular { nodes, .. } => *nodes,
        }
    }

    /// JSON `kind` tag.
    fn kind(&self) -> &'static str {
        match self {
            Self::HypercubeFa { .. } => "hypercube-fa",
            Self::HypercubeHang { .. } => "hypercube-hang",
            Self::EcubeSbp { .. } => "ecube-sbp",
            Self::MeshFa { .. } => "mesh-fa",
            Self::MeshHang { .. } => "mesh-hang",
            Self::MeshXy { .. } => "mesh-xy",
            Self::MeshKd { .. } => "mesh-kd",
            Self::Torus { .. } => "torus",
            Self::ShuffleExchange { .. } => "shuffle-exchange",
            Self::ShuffleExchangePaper { .. } => "shuffle-exchange-paper",
            Self::EcubeStoreForward { .. } => "ecube-store-forward",
            Self::SbpRandomRegular { .. } => "sbp-random-regular",
        }
    }
}

/// How a case sabotages the scheme (the lint/certifier bug classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationSpec {
    /// Run the scheme as written.
    None,
    /// Demote every static link leaving `node`'s queues to dynamic
    /// (breaks § 2 condition 3 there).
    DemoteStatic(NodeId),
    /// Silence all transitions at `node` (a dead end).
    DropTransitions(NodeId),
    /// Report `classes` central classes without provisioning them
    /// (exercises the 8-bit class-id bound).
    InflateClasses(usize),
}

/// The case's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Static random backlog, `per_node` packets at every node.
    Static {
        /// Packets injected per node.
        per_node: usize,
    },
    /// Dynamic Bernoulli injection at `lambda_pct`/100 packets per node
    /// per cycle, for `cycles` routing cycles. (An integer percentage so
    /// the JSON round-trip is exact.)
    Dynamic {
        /// Injection rate in percent.
        lambda_pct: u8,
        /// Horizon in routing cycles.
        cycles: u64,
    },
}

/// Everything one fuzz case needs to replay exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Workload/engine seed.
    pub seed: u64,
    /// Scheme and instance.
    pub scheme: SchemeSpec,
    /// Sabotage applied to the scheme.
    pub mutation: MutationSpec,
    /// Central-queue capacity (0 deliberately wedges the network).
    pub queue_capacity: usize,
    /// Scheduled faults (possibly empty).
    pub faults: FaultPlan,
    /// The traffic to run.
    pub workload: WorkloadSpec,
    /// Shard counts the differential property sweeps.
    pub shards: Vec<usize>,
    /// Partition strategy for the sharded runs.
    pub strategy: PartitionStrategy,
    /// Lane count for the lane-engine differential (1 = skip it; corpus
    /// entries predating the axis parse as 1).
    pub lanes: usize,
}

impl CaseSpec {
    /// Serialize as one-line `fadr-fuzz/1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\": \"{SCHEMA}\", \"seed\": {}, \"scheme\": {{\"kind\": \"{}\"",
            self.seed,
            self.scheme.kind()
        );
        match &self.scheme {
            SchemeSpec::HypercubeFa { dims }
            | SchemeSpec::HypercubeHang { dims }
            | SchemeSpec::EcubeSbp { dims }
            | SchemeSpec::ShuffleExchange { dims }
            | SchemeSpec::ShuffleExchangePaper { dims }
            | SchemeSpec::EcubeStoreForward { dims } => {
                let _ = write!(out, ", \"dims\": {dims}");
            }
            SchemeSpec::MeshFa { width, height }
            | SchemeSpec::MeshHang { width, height }
            | SchemeSpec::MeshXy { width, height }
            | SchemeSpec::Torus { width, height } => {
                let _ = write!(out, ", \"width\": {width}, \"height\": {height}");
            }
            SchemeSpec::MeshKd { extents } => {
                out.push_str(", \"extents\": [");
                for (i, e) in extents.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{e}");
                }
                out.push(']');
            }
            SchemeSpec::SbpRandomRegular {
                nodes,
                degree,
                seed,
            } => {
                let _ = write!(
                    out,
                    ", \"nodes\": {nodes}, \"degree\": {degree}, \"seed\": {seed}"
                );
            }
        }
        out.push_str("}, \"mutation\": ");
        match self.mutation {
            MutationSpec::None => out.push_str("{\"kind\": \"none\"}"),
            MutationSpec::DemoteStatic(v) => {
                let _ = write!(out, "{{\"kind\": \"demote-static\", \"node\": {v}}}");
            }
            MutationSpec::DropTransitions(v) => {
                let _ = write!(out, "{{\"kind\": \"drop-transitions\", \"node\": {v}}}");
            }
            MutationSpec::InflateClasses(c) => {
                let _ = write!(out, "{{\"kind\": \"inflate-classes\", \"classes\": {c}}}");
            }
        }
        let _ = write!(
            out,
            ", \"queue_capacity\": {}, \"workload\": ",
            self.queue_capacity
        );
        match self.workload {
            WorkloadSpec::Static { per_node } => {
                let _ = write!(out, "{{\"kind\": \"static\", \"per_node\": {per_node}}}");
            }
            WorkloadSpec::Dynamic { lambda_pct, cycles } => {
                let _ = write!(
                    out,
                    "{{\"kind\": \"dynamic\", \"lambda_pct\": {lambda_pct}, \"cycles\": {cycles}}}"
                );
            }
        }
        out.push_str(", \"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{s}");
        }
        let _ = write!(
            out,
            "], \"strategy\": \"{}\", \"lanes\": {}, \"faults\": {}}}",
            self.strategy.name(),
            self.lanes,
            self.faults.to_json()
        );
        out
    }

    /// Parse a `fadr-fuzz/1` document (as produced by
    /// [`CaseSpec::to_json`], whitespace-insensitively).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let mut saw_schema = false;
        let mut seed = 0u64;
        let mut scheme = None;
        let mut mutation = MutationSpec::None;
        let mut queue_capacity = 64usize;
        let mut faults = FaultPlan::new(0, 0);
        let mut workload = None;
        let mut shards = Vec::new();
        let mut strategy = PartitionStrategy::Auto;
        let mut lanes = 1usize;
        p.expect(b'{')?;
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "schema" => {
                    let s = p.string()?;
                    if s != SCHEMA {
                        return Err(format!("unsupported schema '{s}'"));
                    }
                    saw_schema = true;
                }
                "seed" => seed = p.u64()?,
                "scheme" => scheme = Some(parse_scheme(&mut p)?),
                "mutation" => mutation = parse_mutation(&mut p)?,
                "queue_capacity" => queue_capacity = p.u64()? as usize,
                "workload" => workload = Some(parse_workload(&mut p)?),
                "shards" => {
                    p.expect(b'[')?;
                    loop {
                        p.skip_ws();
                        if p.eat(b']') {
                            break;
                        }
                        shards.push(p.u64()? as usize);
                        p.skip_ws();
                        let _ = p.eat(b',');
                    }
                }
                "strategy" => {
                    let s = p.string()?;
                    strategy = PartitionStrategy::from_str(&s)?;
                }
                "lanes" => lanes = p.u64()? as usize,
                "faults" => {
                    let obj = p.balanced_object()?;
                    faults = FaultPlan::parse(&obj)?;
                }
                other => return Err(format!("unknown key '{other}'")),
            }
            p.skip_ws();
            let _ = p.eat(b',');
        }
        p.skip_ws();
        if p.i != p.b.len() {
            return Err("trailing data after case spec".into());
        }
        if !saw_schema {
            return Err("missing schema tag".into());
        }
        let scheme = scheme.ok_or("missing scheme")?;
        let workload = workload.ok_or("missing workload")?;
        if shards.is_empty() {
            return Err("missing shards".into());
        }
        Ok(Self {
            seed,
            scheme,
            mutation,
            queue_capacity,
            faults,
            workload,
            shards,
            strategy,
            lanes,
        })
    }
}

fn parse_scheme(p: &mut Parser<'_>) -> Result<SchemeSpec, String> {
    let mut kind = String::new();
    let (mut dims, mut width, mut height) = (0usize, 0usize, 0usize);
    let (mut nodes, mut degree, mut seed) = (0usize, 0usize, 0u64);
    let mut extents = Vec::new();
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "kind" => kind = p.string()?,
            "dims" => dims = p.u64()? as usize,
            "width" => width = p.u64()? as usize,
            "height" => height = p.u64()? as usize,
            "nodes" => nodes = p.u64()? as usize,
            "degree" => degree = p.u64()? as usize,
            "seed" => seed = p.u64()?,
            "extents" => {
                p.expect(b'[')?;
                loop {
                    p.skip_ws();
                    if p.eat(b']') {
                        break;
                    }
                    extents.push(p.u64()? as usize);
                    p.skip_ws();
                    let _ = p.eat(b',');
                }
            }
            other => return Err(format!("unknown scheme key '{other}'")),
        }
        p.skip_ws();
        let _ = p.eat(b',');
    }
    Ok(match kind.as_str() {
        "hypercube-fa" => SchemeSpec::HypercubeFa { dims },
        "hypercube-hang" => SchemeSpec::HypercubeHang { dims },
        "ecube-sbp" => SchemeSpec::EcubeSbp { dims },
        "mesh-fa" => SchemeSpec::MeshFa { width, height },
        "mesh-hang" => SchemeSpec::MeshHang { width, height },
        "mesh-xy" => SchemeSpec::MeshXy { width, height },
        "mesh-kd" => SchemeSpec::MeshKd { extents },
        "torus" => SchemeSpec::Torus { width, height },
        "shuffle-exchange" => SchemeSpec::ShuffleExchange { dims },
        "shuffle-exchange-paper" => SchemeSpec::ShuffleExchangePaper { dims },
        "ecube-store-forward" => SchemeSpec::EcubeStoreForward { dims },
        "sbp-random-regular" => SchemeSpec::SbpRandomRegular {
            nodes,
            degree,
            seed,
        },
        other => return Err(format!("unknown scheme kind '{other}'")),
    })
}

fn parse_mutation(p: &mut Parser<'_>) -> Result<MutationSpec, String> {
    let mut kind = String::new();
    let mut node = 0usize;
    let mut classes = 0usize;
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "kind" => kind = p.string()?,
            "node" => node = p.u64()? as usize,
            "classes" => classes = p.u64()? as usize,
            other => return Err(format!("unknown mutation key '{other}'")),
        }
        p.skip_ws();
        let _ = p.eat(b',');
    }
    Ok(match kind.as_str() {
        "none" => MutationSpec::None,
        "demote-static" => MutationSpec::DemoteStatic(node),
        "drop-transitions" => MutationSpec::DropTransitions(node),
        "inflate-classes" => MutationSpec::InflateClasses(classes),
        other => return Err(format!("unknown mutation kind '{other}'")),
    })
}

fn parse_workload(p: &mut Parser<'_>) -> Result<WorkloadSpec, String> {
    let mut kind = String::new();
    let mut per_node = 0usize;
    let mut lambda_pct = 0u8;
    let mut cycles = 0u64;
    p.expect(b'{')?;
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "kind" => kind = p.string()?,
            "per_node" => per_node = p.u64()? as usize,
            "lambda_pct" => {
                lambda_pct = u8::try_from(p.u64()?).map_err(|_| "lambda_pct > 255".to_string())?;
            }
            "cycles" => cycles = p.u64()?,
            other => return Err(format!("unknown workload key '{other}'")),
        }
        p.skip_ws();
        let _ = p.eat(b',');
    }
    Ok(match kind.as_str() {
        "static" => WorkloadSpec::Static { per_node },
        "dynamic" => WorkloadSpec::Dynamic { lambda_pct, cycles },
        other => return Err(format!("unknown workload kind '{other}'")),
    })
}

/// Minimal JSON scanner (the `fadr-faults/1` idiom): enough for the flat
/// objects this schema uses, no external dependencies.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(c), self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        if !self.eat(b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            self.i += 1;
        }
        if self.i == self.b.len() {
            return Err("unterminated string".into());
        }
        let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.i += 1;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .expect("digits are utf8")
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// Consume one balanced `{...}` object and return its text (used to
    /// hand the nested fault plan to [`FaultPlan::parse`] verbatim; the
    /// schema has no strings containing braces).
    fn balanced_object(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.i;
        if !self.eat(b'{') {
            return Err(format!("expected object at byte {start}"));
        }
        let mut depth = 1usize;
        while self.i < self.b.len() && depth > 0 {
            match self.b[self.i] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            self.i += 1;
        }
        if depth > 0 {
            return Err("unterminated object".into());
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.i]).into_owned())
    }
}

// ---------------------------------------------------------------------
// Scheme construction
// ---------------------------------------------------------------------

/// A scheme sabotaged per [`MutationSpec`] (the lint parity suite's
/// wrapper, promoted to a library type so the fuzzer and its regression
/// corpus can replay mutations from JSON).
#[derive(Debug, Clone)]
pub struct Mutated<R: RoutingFunction> {
    inner: R,
    mutation: MutationSpec,
}

impl<R: RoutingFunction> Mutated<R> {
    /// Wrap `inner` with `mutation` (which may be [`MutationSpec::None`]).
    pub fn new(inner: R, mutation: MutationSpec) -> Self {
        Self { inner, mutation }
    }
}

impl<R: RoutingFunction> RoutingFunction for Mutated<R> {
    type Msg = R::Msg;

    fn topology(&self) -> &dyn Topology {
        self.inner.topology()
    }

    fn num_classes(&self) -> usize {
        match self.mutation {
            MutationSpec::InflateClasses(c) => c,
            _ => self.inner.num_classes(),
        }
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> Self::Msg {
        self.inner.initial_msg(src, dst)
    }

    fn destination(&self, msg: &Self::Msg) -> NodeId {
        self.inner.destination(msg)
    }

    fn deliverable(&self, node: NodeId, msg: &Self::Msg) -> bool {
        self.inner.deliverable(node, msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &Self::Msg,
        f: &mut dyn FnMut(Transition<Self::Msg>),
    ) {
        match self.mutation {
            MutationSpec::DropTransitions(node) if at.node == node => {}
            MutationSpec::DemoteStatic(node) if at.node == node => {
                self.inner.for_each_transition(at, msg, &mut |mut t| {
                    t.kind = LinkKind::Dynamic;
                    f(t);
                });
            }
            _ => self.inner.for_each_transition(at, msg, f),
        }
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.inner.buffer_classes(node, port)
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn max_hops(&self) -> usize {
        self.inner.max_hops()
    }

    fn name(&self) -> String {
        match self.mutation {
            MutationSpec::None => self.inner.name(),
            m => format!("{} [{m:?}]", self.inner.name()),
        }
    }
}

// Identity symmetry — sound for any scheme (the lint engine's default).
impl<R: RoutingFunction> Symmetry for Mutated<R> {}

/// Clonable wrapper around the store-and-forward e-cube fixture
/// ([`EcubeHypercube`] keeps no parameters, so cloning rebuilds it).
pub struct StoreForwardEcube {
    dims: usize,
    inner: EcubeHypercube,
}

impl StoreForwardEcube {
    /// Single-queue e-cube on the `dims`-cube.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            inner: EcubeHypercube::new(dims),
        }
    }
}

impl Clone for StoreForwardEcube {
    fn clone(&self) -> Self {
        Self::new(self.dims)
    }
}

impl RoutingFunction for StoreForwardEcube {
    type Msg = <EcubeHypercube as RoutingFunction>::Msg;

    fn topology(&self) -> &dyn Topology {
        self.inner.topology()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn initial_msg(&self, src: NodeId, dst: NodeId) -> Self::Msg {
        self.inner.initial_msg(src, dst)
    }

    fn destination(&self, msg: &Self::Msg) -> NodeId {
        self.inner.destination(msg)
    }

    fn deliverable(&self, node: NodeId, msg: &Self::Msg) -> bool {
        self.inner.deliverable(node, msg)
    }

    fn for_each_transition(
        &self,
        at: QueueId,
        msg: &Self::Msg,
        f: &mut dyn FnMut(Transition<Self::Msg>),
    ) {
        self.inner.for_each_transition(at, msg, f);
    }

    fn buffer_classes(&self, node: NodeId, port: Port) -> Vec<BufferClass> {
        self.inner.buffer_classes(node, port)
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn max_hops(&self) -> usize {
        self.inner.max_hops()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

impl Symmetry for StoreForwardEcube {}

/// Monomorphizing visitor over the scheme a spec names.
/// [`RoutingFunction`] is not object-safe (associated `Msg`), so case
/// execution is dispatched through this trait instead of `dyn`.
pub trait SchemeVisitor {
    /// Result of visiting.
    type Out;

    /// Called with the constructed (and possibly mutated) scheme.
    fn visit<R>(self, rf: Mutated<R>) -> Self::Out
    where
        R: Symmetry + Clone + Send + 'static,
        R::Msg: Send + fadr_sim::SnapshotMsg;
}

/// Build the scheme `spec` names, wrap it in [`Mutated`] per `mutation`,
/// and hand it to `v`.
pub fn with_scheme<V: SchemeVisitor>(spec: &SchemeSpec, mutation: MutationSpec, v: V) -> V::Out {
    match spec {
        SchemeSpec::HypercubeFa { dims } => {
            v.visit(Mutated::new(HypercubeFullyAdaptive::new(*dims), mutation))
        }
        SchemeSpec::HypercubeHang { dims } => {
            v.visit(Mutated::new(HypercubeStaticHang::new(*dims), mutation))
        }
        SchemeSpec::EcubeSbp { dims } => v.visit(Mutated::new(EcubeSbp::new(*dims), mutation)),
        SchemeSpec::MeshFa { width, height } => v.visit(Mutated::new(
            MeshFullyAdaptive::new(*width, *height),
            mutation,
        )),
        SchemeSpec::MeshHang { width, height } => {
            v.visit(Mutated::new(MeshStaticHang::new(*width, *height), mutation))
        }
        SchemeSpec::MeshXy { width, height } => {
            v.visit(Mutated::new(MeshXY::new(*width, *height), mutation))
        }
        SchemeSpec::MeshKd { extents } => {
            v.visit(Mutated::new(MeshKDFullyAdaptive::new(extents), mutation))
        }
        SchemeSpec::Torus { width, height } => {
            v.visit(Mutated::new(TorusTwoPhase::new(*width, *height), mutation))
        }
        SchemeSpec::ShuffleExchange { dims } => {
            v.visit(Mutated::new(ShuffleExchangeRouting::new(*dims), mutation))
        }
        SchemeSpec::ShuffleExchangePaper { dims } => v.visit(Mutated::new(
            ShuffleExchangeRouting::paper_literal(*dims),
            mutation,
        )),
        SchemeSpec::EcubeStoreForward { dims } => {
            v.visit(Mutated::new(StoreForwardEcube::new(*dims), mutation))
        }
        SchemeSpec::SbpRandomRegular {
            nodes,
            degree,
            seed,
        } => v.visit(Mutated::new(
            AdaptiveSbp::new(RandomRegular::new(*nodes, *degree, *seed)),
            mutation,
        )),
    }
}
