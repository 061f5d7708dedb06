//! Case specifications: the serializable description of one fuzz case.
//!
//! A [`CaseSpec`] pins everything a case needs to replay bit-identically:
//! scheme, optional sabotage mutation, queue capacity, fault plan,
//! workload, shard counts, partition strategy, and the lane count for
//! the lane-engine differential. Specs round-trip
//! through the one-line `fadr-fuzz/1` JSON schema, read and written
//! with the workspace's one [`json`] module like `fadr-faults/1`,
//! which is what the committed regression corpus stores.

use std::fmt::Write as _;
use std::str::FromStr;

use fadr_sim::json::{self, Quoted, Reader};

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
            "{{\"schema\": {}, \"seed\": {}, \"scheme\": {{\"kind\": {}",
            Quoted(SCHEMA),
            self.seed,
            Quoted(self.scheme.kind())
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
                out.push_str(", \"extents\": ");
                json::list(&mut out, extents, |out, e| write!(out, "{e}"));
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
        out.push_str(", \"shards\": ");
        json::list(&mut out, &self.shards, |out, s| write!(out, "{s}"));
        let _ = write!(
            out,
            ", \"strategy\": {}, \"lanes\": {}, \"faults\": {}}}",
            Quoted(self.strategy.name()),
            self.lanes,
            self.faults.to_json()
        );
        out
    }

    /// Parse a `fadr-fuzz/1` document (as produced by
    /// [`CaseSpec::to_json`]). The scheme, mutation and workload objects
    /// each take exactly the keys their kind lists; `seed` (0),
    /// `mutation` (none), `queue_capacity` (64), `strategy` (auto),
    /// `lanes` (1) and `faults` (empty) may be left out.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<Self, String> {
        const KEYS: [&str; 10] = [
            "schema",
            "seed",
            "scheme",
            "mutation",
            "queue_capacity",
            "workload",
            "shards",
            "strategy",
            "lanes",
            "faults",
        ];
        let mut spec = Self {
            seed: 0,
            // Placeholders: "scheme" and "workload" are required.
            scheme: SchemeSpec::HypercubeFa { dims: 0 },
            mutation: MutationSpec::None,
            queue_capacity: 64,
            faults: FaultPlan::new(0, 0),
            workload: WorkloadSpec::Static { per_node: 0 },
            shards: Vec::new(),
            strategy: PartitionStrategy::Auto,
            lanes: 1,
        };
        let mut r = Reader::new(text);
        let seen = r.object(&KEYS, |slot, r| {
            match KEYS[slot] {
                "schema" => {
                    let s = r.str()?;
                    if s != SCHEMA {
                        return Err(format!("unsupported schema {s:?}"));
                    }
                }
                "seed" => spec.seed = r.u64()?,
                "scheme" => spec.scheme = read_scheme(r)?,
                "mutation" => spec.mutation = read_mutation(r)?,
                "queue_capacity" => spec.queue_capacity = r.u64()? as usize,
                "workload" => spec.workload = read_workload(r)?,
                "shards" => r.array(|r| {
                    spec.shards.push(r.u64()? as usize);
                    Ok(())
                })?,
                "strategy" => spec.strategy = PartitionStrategy::from_str(r.str()?)?,
                "lanes" => spec.lanes = r.u64()? as usize,
                _ => spec.faults = FaultPlan::read(r)?,
            }
            Ok(())
        })?;
        r.end()?;
        if let Some(key) = ["schema", "scheme", "workload"]
            .into_iter()
            .find(|k| !seen.has(k))
        {
            return Err(format!("missing {key:?}"));
        }
        if spec.shards.is_empty() {
            return Err("missing shards".into());
        }
        Ok(spec)
    }
}

fn read_scheme(r: &mut Reader<'_>) -> Result<SchemeSpec, String> {
    const KEYS: [&str; 8] = [
        "kind", "dims", "width", "height", "nodes", "degree", "seed", "extents",
    ];
    const DIMS: &[&str] = &["kind", "dims"];
    const SIDES: &[&str] = &["kind", "width", "height"];
    let mut kind = None;
    let mut vals = [0u64; KEYS.len()];
    let mut extents = Vec::new();
    let seen = r.object(&KEYS, |slot, r| {
        match KEYS[slot] {
            "kind" => kind = Some(r.str()?),
            "extents" => r.array(|r| {
                extents.push(r.u64()? as usize);
                Ok(())
            })?,
            _ => vals[slot] = r.u64()?,
        }
        Ok(())
    })?;
    let kind = kind.ok_or("scheme missing \"kind\"")?;
    let [_, dims, width, height, nodes, degree, _, _] = vals.map(|v| v as usize);
    let (spec, takes) = match kind {
        "hypercube-fa" => (SchemeSpec::HypercubeFa { dims }, DIMS),
        "hypercube-hang" => (SchemeSpec::HypercubeHang { dims }, DIMS),
        "ecube-sbp" => (SchemeSpec::EcubeSbp { dims }, DIMS),
        "mesh-fa" => (SchemeSpec::MeshFa { width, height }, SIDES),
        "mesh-hang" => (SchemeSpec::MeshHang { width, height }, SIDES),
        "mesh-xy" => (SchemeSpec::MeshXy { width, height }, SIDES),
        "mesh-kd" => (SchemeSpec::MeshKd { extents }, &["kind", "extents"][..]),
        "torus" => (SchemeSpec::Torus { width, height }, SIDES),
        "shuffle-exchange" => (SchemeSpec::ShuffleExchange { dims }, DIMS),
        "shuffle-exchange-paper" => (SchemeSpec::ShuffleExchangePaper { dims }, DIMS),
        "ecube-store-forward" => (SchemeSpec::EcubeStoreForward { dims }, DIMS),
        "sbp-random-regular" => (
            SchemeSpec::SbpRandomRegular {
                nodes,
                degree,
                seed: vals[6],
            },
            &["kind", "nodes", "degree", "seed"][..],
        ),
        other => return Err(format!("unknown scheme kind {other:?}")),
    };
    seen.exactly(takes, format_args!("scheme {kind:?}"))?;
    Ok(spec)
}

fn read_mutation(r: &mut Reader<'_>) -> Result<MutationSpec, String> {
    let (kind, vals, seen) = r.tagged(&["kind", "node", "classes"])?;
    let [_, node, classes] = vals.map(|v| v as usize);
    let (spec, takes): (_, &[&str]) = match kind {
        "none" => (MutationSpec::None, &["kind"]),
        "demote-static" => (MutationSpec::DemoteStatic(node), &["kind", "node"]),
        "drop-transitions" => (MutationSpec::DropTransitions(node), &["kind", "node"]),
        "inflate-classes" => (MutationSpec::InflateClasses(classes), &["kind", "classes"]),
        other => return Err(format!("unknown mutation kind {other:?}")),
    };
    seen.exactly(takes, format_args!("mutation {kind:?}"))?;
    Ok(spec)
}

fn read_workload(r: &mut Reader<'_>) -> Result<WorkloadSpec, String> {
    let (kind, [_, per_node, lambda_pct, cycles], seen) =
        r.tagged(&["kind", "per_node", "lambda_pct", "cycles"])?;
    let (spec, takes): (_, &[&str]) = match kind {
        "static" => (
            WorkloadSpec::Static {
                per_node: per_node as usize,
            },
            &["kind", "per_node"],
        ),
        "dynamic" => (
            WorkloadSpec::Dynamic {
                lambda_pct: u8::try_from(lambda_pct).map_err(|_| "lambda_pct > 255".to_string())?,
                cycles,
            },
            &["kind", "lambda_pct", "cycles"],
        ),
        other => return Err(format!("unknown workload kind {other:?}")),
    };
    seen.exactly(takes, format_args!("workload {kind:?}"))?;
    Ok(spec)
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
