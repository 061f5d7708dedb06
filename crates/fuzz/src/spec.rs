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

use fadr_core::scheme::{self, SchemeSpec, Shape, Size};
use fadr_qdg::sym::Symmetry;
use fadr_qdg::{BufferClass, LinkKind, QueueId, RoutingFunction, Transition};
use fadr_sim::{FaultPlan, PartitionStrategy};
use fadr_topology::{NodeId, Port, Topology};

/// Schema tag of the serialized form.
pub const SCHEMA: &str = "fadr-fuzz/1";

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
    /// Scheme and instance: a registry row and its checked size, whose
    /// name is the case file's `kind`.
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
            Quoted(self.scheme.scheme().name)
        );
        match self.scheme.size() {
            Size::Dims(dims) => {
                let _ = write!(out, ", \"dims\": {dims}");
            }
            Size::Sides { width, height } => {
                let _ = write!(out, ", \"width\": {width}, \"height\": {height}");
            }
            Size::Extents(extents) => {
                out.push_str(", \"extents\": ");
                json::list(&mut out, extents, |out, e| write!(out, "{e}"));
            }
            Size::Graph {
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
        let (mut seed, mut queue_capacity, mut lanes) = (0, 64, 1);
        // "scheme" and "workload" are required.
        let (mut scheme, mut workload) = (None, None);
        let mut mutation = MutationSpec::None;
        let mut faults = FaultPlan::new(0, 0);
        let mut shards = Vec::new();
        let mut strategy = PartitionStrategy::Auto;
        let mut r = Reader::new(text);
        let seen = r.object(&KEYS, |slot, r| {
            match KEYS[slot] {
                "schema" => {
                    let s = r.str()?;
                    if s != SCHEMA {
                        return Err(format!("unsupported schema {s:?}"));
                    }
                }
                "seed" => seed = r.u64()?,
                "scheme" => scheme = Some(read_scheme(r)?),
                "mutation" => mutation = read_mutation(r)?,
                "queue_capacity" => queue_capacity = r.u64()? as usize,
                "workload" => workload = Some(read_workload(r)?),
                "shards" => r.array(|r| {
                    shards.push(r.u64()? as usize);
                    Ok(())
                })?,
                "strategy" => strategy = PartitionStrategy::from_str(r.str()?)?,
                "lanes" => lanes = r.u64()? as usize,
                _ => faults = FaultPlan::read(r)?,
            }
            Ok(())
        })?;
        r.end()?;
        if !seen.has("schema") {
            return Err("missing \"schema\"".into());
        }
        let scheme = scheme.ok_or("missing \"scheme\"")?;
        let workload = workload.ok_or("missing \"workload\"")?;
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

/// Read a scheme object: its `kind` names a registry row, whose shape
/// says which size keys it takes, and [`SchemeSpec::new`] checks the
/// size against the row's bounds.
fn read_scheme(r: &mut Reader<'_>) -> Result<SchemeSpec, String> {
    const KEYS: [&str; 8] = [
        "kind", "dims", "width", "height", "nodes", "degree", "seed", "extents",
    ];
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
    let row = scheme::by_name(kind).ok_or_else(|| format!("unknown scheme kind {kind:?}"))?;
    let [_, dims, width, height, nodes, degree, _, _] = vals.map(|v| v as usize);
    let (size, takes): (_, &[&str]) = match row.shape {
        Shape::Dims { .. } => (Size::Dims(dims), &["kind", "dims"]),
        Shape::Sides { .. } => (Size::Sides { width, height }, &["kind", "width", "height"]),
        Shape::Extents => (Size::Extents(extents), &["kind", "extents"]),
        Shape::Graph => (
            Size::Graph {
                nodes,
                degree,
                seed: vals[6],
            },
            &["kind", "nodes", "degree", "seed"],
        ),
    };
    seen.exactly(takes, format_args!("scheme {kind:?}"))?;
    SchemeSpec::new(row, size)
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
// Sabotage
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

    fn can_hold(&self, node: NodeId, class: u8, msg: &Self::Msg) -> bool {
        self.inner.can_hold(node, class, msg)
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
