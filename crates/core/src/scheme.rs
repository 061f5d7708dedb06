//! The scheme registry: every routing scheme the front ends run, named,
//! bounded and built once.
//!
//! [`SCHEMES`] holds one row per scheme: its one name (the `kind` of a
//! `fadr-fuzz/1` case file), its `--family`/`--algo` spelling where a
//! flag can express its size, the shape of that size with the bounds the
//! topology constructors assert, and its constructor. A [`SchemeSpec`]
//! is a row plus a size; [`SchemeSpec::new`] is the only place a size is
//! checked. [`with_scheme`] builds the scheme a spec names and hands it
//! to a [`SchemeVisitor`]; [`SchemeArgs`] is the flag grammar of `lint`
//! and `certify`. A new family is one row and one [`with_scheme`] arm.

use std::fmt;

use fadr_qdg::sym::Symmetry;
use fadr_qdg::verify::test_fixtures::EcubeHypercube;
use fadr_qdg::SnapshotMsg;
use fadr_topology::RandomRegular;

use crate::{
    AdaptiveSbp, EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive,
    MeshKDFullyAdaptive, MeshStaticHang, MeshXY, ShuffleExchangeRouting, TorusTwoPhase,
};

/// One routing scheme: its name, spelling, size shape and constructor.
#[derive(Debug, PartialEq, Eq)]
pub struct Scheme {
    /// The scheme's one name, e.g. `hypercube-fa` or `mesh-xy`.
    pub name: &'static str,
    /// Its `--family`/`--algo` spelling; `None` when no flag can
    /// express its size, or for the wedging `ecube-store-forward`, which
    /// only case files run.
    pub flags: Option<Flags>,
    /// The shape of its size, with the bounds on it.
    pub shape: Shape,
    build: Build,
}

/// A scheme's command-line spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// The `--family` value.
    pub family: &'static str,
    /// The `--algo` value.
    pub algo: &'static str,
    /// Other `--algo` values accepted for the same scheme.
    pub aliases: &'static [&'static str],
}

/// The shape of a scheme's size, with the bounds the topology
/// constructors assert. Node counts must not overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Address bits (`--n`), `2^dims` nodes.
    Dims {
        /// Smallest dimension count.
        min: usize,
        /// Largest dimension count.
        max: usize,
    },
    /// A `width × height` grid (`--width`/`--height`, or `--n` for a
    /// square).
    Sides {
        /// Smallest side.
        min: usize,
    },
    /// A k-D mesh: at least one extent, each at least 2.
    Extents,
    /// A seeded random-regular graph: `2 <= degree < nodes <= 4096`,
    /// `nodes * degree` even.
    Graph,
}

/// The size of one instance, checked by [`SchemeSpec::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Size {
    /// Address bits.
    Dims(usize),
    /// Grid sides.
    Sides {
        /// Extent in x.
        width: usize,
        /// Extent in y.
        height: usize,
    },
    /// Per-dimension extents.
    Extents(Vec<usize>),
    /// Random-regular graph parameters.
    Graph {
        /// Node count.
        nodes: usize,
        /// Uniform degree.
        degree: usize,
        /// Draw seed.
        seed: u64,
    },
}

/// Which constructor a row calls (see [`with_scheme`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    CubeFa,
    CubeHang,
    CubeSbp,
    CubeStoreForward,
    MeshFa,
    MeshHang,
    MeshXy,
    Torus,
    Se,
    SeStatic,
    SePaper,
    MeshKd,
    SbpRandomRegular,
}

const CUBE: Shape = Shape::Dims { min: 1, max: 30 };
const SE: Shape = Shape::Dims { min: 2, max: 30 };
const MESH: Shape = Shape::Sides { min: 2 };
const TORUS: Shape = Shape::Sides { min: 3 };

const fn row(name: &'static str, flags: Option<Flags>, shape: Shape, build: Build) -> Scheme {
    Scheme {
        name,
        flags,
        shape,
        build,
    }
}

const fn cli(
    family: &'static str,
    algo: &'static str,
    aliases: &'static [&'static str],
) -> Option<Flags> {
    Some(Flags {
        family,
        algo,
        aliases,
    })
}

/// Every scheme, grouped by `--family` in `--help` order; the rows no
/// flag spells come last.
#[rustfmt::skip]
pub static SCHEMES: [Scheme; 13] = [
    row("hypercube-fa", cli("hypercube", "fully-adaptive", &["adaptive"]), CUBE, Build::CubeFa),
    row("hypercube-hang", cli("hypercube", "static-hang", &["hang"]), CUBE, Build::CubeHang),
    row("ecube-sbp", cli("hypercube", "ecube-sbp", &["ecube"]), CUBE, Build::CubeSbp),
    row("mesh-fa", cli("mesh", "fully-adaptive", &[]), MESH, Build::MeshFa),
    row("mesh-hang", cli("mesh", "static-hang", &[]), MESH, Build::MeshHang),
    row("mesh-xy", cli("mesh", "xy", &[]), MESH, Build::MeshXy),
    row("torus", cli("torus", "fully-adaptive", &[]), TORUS, Build::Torus),
    row("shuffle-exchange", cli("se", "adaptive", &["fully-adaptive"]), SE, Build::Se),
    row("shuffle-exchange-static", cli("se", "static", &[]), SE, Build::SeStatic),
    row("shuffle-exchange-paper", cli("se", "paper-literal", &[]), SE, Build::SePaper),
    row("ecube-store-forward", None, CUBE, Build::CubeStoreForward),
    row("mesh-kd", None, Shape::Extents, Build::MeshKd),
    row("sbp-random-regular", None, Shape::Graph, Build::SbpRandomRegular),
];

/// The row named `name`.
pub fn by_name(name: &str) -> Option<&'static Scheme> {
    SCHEMES.iter().find(|s| s.name == name)
}

/// The row `--family family --algo algo` names (`algo` may be an alias).
pub fn by_flags(family: &str, algo: &str) -> Option<&'static Scheme> {
    SCHEMES.iter().find(|s| {
        s.flags
            .is_some_and(|f| f.family == family && (f.algo == algo || f.aliases.contains(&algo)))
    })
}

/// The `--algo` values of `family`, in table order.
pub fn algos(family: &str) -> impl Iterator<Item = &'static str> + '_ {
    SCHEMES
        .iter()
        .filter_map(move |s| s.flags.filter(|f| f.family == family).map(|f| f.algo))
}

impl Scheme {
    /// The `--algo` spelling (the name when no flag spells the scheme),
    /// as snapshot metadata and `fadr-metrics/1` record it.
    pub fn algo(&self) -> &'static str {
        self.flags.map_or(self.name, |f| f.algo)
    }
}

impl Shape {
    /// The node count of `size`, if it has this shape and fits its
    /// bounds.
    fn nodes(self, size: &Size) -> Option<usize> {
        match (self, size) {
            (Shape::Dims { min, max }, &Size::Dims(d)) if (min..=max).contains(&d) => Some(1 << d),
            (Shape::Sides { min }, &Size::Sides { width, height }) if width.min(height) >= min => {
                width.checked_mul(height)
            }
            (Shape::Extents, Size::Extents(e)) if !e.is_empty() && e.iter().all(|&x| x >= 2) => {
                e.iter().try_fold(1usize, |acc, &x| acc.checked_mul(x))
            }
            (Shape::Graph, &Size::Graph { nodes, degree, .. })
                if (2..nodes).contains(&degree)
                    && nodes <= 4096
                    && (nodes * degree).is_multiple_of(2) =>
            {
                Some(nodes)
            }
            _ => None,
        }
    }
}

/// The bound, as `--help` and size errors print it.
impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Dims { min, max } => write!(f, "{min}..={max}"),
            Shape::Sides { min } => write!(f, "each >= {min}"),
            Shape::Extents => f.write_str("each >= 2, at least one"),
            Shape::Graph => f.write_str("2 <= degree < nodes <= 4096, nodes * degree even"),
        }
    }
}

/// A scheme and a size that fits it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeSpec {
    scheme: &'static Scheme,
    size: Size,
    nodes: usize,
}

impl SchemeSpec {
    /// Pair `scheme` with `size`.
    ///
    /// # Errors
    ///
    /// A size of another shape, outside the row's bounds or with a node
    /// count that overflows; the message names the bound.
    pub fn new(scheme: &'static Scheme, size: Size) -> Result<Self, String> {
        let Some(nodes) = scheme.shape.nodes(&size) else {
            let (name, shape) = (scheme.name, scheme.shape);
            return Err(format!("{name}: {size:?} is out of bounds ({shape})"));
        };
        Ok(Self {
            scheme,
            size,
            nodes,
        })
    }

    /// The row.
    pub fn scheme(&self) -> &'static Scheme {
        self.scheme
    }

    /// The checked size.
    pub fn size(&self) -> &Size {
        &self.size
    }

    /// Number of nodes the instance has.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }
}

/// Monomorphizing visitor over the scheme a [`SchemeSpec`] names.
/// [`fadr_qdg::RoutingFunction`] is not object-safe (associated `Msg`),
/// so front ends dispatch through this trait instead of `dyn`.
pub trait SchemeVisitor {
    /// Result of visiting.
    type Out;

    /// Called with the constructed scheme.
    fn visit<R>(self, rf: R) -> Self::Out
    where
        R: Symmetry + Clone + Send + 'static,
        R::Msg: Send + SnapshotMsg;
}

/// Build the scheme `spec` names and hand it to `v`.
pub fn with_scheme<V: SchemeVisitor>(spec: &SchemeSpec, v: V) -> V::Out {
    match (spec.scheme.build, &spec.size) {
        (Build::MeshFa, &Size::Sides { width, height }) => {
            v.visit(MeshFullyAdaptive::new(width, height))
        }
        (Build::MeshHang, &Size::Sides { width, height }) => {
            v.visit(MeshStaticHang::new(width, height))
        }
        (Build::MeshXy, &Size::Sides { width, height }) => v.visit(MeshXY::new(width, height)),
        (Build::Torus, &Size::Sides { width, height }) => {
            v.visit(TorusTwoPhase::new(width, height))
        }
        (Build::Se, &Size::Dims(d)) => v.visit(ShuffleExchangeRouting::new(d)),
        (Build::SeStatic, &Size::Dims(d)) => {
            v.visit(ShuffleExchangeRouting::without_dynamic_links(d))
        }
        (Build::SePaper, &Size::Dims(d)) => v.visit(ShuffleExchangeRouting::paper_literal(d)),
        (Build::CubeStoreForward, &Size::Dims(d)) => v.visit(EcubeHypercube::new(d)),
        (Build::MeshKd, Size::Extents(e)) => v.visit(MeshKDFullyAdaptive::new(e)),
        (
            Build::SbpRandomRegular,
            &Size::Graph {
                nodes,
                degree,
                seed,
            },
        ) => v.visit(AdaptiveSbp::new(RandomRegular::new(nodes, degree, seed))),
        // The rows `--family hypercube` spells; `SchemeSpec::new` admits
        // only sizes of the row's shape, so no other pair reaches here.
        _ => with_hypercube(spec, v).unwrap_or_else(|e| unreachable!("{e}")),
    }
}

/// [`with_scheme`] for the rows `--family hypercube` spells only, so a
/// caller that runs nothing else (the table harness) monomorphizes `v`
/// for those three schemes alone.
///
/// # Errors
///
/// `spec` names a scheme that `--family hypercube` does not spell.
pub fn with_hypercube<V: SchemeVisitor>(spec: &SchemeSpec, v: V) -> Result<V::Out, String> {
    let name = spec.scheme.name;
    Ok(match (spec.scheme.build, &spec.size) {
        (Build::CubeFa, &Size::Dims(d)) => v.visit(HypercubeFullyAdaptive::new(d)),
        (Build::CubeHang, &Size::Dims(d)) => v.visit(HypercubeStaticHang::new(d)),
        (Build::CubeSbp, &Size::Dims(d)) => v.visit(EcubeSbp::new(d)),
        _ => return Err(format!("{name} has no --family hypercube spelling")),
    })
}

/// The command-line spelling of a scheme, shared by `lint` and
/// `certify`: `--family F [--algo A] [--n N] [--width W] [--height H]`.
#[derive(Debug, Default)]
pub struct SchemeArgs {
    family: String,
    algo: Option<String>,
    n: usize,
    width: usize,
    height: usize,
}

impl SchemeArgs {
    /// Take `flag` if it is one of the five, reading its value with
    /// `value`; `Ok(false)` leaves any other flag to the caller.
    ///
    /// # Errors
    ///
    /// A missing value, or a size that is not a number.
    pub fn take(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        let num = |v: String| {
            v.parse()
                .map_err(|_| format!("{flag} must be a number, got {v:?}"))
        };
        match flag {
            "--family" => self.family = value()?,
            "--algo" => self.algo = Some(value()?),
            "--n" => self.n = num(value()?)?,
            "--width" => self.width = num(value()?)?,
            "--height" => self.height = num(value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The checked spec the flags name: `--algo` defaults to
    /// `fully-adaptive`, the width to `--n` and the height to the width.
    ///
    /// # Errors
    ///
    /// An unknown family/algo pair, or a size outside the row's bounds.
    pub fn spec(&self) -> Result<SchemeSpec, String> {
        let algo = self.algo.as_deref().unwrap_or("fully-adaptive");
        let scheme = by_flags(&self.family, algo)
            .ok_or_else(|| format!("unsupported family/algo: {}/{algo}", self.family))?;
        let width = if self.width == 0 { self.n } else { self.width };
        let height = if self.height == 0 { width } else { self.height };
        let size = match scheme.shape {
            Shape::Sides { .. } => Size::Sides { width, height },
            _ => Size::Dims(self.n),
        };
        SchemeSpec::new(scheme, size)
    }

    /// The `--help` lines of the five flags: one per family with its
    /// size flags, their bounds and its `--algo` values.
    pub fn help() -> String {
        let mut out = String::new();
        for s in &SCHEMES {
            let Some(f) = s.flags else { continue };
            // One line per family, at its first row.
            if algos(f.family).next() != Some(f.algo) {
                continue;
            }
            let size = match s.shape {
                Shape::Sides { .. } => "--width W --height H, or --n for a square",
                _ => "--n DIMS",
            };
            let algos: Vec<&str> = algos(f.family).collect();
            out.push_str(&format!(
                "--family {:<10} {size} ({})\n{:<20}--algo {}\n",
                f.family,
                s.shape,
                "",
                algos.join("|")
            ));
        }
        out + "--algo defaults to fully-adaptive, --width to --n, --height to --width"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadr_qdg::RoutingFunction;

    /// The smallest size each shape admits, one size below it and one
    /// above the largest.
    fn sizes(shape: Shape) -> (Size, Size, Size) {
        match shape {
            Shape::Dims { min, max } => (Size::Dims(min), Size::Dims(min - 1), Size::Dims(max + 1)),
            Shape::Sides { min } => (
                Size::Sides {
                    width: min,
                    height: min,
                },
                Size::Sides {
                    width: min,
                    height: min - 1,
                },
                Size::Sides {
                    width: usize::MAX,
                    height: min,
                },
            ),
            Shape::Extents => (
                Size::Extents(vec![2]),
                Size::Extents(vec![2, 1]),
                Size::Extents(vec![usize::MAX, 2]),
            ),
            Shape::Graph => {
                let graph = |nodes, degree| Size::Graph {
                    nodes,
                    degree,
                    seed: 7,
                };
                (graph(3, 2), graph(3, 1), graph(4098, 2))
            }
        }
    }

    /// Records the name of the scheme it is handed.
    struct Name;

    impl SchemeVisitor for Name {
        type Out = (String, usize);

        fn visit<R>(self, rf: R) -> (String, usize)
        where
            R: Symmetry + Clone + Send + 'static,
            R::Msg: Send + SnapshotMsg,
        {
            (rf.name(), rf.topology().num_nodes())
        }
    }

    /// The same scheme built by hand, as the front ends built it before
    /// the registry.
    fn direct(spec: &SchemeSpec) -> String {
        match (spec.scheme().name, spec.size()) {
            ("hypercube-fa", &Size::Dims(d)) => HypercubeFullyAdaptive::new(d).name(),
            ("hypercube-hang", &Size::Dims(d)) => HypercubeStaticHang::new(d).name(),
            ("ecube-sbp", &Size::Dims(d)) => EcubeSbp::new(d).name(),
            ("ecube-store-forward", &Size::Dims(d)) => EcubeHypercube::new(d).name(),
            ("mesh-fa", &Size::Sides { width, height }) => {
                MeshFullyAdaptive::new(width, height).name()
            }
            ("mesh-hang", &Size::Sides { width, height }) => {
                MeshStaticHang::new(width, height).name()
            }
            ("mesh-xy", &Size::Sides { width, height }) => MeshXY::new(width, height).name(),
            ("torus", &Size::Sides { width, height }) => TorusTwoPhase::new(width, height).name(),
            ("shuffle-exchange", &Size::Dims(d)) => ShuffleExchangeRouting::new(d).name(),
            ("shuffle-exchange-static", &Size::Dims(d)) => {
                ShuffleExchangeRouting::without_dynamic_links(d).name()
            }
            ("shuffle-exchange-paper", &Size::Dims(d)) => {
                ShuffleExchangeRouting::paper_literal(d).name()
            }
            ("mesh-kd", Size::Extents(e)) => MeshKDFullyAdaptive::new(e).name(),
            (
                "sbp-random-regular",
                &Size::Graph {
                    nodes,
                    degree,
                    seed,
                },
            ) => AdaptiveSbp::new(RandomRegular::new(nodes, degree, seed)).name(),
            (name, size) => panic!("no direct constructor for {name} at {size:?}"),
        }
    }

    #[test]
    fn every_row_resolves_bounds_and_builds() {
        for scheme in &SCHEMES {
            assert_eq!(by_name(scheme.name), Some(scheme));
            if let Some(f) = scheme.flags {
                for algo in std::iter::once(f.algo).chain(f.aliases.iter().copied()) {
                    assert_eq!(by_flags(f.family, algo), Some(scheme), "{algo}");
                }
            }
            let (min, below, above) = sizes(scheme.shape);
            for bad in [below, above] {
                let err = SchemeSpec::new(scheme, bad.clone()).expect_err(&format!("{bad:?}"));
                assert!(err.contains(&scheme.shape.to_string()), "{err}");
            }
            let spec = SchemeSpec::new(scheme, min).expect("the minimum size fits");
            let (name, nodes) = with_scheme(&spec, Name);
            assert_eq!(nodes, spec.num_nodes(), "{}", scheme.name);
            assert_eq!(name, direct(&spec), "{}", scheme.name);
            let mut larger = spec.size().clone();
            match &mut larger {
                Size::Dims(d) => *d += 2,
                Size::Sides { width, height } => (*width, *height) = (*width + 1, *height + 2),
                Size::Extents(e) => e.push(3),
                Size::Graph { nodes, .. } => *nodes += 3,
            }
            let spec = SchemeSpec::new(scheme, larger).expect("a larger size fits");
            assert_eq!(with_scheme(&spec, Name).0, direct(&spec));
        }
    }

    #[test]
    fn a_size_of_another_shape_is_rejected() {
        let torus = by_name("torus").unwrap();
        let err = SchemeSpec::new(torus, Size::Dims(4)).unwrap_err();
        assert_eq!(err, "torus: Dims(4) is out of bounds (each >= 3)");
        assert!(by_name("warp").is_none());
    }

    #[test]
    fn hypercube_arm_refuses_unspelled_rows() {
        let spec = |name| SchemeSpec::new(by_name(name).unwrap(), Size::Dims(3)).unwrap();
        for name in ["hypercube-fa", "hypercube-hang", "ecube-sbp"] {
            assert_eq!(with_hypercube(&spec(name), Name).unwrap().1, 8, "{name}");
        }
        for name in ["ecube-store-forward", "shuffle-exchange"] {
            assert!(with_hypercube(&spec(name), Name).is_err(), "{name}");
        }
        assert_eq!(by_flags("hypercube", "store-forward"), None);
    }

    #[test]
    fn flags_default_the_algo_and_the_sides() {
        let parse = |args: &[&str]| {
            let mut flags = SchemeArgs::default();
            let mut it = args.iter().map(ToString::to_string);
            while let Some(flag) = it.next() {
                let value = it.next().ok_or(format!("{flag} needs a value"));
                assert!(flags.take(&flag, || value)?, "{flag}");
            }
            flags.spec()
        };
        let mesh = parse(&["--family", "mesh", "--n", "7"]).unwrap();
        assert_eq!(mesh.scheme().name, "mesh-fa");
        let wide = parse(&["--family", "torus", "--width", "5"]).unwrap();
        assert_eq!(
            wide.size(),
            &Size::Sides {
                width: 5,
                height: 5
            }
        );
        let se = parse(&["--family", "se", "--n", "4"]).unwrap();
        assert_eq!(se.scheme().name, "shuffle-exchange");
        for (args, needle) in [
            (
                &["--family", "hypercube"][..],
                "Dims(0) is out of bounds (1..=30)",
            ),
            (
                &["--family", "torus", "--n", "2"],
                "width: 2, height: 2 } is out of bounds (each >= 3)",
            ),
            (
                &["--family", "mesh", "--n", "1"],
                "width: 1, height: 1 } is out of bounds (each >= 2)",
            ),
            (
                &["--family", "se", "--n", "1"],
                "Dims(1) is out of bounds (2..=30)",
            ),
            (
                &["--family", "mesh", "--algo", "ecube-sbp"],
                "mesh/ecube-sbp",
            ),
            (
                &["--family", "hypercube", "--n", "x"],
                "--n must be a number",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn help_lists_every_spelled_row() {
        let help = SchemeArgs::help();
        for f in SCHEMES.iter().filter_map(|s| s.flags) {
            assert!(help.contains(f.family) && help.contains(f.algo), "{help}");
        }
        assert!(
            help.contains("(1..=30)") && help.contains("(each >= 3)"),
            "{help}"
        );
    }
}
