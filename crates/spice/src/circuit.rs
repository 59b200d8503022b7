//! Netlist construction.

use std::fmt;
use std::sync::Arc;

use rotsv_num::sparse::AnalyzeOptions;
use rotsv_num::SymbolicCache;

use crate::device::NonlinearDevice;
use crate::node::NodeId;
use crate::source::SourceWaveform;

/// Default minimum node-to-ground conductance (SPICE `GMIN`).
///
/// Keeps the MNA matrix non-singular when nodes float, e.g. behind a
/// tri-stated driver or an opened TSV.
pub const DEFAULT_GMIN: f64 = 1e-12;

/// Handle to a voltage source, usable to read back its branch current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VSourceId(pub(crate) usize);

pub(crate) enum Element {
    Resistor {
        a: NodeId,
        b: NodeId,
        ohms: f64,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        farads: f64,
    },
    VSource {
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
        branch: usize,
    },
    ISource {
        from: NodeId,
        to: NodeId,
        wave: SourceWaveform,
    },
    Nonlinear(Box<dyn NonlinearDevice>),
}

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Resistor { a, b, ohms } => write!(f, "R({a},{b})={ohms}"),
            Element::Capacitor { a, b, farads } => write!(f, "C({a},{b})={farads}"),
            Element::VSource { pos, neg, .. } => write!(f, "V({pos},{neg})"),
            Element::ISource { from, to, .. } => write!(f, "I({from},{to})"),
            Element::Nonlinear(d) => write!(f, "X({})", d.name()),
        }
    }
}

/// A circuit netlist.
///
/// Nodes are created with [`Circuit::node`]; node 0 ([`Circuit::GROUND`]) is
/// implicit. Elements connect nodes; nonlinear devices are added as boxed
/// [`NonlinearDevice`] implementations.
///
/// # Examples
///
/// ```
/// use rotsv_spice::{Circuit, SourceWaveform};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.0));
/// ckt.add_resistor(a, Circuit::GROUND, 50.0);
/// assert_eq!(ckt.node_count(), 2); // ground + "a"
/// ```
#[derive(Debug)]
pub struct Circuit {
    node_names: Vec<String>,
    pub(crate) elements: Vec<Element>,
    pub(crate) n_vsources: usize,
    pub(crate) n_capacitors: usize,
    gmin: f64,
    symbolic_cache: Option<Arc<SymbolicCache>>,
    solver_options: AnalyzeOptions,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// The ground node (0 V reference).
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            node_names: vec!["gnd".to_owned()],
            elements: Vec::new(),
            n_vsources: 0,
            n_capacitors: 0,
            gmin: DEFAULT_GMIN,
            symbolic_cache: None,
            solver_options: AnalyzeOptions::default(),
        }
    }

    /// Allocates a new node with a diagnostic `name`.
    pub fn node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_owned());
        id
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Name given to `node` at creation.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this circuit.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of MNA unknowns: non-ground node voltages plus voltage-source
    /// branch currents.
    pub fn unknown_count(&self) -> usize {
        self.node_count() - 1 + self.n_vsources
    }

    /// Number of voltage sources.
    pub fn vsource_count(&self) -> usize {
        self.n_vsources
    }

    /// Minimum node-to-ground conductance applied during analysis.
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    /// Overrides the default gmin.
    ///
    /// # Panics
    ///
    /// Panics if `gmin` is negative or non-finite.
    pub fn set_gmin(&mut self, gmin: f64) {
        assert!(gmin >= 0.0 && gmin.is_finite(), "gmin must be >= 0");
        self.gmin = gmin;
    }

    fn check_node(&self, n: NodeId) {
        assert!(
            n.0 < self.node_names.len(),
            "node {n} does not belong to this circuit"
        );
    }

    /// Adds a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite, or if either
    /// node is foreign.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        self.check_node(a);
        self.check_node(b);
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive and finite, got {ohms}"
        );
        self.elements.push(Element::Resistor { a, b, ohms });
    }

    /// Adds a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative or non-finite, or if either node is
    /// foreign. A zero-value capacitor is accepted and ignored numerically.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) {
        self.check_node(a);
        self.check_node(b);
        assert!(
            farads >= 0.0 && farads.is_finite(),
            "capacitance must be >= 0 and finite, got {farads}"
        );
        self.n_capacitors += 1;
        self.elements.push(Element::Capacitor { a, b, farads });
    }

    /// Adds an independent voltage source: `pos − neg = wave(t)`.
    ///
    /// Returns a handle usable to read the branch current from solutions.
    ///
    /// # Panics
    ///
    /// Panics if either node is foreign.
    pub fn add_vsource(&mut self, pos: NodeId, neg: NodeId, wave: SourceWaveform) -> VSourceId {
        self.check_node(pos);
        self.check_node(neg);
        let branch = self.n_vsources;
        self.n_vsources += 1;
        self.elements.push(Element::VSource {
            pos,
            neg,
            wave,
            branch,
        });
        VSourceId(branch)
    }

    /// Adds an independent current source pushing `wave(t)` amps from
    /// `from` to `to` (leaving `from`, entering `to`).
    ///
    /// # Panics
    ///
    /// Panics if either node is foreign.
    pub fn add_isource(&mut self, from: NodeId, to: NodeId, wave: SourceWaveform) {
        self.check_node(from);
        self.check_node(to);
        self.elements.push(Element::ISource { from, to, wave });
    }

    /// Adds a nonlinear device.
    ///
    /// # Panics
    ///
    /// Panics if any of the device's terminals is foreign.
    pub fn add_device(&mut self, device: Box<dyn NonlinearDevice>) {
        for &n in device.nodes() {
            self.check_node(n);
        }
        self.elements.push(Element::Nonlinear(device));
    }

    /// Number of elements in the netlist.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// The nonlinear devices, in netlist order.
    pub fn devices(&self) -> impl Iterator<Item = &dyn NonlinearDevice> {
        self.elements.iter().filter_map(|e| match e {
            Element::Nonlinear(d) => Some(d.as_ref()),
            _ => None,
        })
    }

    /// Attaches a shared topology-keyed symbolic-analysis cache.
    ///
    /// Analyses on this circuit then go through the cache, so circuits
    /// with the same sparsity pattern (e.g. the T1 and T2 rings of one
    /// ΔT measurement, or all dies of an MC population) pay one
    /// `lu_analyze` per topology instead of one per transient.
    /// Correctness is unaffected: the cached pivot order re-analyzes
    /// automatically if a circuit's values make it unstable.
    pub fn set_symbolic_cache(&mut self, cache: Arc<SymbolicCache>) {
        self.symbolic_cache = Some(cache);
    }

    /// The symbolic-analysis cache attached to this circuit, if any.
    pub fn symbolic_cache(&self) -> Option<&Arc<SymbolicCache>> {
        self.symbolic_cache.as_ref()
    }

    /// Chooses how the sparse solver analyzes this circuit's Jacobian
    /// (BTF + minimum-degree ordering, equilibration scaling). The
    /// default [`AnalyzeOptions`] suit MNA systems; tests and benchmarks
    /// override them to isolate individual pipeline stages.
    ///
    /// Options participate in the [`SymbolicCache`] key, so circuits
    /// sharing a cache but analyzed under different options never share
    /// an analysis.
    pub fn set_solver_options(&mut self, opts: AnalyzeOptions) {
        self.solver_options = opts;
    }

    /// The analysis options the sparse solver uses for this circuit.
    pub fn solver_options(&self) -> AnalyzeOptions {
        self.solver_options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_circuit_has_only_ground() {
        let ckt = Circuit::new();
        assert_eq!(ckt.node_count(), 1);
        assert_eq!(ckt.unknown_count(), 0);
        assert_eq!(ckt.node_name(Circuit::GROUND), "gnd");
    }

    #[test]
    fn nodes_and_unknowns_are_counted() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_resistor(a, b, 1.0);
        ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.0));
        ckt.add_capacitor(b, Circuit::GROUND, 1e-12);
        assert_eq!(ckt.node_count(), 3);
        assert_eq!(ckt.unknown_count(), 3); // two node voltages + one branch
        assert_eq!(ckt.element_count(), 3);
        assert_eq!(ckt.vsource_count(), 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_resistance_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_capacitance_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor(a, Circuit::GROUND, -1.0);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_node_rejected() {
        let mut ckt = Circuit::new();
        ckt.add_resistor(NodeId(5), Circuit::GROUND, 1.0);
    }

    #[test]
    fn vsource_ids_are_sequential() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v0 = ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(1.0));
        let v1 = ckt.add_vsource(a, Circuit::GROUND, SourceWaveform::dc(2.0));
        assert_eq!(v0.0, 0);
        assert_eq!(v1.0, 1);
    }
}
