//! State-diagram emission in Graphviz DOT format.
//!
//! The raw reachability graph of a checked instance is huge and mostly
//! uninformative (robot-internal clocks make nearly every state unique). The
//! diagram therefore *projects* each state onto what the paper reasons
//! about — the multiset of robot positions and the terminated set — and
//! draws the quotient graph: one node per distinct projection, one edge per
//! observed projected transition. This is the `write_dot_state_diagram`
//! -with-a-mapping shape: explore the full system, display the image of a
//! projection function.

use crate::machine::Machine;
use crate::traverse::TraverseLimits;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt::Write as _;

/// The display projection of one state: positions (robot-index order) and
/// which robots have terminated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeProjection {
    /// Robot positions, in robot-index order.
    pub positions: Vec<usize>,
    /// Terminated flags, in robot-index order.
    pub terminated: Vec<bool>,
}

impl NodeProjection {
    fn label(&self) -> String {
        let mut out = String::from("⟨");
        for (i, &p) in self.positions.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{p}");
            if self.terminated[i] {
                out.push('✓');
            }
        }
        out.push('⟩');
        out
    }
}

/// A projected state diagram: the quotient of the reachability graph under
/// [`NodeProjection`].
#[derive(Debug, Clone)]
pub struct StateDiagram {
    /// Distinct projections, in insertion (BFS-discovery) order.
    pub nodes: Vec<NodeProjection>,
    /// Edges `(from, to, action label)` between node indices, deduplicated.
    pub edges: Vec<(usize, usize, String)>,
    /// Index of the initial state's projection.
    pub initial: usize,
    /// Node indices whose underlying states include a fully-terminated one.
    pub terminal: Vec<usize>,
    /// True if exploration hit the state cap (diagram is then a prefix).
    pub truncated: bool,
}

/// Explores `machine` breadth-first (up to `limits`) and builds the
/// projected diagram. The projection must be supplied by the caller because
/// `Machine::State` is opaque here; for gathering machines use
/// [`crate::diagram::project_sim_state`].
pub fn state_diagram<M: Machine>(
    machine: &M,
    limits: TraverseLimits,
    mut project: impl FnMut(&M::State) -> NodeProjection,
    mut is_terminal: impl FnMut(&M::State) -> bool,
) -> StateDiagram {
    let mut node_index: BTreeMap<NodeProjection, usize> = BTreeMap::new();
    let mut nodes: Vec<NodeProjection> = Vec::new();
    let mut edge_set: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut terminal: BTreeSet<usize> = BTreeSet::new();
    let mut visited: HashSet<M::Canon> = HashSet::new();
    let mut queue: VecDeque<M::State> = VecDeque::new();
    let mut truncated = false;

    let mut intern = |proj: NodeProjection, nodes: &mut Vec<NodeProjection>| -> usize {
        *node_index.entry(proj.clone()).or_insert_with(|| {
            nodes.push(proj);
            nodes.len() - 1
        })
    };

    let root = machine.initial();
    visited.insert(machine.canonicalize(&root));
    let initial = intern(project(&root), &mut nodes);
    queue.push_back(root);

    let mut states = 0u64;
    while let Some(state) = queue.pop_front() {
        states += 1;
        let from = intern(project(&state), &mut nodes);
        if is_terminal(&state) {
            terminal.insert(from);
        }
        if states >= limits.max_states {
            truncated = true;
            break;
        }
        for action in machine.actions(&state) {
            let next = machine.transition(&state, action);
            let to = intern(project(&next), &mut nodes);
            edge_set.insert((from, to, format!("{action:?}")));
            if visited.insert(machine.canonicalize(&next)) {
                queue.push_back(next);
            }
        }
    }

    StateDiagram {
        nodes,
        edges: edge_set.into_iter().collect(),
        initial,
        terminal: terminal.into_iter().collect(),
        truncated,
    }
}

/// The standard projection for gathering machines: positions + terminated.
pub fn project_sim_state<R>(state: &gather_sim::SimState<R>) -> NodeProjection {
    NodeProjection {
        positions: state.positions.clone(),
        terminated: state.terminated.clone(),
    }
}

impl StateDiagram {
    /// Renders the diagram as a Graphviz DOT digraph.
    ///
    /// The initial node is drawn as a double circle, terminal (gathered,
    /// all-terminated) nodes as filled boxes; self-loops produced by the
    /// projection (internal progress with no observable change) are kept —
    /// they show where the algorithm "works in place".
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=circle, fontname=\"monospace\"];");
        if self.truncated {
            let _ = writeln!(out, "  label=\"(truncated: state cap hit — prefix only)\";");
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let mut attrs = format!("label=\"{}\"", node.label());
            if i == self.initial {
                attrs.push_str(", shape=doublecircle");
            }
            if self.terminal.contains(&i) {
                attrs.push_str(", shape=box, style=filled, fillcolor=lightgrey");
            }
            let _ = writeln!(out, "  s{i} [{attrs}];");
        }
        // Merge parallel edges (same endpoints, different action) into one
        // arrow with a combined label: relaxed schedulers otherwise drown
        // the drawing in parallel arrows.
        let mut merged: BTreeMap<(usize, usize), Vec<&str>> = BTreeMap::new();
        for (from, to, label) in &self.edges {
            merged.entry((*from, *to)).or_default().push(label);
        }
        for ((from, to), labels) in merged {
            let _ = writeln!(
                out,
                "  s{from} -> s{to} [label=\"{}\"];",
                labels.join("\\n")
            );
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::GatherMachine;
    use gather_core::{GatherConfig, UxsGatherRobot};
    use gather_graph::generators;
    use gather_sim::Scheduler;

    fn diagram() -> StateDiagram {
        let g = generators::path(3).unwrap();
        let cfg = GatherConfig::fast();
        let robots = vec![
            (UxsGatherRobot::new(1, 3, &cfg), 0),
            (UxsGatherRobot::new(2, 3, &cfg), 2),
        ];
        let m = GatherMachine::new(&g, robots, Scheduler::FullySync);
        state_diagram(&m, TraverseLimits::default(), project_sim_state, |s| {
            s.all_terminated()
        })
    }

    #[test]
    fn diagram_has_initial_and_terminal_nodes() {
        let d = diagram();
        assert!(!d.truncated);
        assert!(!d.nodes.is_empty());
        assert_eq!(d.terminal.len(), 1, "one gathered+terminated projection");
        assert_eq!(d.nodes[d.initial].positions, vec![0, 2]);
    }

    #[test]
    fn dot_output_is_well_formed_and_deterministic() {
        let a = diagram().to_dot("uxs_path3");
        let b = diagram().to_dot("uxs_path3");
        assert_eq!(a, b, "DOT emission must be deterministic");
        assert!(a.starts_with("digraph uxs_path3 {"));
        assert!(a.trim_end().ends_with('}'));
        assert!(a.contains("doublecircle"));
        assert!(a.contains("fillcolor=lightgrey"));
        assert!(a.contains("->"));
    }
}
