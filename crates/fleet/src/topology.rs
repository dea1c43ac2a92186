//! Site topology: pods, their rated IT capacity, and the inter-pod
//! thermal-bleed graph.
//!
//! A *pod* is one containment cell — servers, one ACU, its own sensor
//! array — modeled as one [`tesla_sim::Testbed`].
//! Pods in the same hall are not thermally independent: hot-aisle air
//! leaks through containment seams and shared plenums, so the topology
//! carries an undirected edge list with a bleed conductance per edge.
//! The fleet runner turns each edge into a symmetric, energy-conserving
//! heat exchange between the two pods' hot aisles every control minute.

use crate::FleetError;
use tesla_units::{Kilowatts, ZoneId};

/// One pod of the site: a zone identifier plus its rated IT capacity
/// (used for documentation and for sizing the default site budget — the
/// simulated load comes from the per-zone workload profile).
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// The pod's fleet-wide zone identity.
    pub zone: ZoneId,
    /// Rated IT capacity of the pod.
    pub rated_it_kw: Kilowatts,
}

/// An undirected thermal-bleed edge between two pods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BleedEdge {
    /// First endpoint (always the lower zone index).
    pub a: ZoneId,
    /// Second endpoint (always the higher zone index).
    pub b: ZoneId,
    /// Bleed conductance between the two hot aisles, kW per kelvin of
    /// hot-aisle temperature difference.
    // lint:allow(no-raw-f64-in-public-api): kW/K conductance has no newtype; see ThermalParams
    pub kw_per_k: f64,
}

/// The site's pod set and bleed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTopology {
    pods: Vec<PodSpec>,
    edges: Vec<BleedEdge>,
}

impl FleetTopology {
    /// Builds a topology from explicit pods and edges, validating that
    /// edge endpoints are distinct in-range zones, conductances are
    /// finite and non-negative, and no edge is listed twice.
    pub fn new(pods: Vec<PodSpec>, edges: Vec<BleedEdge>) -> Result<Self, FleetError> {
        if pods.is_empty() {
            return Err(FleetError::Config("a fleet needs at least one pod".into()));
        }
        for (i, pod) in pods.iter().enumerate() {
            if pod.zone.index() != i {
                return Err(FleetError::Config(format!(
                    "pod {i} carries zone id {}; pods must be listed in zone order",
                    pod.zone
                )));
            }
        }
        let n = pods.len();
        let mut seen = std::collections::BTreeSet::new();
        for e in &edges {
            if e.a >= e.b {
                return Err(FleetError::Config(format!(
                    "edge {}-{} must list the lower zone first and may not self-couple",
                    e.a, e.b
                )));
            }
            if e.b.index() >= n {
                return Err(FleetError::Config(format!(
                    "edge {}-{} references a zone outside the {n}-pod site",
                    e.a, e.b
                )));
            }
            if !e.kw_per_k.is_finite() || e.kw_per_k < 0.0 {
                return Err(FleetError::Config(format!(
                    "edge {}-{} has non-finite or negative conductance {}",
                    e.a, e.b, e.kw_per_k
                )));
            }
            if !seen.insert((e.a, e.b)) {
                return Err(FleetError::Config(format!(
                    "edge {}-{} is listed twice",
                    e.a, e.b
                )));
            }
        }
        Ok(FleetTopology { pods, edges })
    }

    /// A row of `n` identical pods with adjacent-neighbour bleed — the
    /// general shape scaling benchmarks use.
    pub fn row(n: usize, rated_it_kw: Kilowatts, bleed_kw_per_k: f64) -> Result<Self, FleetError> {
        let pods = (0..n)
            .map(|i| PodSpec {
                zone: ZoneId::new(i),
                rated_it_kw,
            })
            .collect();
        let edges = (1..n)
            .map(|i| BleedEdge {
                a: ZoneId::new(i - 1),
                b: ZoneId::new(i),
                kw_per_k: bleed_kw_per_k,
            })
            .collect();
        FleetTopology::new(pods, edges)
    }

    /// The reference site: 8 pods of 125 kW rated IT capacity (a 1 MW
    /// hall) in a row with 0.4 kW/K adjacent-neighbour bleed — the same
    /// shape as the published 8-pod/1 MW simulated-site configurations
    /// this layer reproduces.
    pub fn reference_site() -> Self {
        FleetTopology::row(8, Kilowatts::new(125.0), 0.4)
            .expect("the reference topology is statically valid")
    }

    /// Number of pods on the site.
    pub fn n_zones(&self) -> usize {
        self.pods.len()
    }

    /// The pods, in zone order.
    pub fn pods(&self) -> &[PodSpec] {
        &self.pods
    }

    /// The undirected bleed edges.
    pub fn edges(&self) -> &[BleedEdge] {
        &self.edges
    }

    /// Total rated IT capacity of the site.
    pub fn rated_it_kw(&self) -> Kilowatts {
        Kilowatts::new(self.pods.iter().map(|p| p.rated_it_kw.value()).sum())
    }

    /// The bleed neighbours of `zone` with their conductances.
    // lint:allow(no-raw-f64-in-public-api): kW/K conductance has no newtype
    pub fn neighbors(&self, zone: ZoneId) -> Vec<(ZoneId, f64)> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.a == zone {
                out.push((e.b, e.kw_per_k));
            } else if e.b == zone {
                out.push((e.a, e.kw_per_k));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_site_is_eight_pods_one_megawatt() {
        let t = FleetTopology::reference_site();
        assert_eq!(t.n_zones(), 8);
        assert_eq!(t.edges().len(), 7);
        assert!((t.rated_it_kw().value() - 1000.0).abs() < 1e-9);
        assert_eq!(t.neighbors(ZoneId::new(0)).len(), 1);
        assert_eq!(t.neighbors(ZoneId::new(3)).len(), 2);
    }

    #[test]
    fn validation_rejects_bad_edges() {
        let pods = |n: usize| {
            (0..n)
                .map(|i| PodSpec {
                    zone: ZoneId::new(i),
                    rated_it_kw: Kilowatts::new(125.0),
                })
                .collect::<Vec<_>>()
        };
        let edge = |a: usize, b: usize, g: f64| BleedEdge {
            a: ZoneId::new(a),
            b: ZoneId::new(b),
            kw_per_k: g,
        };
        assert!(FleetTopology::new(vec![], vec![]).is_err());
        assert!(FleetTopology::new(pods(2), vec![edge(1, 1, 0.1)]).is_err());
        assert!(FleetTopology::new(pods(2), vec![edge(1, 0, 0.1)]).is_err());
        assert!(FleetTopology::new(pods(2), vec![edge(0, 2, 0.1)]).is_err());
        assert!(FleetTopology::new(pods(2), vec![edge(0, 1, f64::NAN)]).is_err());
        assert!(FleetTopology::new(pods(2), vec![edge(0, 1, 0.1), edge(0, 1, 0.2)]).is_err());
        assert!(FleetTopology::new(pods(2), vec![edge(0, 1, 0.1)]).is_ok());
    }
}
