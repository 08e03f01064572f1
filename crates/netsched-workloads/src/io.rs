//! JSON serialization of problems, workloads and scenarios.
//!
//! Built on the hand-rolled [`crate::json`] layer (no external
//! dependencies). Problems serialize through their public constructor API
//! (edges, capacities, demands), so a deserialized [`TreeProblem`] or
//! [`LineProblem`] is always fully indexed and queryable.

use crate::demand_gen::{HeightDistribution, ProfitDistribution};
use crate::dynamic::ChurnSpec;
use crate::json::{FromJson, JsonValue, ToJson};
use crate::line_gen::LineWorkload;
use crate::scenarios::Scenario;
use crate::tree_gen::{TreeTopology, TreeWorkload};
use netsched_graph::{LineProblem, NetworkId, TreeProblem, VertexId};
use std::path::Path;

/// Serializes any [`ToJson`] value to compact JSON (see [`JsonValue::render`]).
pub fn to_json_string<T: ToJson>(value: &T) -> Result<String, String> {
    Ok(value.to_json().render())
}

/// Deserializes a [`FromJson`] value from JSON text.
pub fn from_json_str<T: FromJson>(json: &str) -> Result<T, String> {
    T::from_json(&JsonValue::parse(json)?)
}

/// Writes a serializable value to a JSON file.
pub fn write_json<T: ToJson, P: AsRef<Path>>(path: P, value: &T) -> Result<(), String> {
    let json = to_json_string(value)?;
    std::fs::write(path, json).map_err(|e| e.to_string())
}

/// Reads a value from a JSON file.
pub fn read_json<T: FromJson, P: AsRef<Path>>(path: P) -> Result<T, String> {
    let data = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    from_json_str(&data)
}

/// Parses a tree problem from JSON (the problem is rebuilt through its
/// constructor API, so all internal indices are ready for queries).
pub fn tree_problem_from_json(json: &str) -> Result<TreeProblem, String> {
    from_json_str(json)
}

/// Parses a line problem from JSON.
pub fn line_problem_from_json(json: &str) -> Result<LineProblem, String> {
    from_json_str(json)
}

fn access_to_json(access: &[NetworkId]) -> JsonValue {
    JsonValue::Array(access.iter().map(|t| JsonValue::int(t.index())).collect())
}

fn access_from_json(value: &JsonValue) -> Result<Vec<NetworkId>, String> {
    value
        .as_array()?
        .iter()
        .map(|t| Ok(NetworkId::new(t.as_usize()?)))
        .collect()
}

impl ToJson for TreeProblem {
    fn to_json(&self) -> JsonValue {
        let networks: Vec<JsonValue> = (0..self.num_networks())
            .map(|t| {
                let id = NetworkId::new(t);
                let edges: Vec<JsonValue> = self
                    .network(id)
                    .edges()
                    .map(|(_, (u, v))| {
                        JsonValue::Array(vec![JsonValue::int(u.index()), JsonValue::int(v.index())])
                    })
                    .collect();
                let capacities: Vec<JsonValue> = self
                    .capacities(id)
                    .iter()
                    .map(|&c| JsonValue::num(c))
                    .collect();
                JsonValue::object(vec![
                    ("edges", JsonValue::Array(edges)),
                    ("capacities", JsonValue::Array(capacities)),
                ])
            })
            .collect();
        let demands: Vec<JsonValue> = self
            .demands()
            .iter()
            .map(|d| {
                JsonValue::object(vec![
                    ("u", JsonValue::int(d.u.index())),
                    ("v", JsonValue::int(d.v.index())),
                    ("profit", JsonValue::num(d.profit)),
                    ("height", JsonValue::num(d.height)),
                    ("access", access_to_json(self.access(d.id))),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("vertices", JsonValue::int(self.num_vertices())),
            ("networks", JsonValue::Array(networks)),
            ("demands", JsonValue::Array(demands)),
        ])
    }
}

impl FromJson for TreeProblem {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let vertices = value.field("vertices")?.as_usize()?;
        let mut problem = TreeProblem::new(vertices);
        for network in value.field("networks")?.as_array()? {
            let edges: Vec<(VertexId, VertexId)> = network
                .field("edges")?
                .as_array()?
                .iter()
                .map(|edge| {
                    let pair = edge.as_array()?;
                    if pair.len() != 2 {
                        return Err("edge must be a [u, v] pair".to_string());
                    }
                    Ok((
                        VertexId::new(pair[0].as_usize()?),
                        VertexId::new(pair[1].as_usize()?),
                    ))
                })
                .collect::<Result<_, String>>()?;
            let id = problem
                .add_network(edges.clone())
                .map_err(|e| e.to_string())?;
            // The file's capacities array is positional *in file edge
            // order*, but `add_network` canonicalizes edge ids (HLD order),
            // so each capacity must be resolved through its edge's
            // end-points — never through the positional index.
            let capacities = network.field("capacities")?.as_array()?;
            if capacities.len() != edges.len() {
                return Err(format!(
                    "network {id}: {} capacities for {} edges",
                    capacities.len(),
                    edges.len()
                ));
            }
            for (&(u, v), cap) in edges.iter().zip(capacities) {
                let cap = cap.as_f64()?;
                if (cap - 1.0).abs() > f64::EPSILON {
                    problem
                        .set_capacity_between(id, u, v, cap)
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        for demand in value.field("demands")?.as_array()? {
            problem
                .add_demand(
                    VertexId::new(demand.field("u")?.as_usize()?),
                    VertexId::new(demand.field("v")?.as_usize()?),
                    demand.field("profit")?.as_f64()?,
                    demand.field("height")?.as_f64()?,
                    access_from_json(demand.field("access")?)?,
                )
                .map_err(|e| e.to_string())?;
        }
        Ok(problem)
    }
}

impl ToJson for LineProblem {
    fn to_json(&self) -> JsonValue {
        let demands: Vec<JsonValue> = self
            .demands()
            .iter()
            .map(|d| {
                JsonValue::object(vec![
                    ("release", JsonValue::int(d.release as usize)),
                    ("deadline", JsonValue::int(d.deadline as usize)),
                    ("processing", JsonValue::int(d.processing as usize)),
                    ("profit", JsonValue::num(d.profit)),
                    ("height", JsonValue::num(d.height)),
                    ("access", access_to_json(self.access(d.id))),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("timeslots", JsonValue::int(self.timeslots())),
            ("resources", JsonValue::int(self.num_resources())),
            ("demands", JsonValue::Array(demands)),
        ])
    }
}

impl FromJson for LineProblem {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let timeslots = value.field("timeslots")?.as_usize()?;
        let resources = value.field("resources")?.as_usize()?;
        let mut problem = LineProblem::new(timeslots, resources);
        for demand in value.field("demands")?.as_array()? {
            problem
                .add_demand(
                    demand.field("release")?.as_u32()?,
                    demand.field("deadline")?.as_u32()?,
                    demand.field("processing")?.as_u32()?,
                    demand.field("profit")?.as_f64()?,
                    demand.field("height")?.as_f64()?,
                    access_from_json(demand.field("access")?)?,
                )
                .map_err(|e| e.to_string())?;
        }
        Ok(problem)
    }
}

impl ToJson for TreeTopology {
    fn to_json(&self) -> JsonValue {
        JsonValue::String(self.label().to_string())
    }
}

impl FromJson for TreeTopology {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let label = value.as_str()?;
        TreeTopology::all()
            .into_iter()
            .find(|t| t.label() == label)
            .ok_or_else(|| format!("unknown tree topology `{label}`"))
    }
}

impl ToJson for ProfitDistribution {
    fn to_json(&self) -> JsonValue {
        match *self {
            ProfitDistribution::Constant(value) => JsonValue::object(vec![
                ("kind", JsonValue::String("constant".to_string())),
                ("value", JsonValue::num(value)),
            ]),
            ProfitDistribution::Uniform { min, max } => JsonValue::object(vec![
                ("kind", JsonValue::String("uniform".to_string())),
                ("min", JsonValue::num(min)),
                ("max", JsonValue::num(max)),
            ]),
            ProfitDistribution::PowerOfTwo { exponents } => JsonValue::object(vec![
                ("kind", JsonValue::String("power_of_two".to_string())),
                ("exponents", JsonValue::int(exponents as usize)),
            ]),
        }
    }
}

impl FromJson for ProfitDistribution {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.field("kind")?.as_str()? {
            "constant" => Ok(ProfitDistribution::Constant(
                value.field("value")?.as_f64()?,
            )),
            "uniform" => Ok(ProfitDistribution::Uniform {
                min: value.field("min")?.as_f64()?,
                max: value.field("max")?.as_f64()?,
            }),
            "power_of_two" => Ok(ProfitDistribution::PowerOfTwo {
                exponents: value.field("exponents")?.as_u32()?,
            }),
            other => Err(format!("unknown profit distribution `{other}`")),
        }
    }
}

impl ToJson for HeightDistribution {
    fn to_json(&self) -> JsonValue {
        match *self {
            HeightDistribution::Unit => {
                JsonValue::object(vec![("kind", JsonValue::String("unit".to_string()))])
            }
            HeightDistribution::Uniform { min, max } => JsonValue::object(vec![
                ("kind", JsonValue::String("uniform".to_string())),
                ("min", JsonValue::num(min)),
                ("max", JsonValue::num(max)),
            ]),
            HeightDistribution::Narrow { min } => JsonValue::object(vec![
                ("kind", JsonValue::String("narrow".to_string())),
                ("min", JsonValue::num(min)),
            ]),
            HeightDistribution::Mixed {
                wide_fraction,
                min_narrow,
            } => JsonValue::object(vec![
                ("kind", JsonValue::String("mixed".to_string())),
                ("wide_fraction", JsonValue::num(wide_fraction)),
                ("min_narrow", JsonValue::num(min_narrow)),
            ]),
        }
    }
}

impl FromJson for HeightDistribution {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.field("kind")?.as_str()? {
            "unit" => Ok(HeightDistribution::Unit),
            "uniform" => Ok(HeightDistribution::Uniform {
                min: value.field("min")?.as_f64()?,
                max: value.field("max")?.as_f64()?,
            }),
            "narrow" => Ok(HeightDistribution::Narrow {
                min: value.field("min")?.as_f64()?,
            }),
            "mixed" => Ok(HeightDistribution::Mixed {
                wide_fraction: value.field("wide_fraction")?.as_f64()?,
                min_narrow: value.field("min_narrow")?.as_f64()?,
            }),
            other => Err(format!("unknown height distribution `{other}`")),
        }
    }
}

/// Reads the optional `access_skew` field (absent in pre-skew files).
fn optional_skew(value: &JsonValue) -> Result<f64, String> {
    match value.field("access_skew") {
        Ok(v) => v.as_f64(),
        Err(_) => Ok(0.0),
    }
}

impl ToJson for TreeWorkload {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("vertices", JsonValue::int(self.vertices)),
            ("networks", JsonValue::int(self.networks)),
            ("demands", JsonValue::int(self.demands)),
            ("topology", self.topology.to_json()),
            (
                "access_probability",
                JsonValue::num(self.access_probability),
            ),
            ("access_skew", JsonValue::num(self.access_skew)),
            ("profits", self.profits.to_json()),
            ("heights", self.heights.to_json()),
            ("seed", JsonValue::u64_value(self.seed)),
        ])
    }
}

impl FromJson for TreeWorkload {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(TreeWorkload {
            vertices: value.field("vertices")?.as_usize()?,
            networks: value.field("networks")?.as_usize()?,
            demands: value.field("demands")?.as_usize()?,
            topology: TreeTopology::from_json(value.field("topology")?)?,
            access_probability: value.field("access_probability")?.as_f64()?,
            access_skew: optional_skew(value)?,
            profits: ProfitDistribution::from_json(value.field("profits")?)?,
            heights: HeightDistribution::from_json(value.field("heights")?)?,
            seed: value.field("seed")?.as_u64()?,
        })
    }
}

impl ToJson for LineWorkload {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("timeslots", JsonValue::int(self.timeslots as usize)),
            ("resources", JsonValue::int(self.resources)),
            ("demands", JsonValue::int(self.demands)),
            ("min_length", JsonValue::int(self.min_length as usize)),
            ("max_length", JsonValue::int(self.max_length as usize)),
            ("max_slack", JsonValue::int(self.max_slack as usize)),
            (
                "access_probability",
                JsonValue::num(self.access_probability),
            ),
            ("access_skew", JsonValue::num(self.access_skew)),
            ("profits", self.profits.to_json()),
            ("heights", self.heights.to_json()),
            ("seed", JsonValue::u64_value(self.seed)),
        ])
    }
}

impl FromJson for LineWorkload {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(LineWorkload {
            timeslots: value.field("timeslots")?.as_u32()?,
            resources: value.field("resources")?.as_usize()?,
            demands: value.field("demands")?.as_usize()?,
            min_length: value.field("min_length")?.as_u32()?,
            max_length: value.field("max_length")?.as_u32()?,
            max_slack: value.field("max_slack")?.as_u32()?,
            access_probability: value.field("access_probability")?.as_f64()?,
            access_skew: optional_skew(value)?,
            profits: ProfitDistribution::from_json(value.field("profits")?)?,
            heights: HeightDistribution::from_json(value.field("heights")?)?,
            seed: value.field("seed")?.as_u64()?,
        })
    }
}

impl ToJson for ChurnSpec {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("epochs", JsonValue::int(self.epochs)),
            ("churn", JsonValue::num(self.churn)),
            ("focus", JsonValue::int(self.focus)),
            ("seed", JsonValue::u64_value(self.seed)),
        ])
    }
}

impl FromJson for ChurnSpec {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(ChurnSpec {
            epochs: value.field("epochs")?.as_usize()?,
            churn: value.field("churn")?.as_f64()?,
            focus: value.field("focus")?.as_usize()?,
            seed: value.field("seed")?.as_u64()?,
        })
    }
}

/// Reads the optional `churn` field (absent in pre-dynamic scenario files
/// and for static scenarios).
fn optional_churn(value: &JsonValue) -> Result<Option<ChurnSpec>, String> {
    match value.field("churn") {
        Ok(v) => Ok(Some(ChurnSpec::from_json(v)?)),
        Err(_) => Ok(None),
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> JsonValue {
        let (kind, name, description, workload, churn) = match self {
            Scenario::Tree {
                name,
                description,
                workload,
                churn,
            } => ("tree", name, description, workload.to_json(), churn),
            Scenario::Line {
                name,
                description,
                workload,
                churn,
            } => ("line", name, description, workload.to_json(), churn),
        };
        let mut fields = vec![
            ("kind", JsonValue::String(kind.to_string())),
            ("name", JsonValue::String(name.clone())),
            ("description", JsonValue::String(description.clone())),
            ("workload", workload),
        ];
        if let Some(churn) = churn {
            fields.push(("churn", churn.to_json()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for Scenario {
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let name = value.field("name")?.as_str()?.to_string();
        let description = value.field("description")?.as_str()?.to_string();
        let churn = optional_churn(value)?;
        match value.field("kind")?.as_str()? {
            "tree" => Ok(Scenario::Tree {
                name,
                description,
                workload: TreeWorkload::from_json(value.field("workload")?)?,
                churn,
            }),
            "line" => Ok(Scenario::Line {
                name,
                description,
                workload: LineWorkload::from_json(value.field("workload")?)?,
                churn,
            }),
            other => Err(format!("unknown scenario kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::named_scenarios;

    #[test]
    fn tree_problem_json_roundtrip() {
        let p = TreeWorkload {
            vertices: 20,
            networks: 2,
            demands: 10,
            ..TreeWorkload::default()
        }
        .build()
        .unwrap();
        let json = to_json_string(&p).unwrap();
        let q = tree_problem_from_json(&json).unwrap();
        assert_eq!(p.num_demands(), q.num_demands());
        assert_eq!(p.num_networks(), q.num_networks());
        // The rebuilt problem supports path queries (indices rebuilt).
        let u = q.universe();
        assert_eq!(u.num_instances(), p.universe().num_instances());
    }

    #[test]
    fn capacities_survive_the_roundtrip() {
        let mut p = TreeWorkload {
            vertices: 12,
            networks: 1,
            demands: 6,
            ..TreeWorkload::default()
        }
        .build()
        .unwrap();
        p.set_capacity(NetworkId::new(0), 3, 2.5).unwrap();
        let q = tree_problem_from_json(&to_json_string(&p).unwrap()).unwrap();
        assert_eq!(q.capacities(NetworkId::new(0))[3], 2.5);
        assert_eq!(q.capacities(NetworkId::new(0))[0], 1.0);
    }

    #[test]
    fn capacities_follow_physical_links_for_externally_ordered_edges() {
        // Hand-authored file whose edge list is NOT in canonical HLD order
        // (the light leaf edge is listed first): the loader must attach
        // each positional capacity to the link named by its end-points, not
        // to whatever edge ends up at that index after canonicalization.
        let json = r#"{
            "vertices": 5,
            "networks": [{
                "edges": [[0, 4], [0, 1], [1, 2], [2, 3]],
                "capacities": [7.5, 1.0, 1.0, 3.0]
            }],
            "demands": [
                {"u": 0, "v": 4, "profit": 1.0, "height": 1.0, "access": [0]}
            ]
        }"#;
        let p = tree_problem_from_json(json).unwrap();
        let network = p.network(NetworkId::new(0));
        for (e, (u, v)) in network.edges() {
            let expected = match (u.index().min(v.index()), u.index().max(v.index())) {
                (0, 4) => 7.5,
                (2, 3) => 3.0,
                _ => 1.0,
            };
            assert_eq!(
                p.capacities(NetworkId::new(0))[e.index()],
                expected,
                "capacity of link {u}-{v}"
            );
        }
        // A mismatched capacities array is rejected, not silently padded.
        let bad = json.replace("[7.5, 1.0, 1.0, 3.0]", "[7.5, 1.0]");
        assert!(tree_problem_from_json(&bad).is_err());
    }

    #[test]
    fn line_problem_json_roundtrip() {
        let p = LineWorkload::default().build().unwrap();
        let json = to_json_string(&p).unwrap();
        let q = line_problem_from_json(&json).unwrap();
        assert_eq!(p.num_demands(), q.num_demands());
        assert_eq!(p.universe().num_instances(), q.universe().num_instances());
    }

    #[test]
    fn workload_descriptions_roundtrip() {
        let w = TreeWorkload::default();
        let json = to_json_string(&w).unwrap();
        let back: TreeWorkload = from_json_str(&json).unwrap();
        assert_eq!(w, back);
        let w = LineWorkload::default();
        let json = to_json_string(&w).unwrap();
        let back: LineWorkload = from_json_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn every_named_scenario_roundtrips() {
        for scenario in named_scenarios() {
            let json = to_json_string(&scenario).unwrap();
            let back: Scenario = from_json_str(&json).unwrap();
            assert_eq!(scenario.name(), back.name());
            assert_eq!(scenario.description(), back.description());
            assert_eq!(scenario.churn(), back.churn(), "{}", scenario.name());
        }
    }

    #[test]
    fn churn_scenarios_roundtrip_their_spec() {
        let churn = named_scenarios()
            .into_iter()
            .find(|s| s.name() == "churn-line")
            .expect("churn-line registered");
        assert!(churn.churn().is_some());
        let back: Scenario = from_json_str(&to_json_string(&churn).unwrap()).unwrap();
        let spec = back.churn().expect("churn survives the roundtrip");
        assert_eq!(spec, churn.churn().unwrap());
    }

    #[test]
    fn pre_dynamic_scenario_files_parse_with_no_churn() {
        // A scenario file written before the `churn` field existed must
        // still load (backwards-compatible optional field).
        let json = r#"{
            "kind": "line",
            "name": "old-scenario",
            "description": "a static scenario from an old file",
            "workload": {
                "timeslots": 32, "resources": 2, "demands": 5,
                "min_length": 1, "max_length": 4, "max_slack": 2,
                "access_probability": 0.5,
                "profits": {"kind": "constant", "value": 1.0},
                "heights": {"kind": "unit"},
                "seed": 3
            }
        }"#;
        let back: Scenario = from_json_str(json).unwrap();
        assert!(back.churn().is_none());
        assert_eq!(back.name(), "old-scenario");
    }

    #[test]
    fn seeds_beyond_2_pow_53_roundtrip_exactly() {
        let w = TreeWorkload {
            seed: (1 << 60) + 1,
            ..TreeWorkload::default()
        };
        let back: TreeWorkload = from_json_str(&to_json_string(&w).unwrap()).unwrap();
        assert_eq!(back.seed, (1 << 60) + 1);
        let w = LineWorkload {
            seed: u64::MAX,
            ..LineWorkload::default()
        };
        let back: LineWorkload = from_json_str(&to_json_string(&w).unwrap()).unwrap();
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn file_io_roundtrip() {
        let dir = std::env::temp_dir().join("netsched-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("workload.json");
        let w = LineWorkload::default();
        write_json(&path, &w).unwrap();
        let back: LineWorkload = read_json(&path).unwrap();
        assert_eq!(w, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(from_json_str::<LineWorkload>("{not json").is_err());
        assert!(read_json::<LineWorkload, _>("/nonexistent/netsched.json").is_err());
    }
}
