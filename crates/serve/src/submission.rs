//! The submission wire format: JSON in, validated [`ExperimentPoint`]s out.
//!
//! A submission carries the *full* determinism tuple explicitly — every
//! [`SystemConfig`] field per point, the workload by catalog name, the run
//! options, fault and adversary specs as their `Display` strings — so that
//! a served run is reproducible from the submission text alone and the
//! dedup cache can key on exactly what it received. Campaign expansion
//! (`table1` → points) happens client-side in `tc-bench submit`; the server
//! only ever sees explicit point lists.
//!
//! Parsing is strict: unknown protocol/workload/topology names, missing
//! fields, or a configuration that fails [`SystemConfig::validate`] are
//! rejected with a structured, field-addressed error *before* the job is
//! queued — a malformed submission must never panic a worker.

use std::fmt;

use tc_system::{ExperimentPoint, RunOptions};
use tc_types::{
    AdversarySpec, BandwidthMode, CacheConfig, DirectoryMode, FaultSpec, InterconnectConfig,
    JobPriority, Json, ProcessorConfig, ProtocolKind, SystemConfig, TokenConfig, TopologyKind,
};
use tc_workloads::WorkloadProfile;

/// Hard ceiling on points per submission; a sweep bigger than this should
/// be split into multiple jobs so status stays legible and one job cannot
/// monopolize the queue forever.
pub const MAX_POINTS_PER_SUBMISSION: usize = 65_536;

/// A structured rejection: what was wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitError {
    /// Dotted path to the offending field, e.g. `points[2].config.protocol`.
    pub field: String,
    /// What was wrong with it.
    pub message: String,
}

impl SubmitError {
    fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        SubmitError {
            field: field.into(),
            message: message.into(),
        }
    }

    /// Renders the error as the JSON object the server returns with a 400.
    pub fn to_json(&self) -> String {
        let obj = Json::obj([
            ("error", Json::Str(self.message.clone())),
            ("field", Json::Str(self.field.clone())),
        ]);
        obj.to_string()
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for SubmitError {}

/// A validated experiment submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Queue priority; higher-priority jobs are dequeued first.
    pub priority: JobPriority,
    /// Campaign-wide run options (per-point faults may override `faults`).
    pub options: RunOptions,
    /// The points to run, in submission order.
    pub points: Vec<ExperimentPoint>,
}

// ---------------------------------------------------------------------------
// Serialization (client side)
// ---------------------------------------------------------------------------

fn num_usize(v: usize) -> Json {
    Json::u64(v as u64)
}

/// `{:?}` is Rust's shortest-round-trip float formatting: parsing the token
/// back with `str::parse::<f64>` recovers the exact bits, which the cache
/// key and the bit-identical serving contract both rely on.
fn num_f64(v: f64) -> Json {
    Json::Num(format!("{v:?}"))
}

fn cache_to_json(c: &CacheConfig) -> Json {
    Json::obj([
        ("size_bytes", Json::u64(c.size_bytes)),
        ("associativity", num_usize(c.associativity)),
        ("latency_ns", Json::u64(c.latency_ns)),
    ])
}

fn config_to_json(c: &SystemConfig) -> Json {
    Json::obj([
        ("num_nodes", num_usize(c.num_nodes)),
        ("block_bytes", Json::u64(c.block_bytes)),
        ("l1", cache_to_json(&c.l1)),
        ("l2", cache_to_json(&c.l2)),
        ("dram_latency_ns", Json::u64(c.dram_latency_ns)),
        ("controller_latency_ns", Json::u64(c.controller_latency_ns)),
        (
            "interconnect",
            Json::obj([
                (
                    "topology",
                    Json::Str(c.interconnect.topology.name().to_string()),
                ),
                (
                    "link_bandwidth_bytes_per_ns",
                    num_f64(c.interconnect.link_bandwidth_bytes_per_ns),
                ),
                ("link_latency_ns", Json::u64(c.interconnect.link_latency_ns)),
                (
                    "bandwidth",
                    Json::Str(bandwidth_name(c.interconnect.bandwidth).to_string()),
                ),
            ]),
        ),
        (
            "processor",
            Json::obj([
                (
                    "max_outstanding_misses",
                    num_usize(c.processor.max_outstanding_misses),
                ),
                ("overlap_window", num_usize(c.processor.overlap_window)),
                (
                    "ops_per_transaction",
                    num_usize(c.processor.ops_per_transaction),
                ),
            ]),
        ),
        ("protocol", Json::Str(c.protocol.name().to_string())),
        (
            "directory_mode",
            Json::Str(directory_name(c.directory_mode).to_string()),
        ),
        (
            "token",
            Json::obj([
                (
                    "tokens_per_block",
                    Json::u64(u64::from(c.token.tokens_per_block)),
                ),
                (
                    "reissues_before_persistent",
                    Json::u64(u64::from(c.token.reissues_before_persistent)),
                ),
                (
                    "reissue_latency_multiplier",
                    num_f64(c.token.reissue_latency_multiplier),
                ),
                (
                    "persistent_latency_multiplier",
                    num_f64(c.token.persistent_latency_multiplier),
                ),
                (
                    "migratory_optimization",
                    Json::Bool(c.token.migratory_optimization),
                ),
            ]),
        ),
        ("seed", Json::u64(c.seed)),
    ])
}

fn bandwidth_name(mode: BandwidthMode) -> &'static str {
    match mode {
        BandwidthMode::Limited => "Limited",
        BandwidthMode::Unlimited => "Unlimited",
    }
}

fn directory_name(mode: DirectoryMode) -> &'static str {
    match mode {
        DirectoryMode::InDram => "InDram",
        DirectoryMode::Perfect => "Perfect",
    }
}

impl Submission {
    /// Serializes the submission to the wire form [`Submission::parse`]
    /// accepts. Round-trips exactly: enums by name, floats shortest-form.
    pub fn to_json(&self) -> String {
        let o = &self.options;
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj([
                    ("label", Json::Str(p.label.clone())),
                    ("config", config_to_json(&p.config)),
                    ("workload", Json::Str(p.workload.name.to_string())),
                    ("faults", Json::Str(p.faults.to_string())),
                ])
            })
            .collect();
        Json::obj([
            ("priority", Json::Str(self.priority.name().to_string())),
            ("ops_per_node", Json::u64(o.ops_per_node)),
            ("max_cycles", Json::u64(o.max_cycles)),
            ("faults", Json::Str(o.faults.to_string())),
            ("adversary", Json::Str(o.adversary.to_string())),
            (
                "livelock_events_budget",
                Json::u64(o.livelock_events_budget),
            ),
            (
                "checkpoint_every",
                o.checkpoint_every.map_or(Json::Null, Json::u64),
            ),
            ("points", Json::Arr(points)),
        ])
        .to_string()
    }
}

// ---------------------------------------------------------------------------
// Parsing (server side)
// ---------------------------------------------------------------------------

fn want<'a>(obj: &'a Json, field: &str, path: &str) -> Result<&'a Json, SubmitError> {
    obj.get(field)
        .ok_or_else(|| SubmitError::new(join(path, field), "missing required field"))
}

fn join(path: &str, field: &str) -> String {
    if path.is_empty() {
        field.to_string()
    } else {
        format!("{path}.{field}")
    }
}

fn get_u64(obj: &Json, field: &str, path: &str) -> Result<u64, SubmitError> {
    want(obj, field, path)?
        .as_u64()
        .ok_or_else(|| SubmitError::new(join(path, field), "expected a non-negative integer"))
}

fn get_usize(obj: &Json, field: &str, path: &str) -> Result<usize, SubmitError> {
    Ok(get_u64(obj, field, path)? as usize)
}

fn get_f64(obj: &Json, field: &str, path: &str) -> Result<f64, SubmitError> {
    want(obj, field, path)?
        .as_f64()
        .ok_or_else(|| SubmitError::new(join(path, field), "expected a number"))
}

fn get_bool(obj: &Json, field: &str, path: &str) -> Result<bool, SubmitError> {
    want(obj, field, path)?
        .as_bool()
        .ok_or_else(|| SubmitError::new(join(path, field), "expected true or false"))
}

fn get_str<'a>(obj: &'a Json, field: &str, path: &str) -> Result<&'a str, SubmitError> {
    want(obj, field, path)?
        .as_str()
        .ok_or_else(|| SubmitError::new(join(path, field), "expected a string"))
}

fn parse_cache(obj: &Json, path: &str) -> Result<CacheConfig, SubmitError> {
    Ok(CacheConfig {
        size_bytes: get_u64(obj, "size_bytes", path)?,
        associativity: get_usize(obj, "associativity", path)?,
        latency_ns: get_u64(obj, "latency_ns", path)?,
    })
}

fn parse_config(obj: &Json, path: &str) -> Result<SystemConfig, SubmitError> {
    let protocol_name = get_str(obj, "protocol", path)?;
    let protocol = ProtocolKind::by_name(protocol_name).ok_or_else(|| {
        SubmitError::new(
            join(path, "protocol"),
            format!(
                "unknown protocol `{protocol_name}` (expected one of: {})",
                ProtocolKind::ALL.map(|p| p.name()).join(", ")
            ),
        )
    })?;
    let ic = want(obj, "interconnect", path)?;
    let ic_path = join(path, "interconnect");
    let topology = match get_str(ic, "topology", &ic_path)? {
        t if t.eq_ignore_ascii_case("tree") => TopologyKind::Tree,
        t if t.eq_ignore_ascii_case("torus") => TopologyKind::Torus,
        t => {
            return Err(SubmitError::new(
                join(&ic_path, "topology"),
                format!("unknown topology `{t}` (expected Tree or Torus)"),
            ))
        }
    };
    let bandwidth = match get_str(ic, "bandwidth", &ic_path)? {
        b if b.eq_ignore_ascii_case("limited") => BandwidthMode::Limited,
        b if b.eq_ignore_ascii_case("unlimited") => BandwidthMode::Unlimited,
        b => {
            return Err(SubmitError::new(
                join(&ic_path, "bandwidth"),
                format!("unknown bandwidth mode `{b}` (expected Limited or Unlimited)"),
            ))
        }
    };
    let directory_mode = match get_str(obj, "directory_mode", path)? {
        d if d.eq_ignore_ascii_case("indram") => DirectoryMode::InDram,
        d if d.eq_ignore_ascii_case("perfect") => DirectoryMode::Perfect,
        d => {
            return Err(SubmitError::new(
                join(path, "directory_mode"),
                format!("unknown directory mode `{d}` (expected InDram or Perfect)"),
            ))
        }
    };
    let proc = want(obj, "processor", path)?;
    let proc_path = join(path, "processor");
    let token = want(obj, "token", path)?;
    let token_path = join(path, "token");
    let config = SystemConfig {
        num_nodes: get_usize(obj, "num_nodes", path)?,
        block_bytes: get_u64(obj, "block_bytes", path)?,
        l1: parse_cache(want(obj, "l1", path)?, &join(path, "l1"))?,
        l2: parse_cache(want(obj, "l2", path)?, &join(path, "l2"))?,
        dram_latency_ns: get_u64(obj, "dram_latency_ns", path)?,
        controller_latency_ns: get_u64(obj, "controller_latency_ns", path)?,
        interconnect: InterconnectConfig {
            topology,
            link_bandwidth_bytes_per_ns: get_f64(ic, "link_bandwidth_bytes_per_ns", &ic_path)?,
            link_latency_ns: get_u64(ic, "link_latency_ns", &ic_path)?,
            bandwidth,
        },
        processor: ProcessorConfig {
            max_outstanding_misses: get_usize(proc, "max_outstanding_misses", &proc_path)?,
            overlap_window: get_usize(proc, "overlap_window", &proc_path)?,
            ops_per_transaction: get_usize(proc, "ops_per_transaction", &proc_path)?,
        },
        protocol,
        directory_mode,
        token: TokenConfig {
            tokens_per_block: get_u64(token, "tokens_per_block", &token_path)? as u32,
            reissues_before_persistent: get_u64(token, "reissues_before_persistent", &token_path)?
                as u32,
            reissue_latency_multiplier: get_f64(token, "reissue_latency_multiplier", &token_path)?,
            persistent_latency_multiplier: get_f64(
                token,
                "persistent_latency_multiplier",
                &token_path,
            )?,
            migratory_optimization: get_bool(token, "migratory_optimization", &token_path)?,
        },
        seed: get_u64(obj, "seed", path)?,
    };
    config
        .validate()
        .map_err(|e| SubmitError::new(path.to_string(), e.to_string()))?;
    Ok(config)
}

fn parse_faults(text: &str, path: &str) -> Result<FaultSpec, SubmitError> {
    FaultSpec::parse(text).map_err(|e| SubmitError::new(path.to_string(), e))
}

impl Submission {
    /// Parses and validates a submission from its JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`SubmitError`] naming the offending field for syntax
    /// errors, missing fields, unknown protocol/workload/topology names,
    /// out-of-range values, and configurations that fail
    /// [`SystemConfig::validate`].
    pub fn parse(text: &str) -> Result<Submission, SubmitError> {
        let root = Json::parse(text)
            .map_err(|e| SubmitError::new("body", format!("invalid JSON: {e}")))?;
        if root.as_object().is_none() {
            return Err(SubmitError::new("body", "expected a JSON object"));
        }

        let priority = match root.get("priority") {
            None => JobPriority::default(),
            Some(p) => {
                let name = p
                    .as_str()
                    .ok_or_else(|| SubmitError::new("priority", "expected a string"))?;
                JobPriority::parse(name).map_err(|e| SubmitError::new("priority", e))?
            }
        };

        let mut options = RunOptions {
            ops_per_node: get_u64(&root, "ops_per_node", "")?,
            max_cycles: get_u64(&root, "max_cycles", "")?,
            faults: parse_faults(get_str(&root, "faults", "")?, "faults")?,
            adversary: AdversarySpec::parse(get_str(&root, "adversary", "")?)
                .map_err(|e| SubmitError::new("adversary", e))?,
            ..RunOptions::default()
        };
        if let Some(budget) = root.get("livelock_events_budget") {
            options.livelock_events_budget = budget.as_u64().ok_or_else(|| {
                SubmitError::new("livelock_events_budget", "expected a non-negative integer")
            })?;
        }
        options.checkpoint_every = match root.get("checkpoint_every") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                SubmitError::new("checkpoint_every", "expected null or an integer")
            })?),
        };
        if options.ops_per_node == 0 {
            return Err(SubmitError::new("ops_per_node", "must be at least 1"));
        }

        let raw_points = want(&root, "points", "")?
            .as_array()
            .ok_or_else(|| SubmitError::new("points", "expected an array"))?;
        if raw_points.is_empty() {
            return Err(SubmitError::new("points", "submission has no points"));
        }
        if raw_points.len() > MAX_POINTS_PER_SUBMISSION {
            return Err(SubmitError::new(
                "points",
                format!(
                    "{} points exceeds the per-submission limit of {MAX_POINTS_PER_SUBMISSION}",
                    raw_points.len()
                ),
            ));
        }

        let mut points = Vec::with_capacity(raw_points.len());
        for (i, p) in raw_points.iter().enumerate() {
            let path = format!("points[{i}]");
            if p.as_object().is_none() {
                return Err(SubmitError::new(path, "expected an object"));
            }
            let label = get_str(p, "label", &path)?.to_string();
            let config = parse_config(want(p, "config", &path)?, &join(&path, "config"))?;
            let workload_name = get_str(p, "workload", &path)?;
            let workload = WorkloadProfile::by_name(workload_name).ok_or_else(|| {
                SubmitError::new(
                    join(&path, "workload"),
                    format!(
                        "unknown workload `{workload_name}` (expected one of: {})",
                        WorkloadProfile::ALL_NAMES.join(", ")
                    ),
                )
            })?;
            let faults = match p.get("faults") {
                None => FaultSpec::none(),
                Some(f) => {
                    let text = f.as_str().ok_or_else(|| {
                        SubmitError::new(join(&path, "faults"), "expected a string")
                    })?;
                    parse_faults(text, &join(&path, "faults"))?
                }
            };
            points.push(ExperimentPoint::new(label, config, workload).with_faults(faults));
        }

        Ok(Submission {
            priority,
            options,
            points,
        })
    }
}

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

/// Derives the dedup-cache key for one point under the given options: the
/// full determinism tuple — configuration, workload, run length, effective
/// fault spec (per-point override applied, mirroring
/// [`ExperimentPoint::run_with`]), livelock budget, checkpoint cadence, and
/// adversary spec. The *label* is deliberately excluded: the same physical
/// experiment under a different name is still the same experiment, and the
/// served line is re-rendered with the submitted label on a hit.
pub fn cache_key(point: &ExperimentPoint, options: &RunOptions) -> String {
    let effective_faults = if point.faults.is_none() {
        options.faults
    } else {
        point.faults
    };
    format!(
        "{:?}|{:?}|ops={}|cycles={}|faults={}|livelock={}|ckpt={:?}|adversary={}",
        point.config,
        point.workload,
        options.ops_per_node,
        options.max_cycles,
        effective_faults,
        options.livelock_events_budget,
        options.checkpoint_every,
        options.adversary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Submission {
        let mut config = SystemConfig::isca03_default().with_nodes(4).with_seed(11);
        config.l2.size_bytes = 256 * 1024;
        let points = vec![
            ExperimentPoint::new("a", config.clone(), WorkloadProfile::specjbb()),
            ExperimentPoint::new(
                "b",
                config.with_protocol(ProtocolKind::Directory),
                WorkloadProfile::oltp(),
            )
            .with_faults(FaultSpec::parse("drop=0.0001").unwrap()),
        ];
        Submission {
            priority: JobPriority::High,
            options: RunOptions {
                ops_per_node: 500,
                max_cycles: 10_000_000,
                ..RunOptions::default()
            },
            points,
        }
    }

    #[test]
    fn submission_round_trips_through_json() {
        let sub = sample();
        let text = sub.to_json();
        let parsed = Submission::parse(&text).expect("round trip must parse");
        assert_eq!(parsed.priority, sub.priority);
        assert_eq!(parsed.options, sub.options);
        assert_eq!(parsed.points.len(), sub.points.len());
        for (got, want) in parsed.points.iter().zip(&sub.points) {
            assert_eq!(got.label, want.label);
            assert_eq!(got.config, want.config);
            assert_eq!(got.workload, want.workload);
            assert_eq!(got.faults, want.faults);
        }
        // And the re-serialization is byte-identical.
        assert_eq!(Submission::parse(&text).unwrap().to_json(), text);
    }

    #[test]
    fn adversary_and_checkpoint_fields_round_trip() {
        let mut sub = sample();
        sub.options.adversary =
            AdversarySpec::parse("reorder=3,seed=9").expect("valid adversary spec");
        sub.options.checkpoint_every = Some(50_000);
        let parsed = Submission::parse(&sub.to_json()).unwrap();
        assert_eq!(parsed.options.adversary.reorder_window, 3);
        assert_eq!(parsed.options.adversary.seed, 9);
        assert_eq!(parsed.options.checkpoint_every, Some(50_000));
    }

    #[test]
    fn unknown_protocol_is_a_structured_error() {
        let text = sample().to_json().replace("\"TokenB\"", "\"TokenZ\"");
        let err = Submission::parse(&text).unwrap_err();
        assert_eq!(err.field, "points[0].config.protocol");
        assert!(err.message.contains("TokenZ"), "{}", err.message);
        assert!(err.message.contains("TokenB"), "{}", err.message);
    }

    #[test]
    fn unknown_workload_is_a_structured_error() {
        let text = sample().to_json().replace("\"SPECjbb\"", "\"speccpu\"");
        let err = Submission::parse(&text).unwrap_err();
        assert_eq!(err.field, "points[0].workload");
        assert!(err.message.contains("speccpu"), "{}", err.message);
    }

    #[test]
    fn invalid_configurations_are_rejected_at_parse_time() {
        // Snooping on the torus fails SystemConfig::validate.
        let mut sub = sample();
        sub.points[0].config = sub.points[0]
            .config
            .clone()
            .with_protocol(ProtocolKind::Snooping)
            .with_topology(TopologyKind::Torus);
        let err = Submission::parse(&sub.to_json()).unwrap_err();
        assert_eq!(err.field, "points[0].config");
        assert!(err.message.contains("snooping"), "{}", err.message);
    }

    #[test]
    fn syntax_and_shape_errors_name_the_field() {
        assert_eq!(Submission::parse("{oops").unwrap_err().field, "body");
        assert_eq!(Submission::parse("[1,2]").unwrap_err().field, "body");
        let no_points = sample().to_json().replace("\"points\"", "\"notpoints\"");
        assert_eq!(Submission::parse(&no_points).unwrap_err().field, "points");
        let err = SubmitError::new("points", "submission has no points");
        assert!(err.to_json().contains("\"field\":\"points\""));
    }

    #[test]
    fn cache_key_ignores_label_but_not_physics() {
        let sub = sample();
        let mut renamed = sub.points[0].clone();
        renamed.label = "renamed".to_string();
        assert_eq!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&renamed, &sub.options)
        );
        let mut reseeded = sub.points[0].clone();
        reseeded.config.seed += 1;
        assert_ne!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&reseeded, &sub.options)
        );
        let mut longer = sub.options;
        longer.ops_per_node += 1;
        assert_ne!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&sub.points[0], &longer)
        );
    }

    #[test]
    fn per_point_faults_override_in_the_cache_key() {
        let sub = sample();
        // Point b carries its own fault spec; changing the campaign-wide
        // spec must not change b's key (run_with overrides it), but must
        // change a's.
        let mut faulted = sub.options;
        faulted.faults = FaultSpec::parse("drop=1e-3").unwrap();
        assert_ne!(
            cache_key(&sub.points[0], &sub.options),
            cache_key(&sub.points[0], &faulted)
        );
        assert_eq!(
            cache_key(&sub.points[1], &sub.options),
            cache_key(&sub.points[1], &faulted)
        );
    }
}
