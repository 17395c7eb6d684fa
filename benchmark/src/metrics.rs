//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `../BENCHMARK.json` lists the same
//! names (a unit test compares the two), and README.md says what each one
//! measures and which end-to-end metric each layer metric should move.

use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve-wide",
        why: "one IP per user: many light sessions per tick, so a tick is a kNN + Eq. 3/4 job",
    },
    Workload {
        name: "serve-dense",
        why: "40 users per NAT IP, fragmented TLS + DNS: few huge sessions, tick is window close, packets take net's slow path",
    },
    Workload {
        name: "serve-update",
        why: "serve-wide traffic with online skipgram updates and hot-swapped versions: writes beside reads",
    },
    Workload {
        name: "batch-large",
        why: "10^5-hostname world through generate, train, IVF index and batch profiling: net does nothing",
    },
    Workload {
        name: "batch-ctr",
        why: "the paper's world-to-CTR verdict: daily retrains, per-tick profiles, ad selection and clicks",
    },
];

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse before a change counts as a regression.
pub const END_TO_END: [(Metric, f64); 4] = [
    (
        Metric {
            name: "input_per_s",
            unit: "1/s",
            better: Better::Higher,
        },
        0.25,
    ),
    (
        Metric {
            name: "step_p50_ms",
            unit: "ms",
            better: Better::Lower,
        },
        0.25,
    ),
    (
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            better: Better::Lower,
        },
        0.15,
    ),
    (
        Metric {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
        },
        0.25,
    ),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics; the layers are the crates. A workload that never
/// enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 41] = [
    layer("net.observe_ns_per_pkt", "ns", Lower),
    layer("net.obs_per_pkt", "ratio", Higher),
    layer("net.slow_path_share", "ratio", Lower),
    layer("net.parse_errors", "count", Lower),
    layer("net.synth_ns_per_pkt", "ns", Lower),
    layer("core.window_insert_ns_per_obs", "ns", Lower),
    layer("core.window_close_ms_per_tick", "ms", Lower),
    layer("core.session_build_us_per_session", "us", Lower),
    layer("core.profile_us_per_session", "us", Lower),
    layer("core.profile_self_us_per_session", "us", Lower),
    layer("core.report_us_per_session", "us", Lower),
    layer("core.tick_tail_ms", "ms", Lower),
    layer("core.tick_max_ms", "ms", Lower),
    layer("core.tick_share", "ratio", Lower),
    layer("core.sessions_per_tick_mean", "count", Lower),
    layer("core.session_len_mean", "count", Lower),
    layer("core.window_resident_events_peak", "count", Lower),
    layer("core.late_dropped", "count", Lower),
    layer("core.version_build_ms", "ms", Lower),
    layer("core.publish_us", "us", Lower),
    layer("core.publish_p50_ms", "ms", Lower),
    layer("core.day_sessions_s", "s", Lower),
    layer("core.train_sequences_s", "s", Lower),
    layer("core.profile_speedup_2t", "ratio", Higher),
    layer("embed.knn_us_per_query", "us", Lower),
    layer("embed.train_tokens_per_s", "1/s", Higher),
    layer("embed.update_tokens_per_s", "1/s", Higher),
    layer("embed.index_build_s", "s", Lower),
    layer("embed.vocab", "count", Higher),
    layer("synth.world_s", "s", Lower),
    layer("synth.stream_ns_per_req", "ns", Lower),
    layer("synth.generate_events_per_s", "1/s", Higher),
    layer("synth.trace_generate_s", "s", Lower),
    layer("store.bytes_per_event", "B", Lower),
    layer("store.flat_write_mb_per_s", "MB/s", Higher),
    layer("store.flat_read_mb_per_s", "MB/s", Higher),
    layer("ads.ctr_run_s", "s", Lower),
    layer("ads.select_us_per_profile", "us", Lower),
    layer("defense.transform_events_per_s", "1/s", Higher),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
];

/// Values a run measured, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|(m, _)| m.name == name)
                || PER_LAYER.iter().any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (each must have been measured, and be positive) or every per-layer
    /// metric (0 where the workload never enters the layer).
    pub fn to_json(&self, traced: bool) -> Result<Value, String> {
        let entry = |m: &Metric, value: f64| {
            (
                m.name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        };
        let mut out = Vec::new();
        if traced {
            for m in &PER_LAYER {
                out.push(entry(m, self.get(m.name).unwrap_or(0.0)));
            }
        } else {
            for (m, _) in &END_TO_END {
                match self.get(m.name) {
                    Some(v) if v.is_finite() && v > 0.0 => out.push(entry(m, v)),
                    other => return Err(format!("{} not measured: {other:?}", m.name)),
                }
            }
        }
        Ok(Value::Map(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all_names() -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let names = all_names();
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for (m, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn units_fit_the_contract() {
        let units = END_TO_END
            .iter()
            .map(|(m, _)| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {u:?}"
            );
        }
    }

    /// `../BENCHMARK.json` is what the driver reads; this file is what the
    /// harness emits. They must name the same things in the same way.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        let top = json.as_map().expect("object");
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |k: &str| &top.iter().find(|(key, _)| key == k).unwrap().1;
        let str_of = |v: &Value, k: &str| -> String {
            let m = v.as_map().unwrap();
            m.iter()
                .find(|(key, _)| key == k)
                .and_then(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("missing {k}"))
                .to_string()
        };

        assert_eq!(field("run_seconds").as_f64(), Some(crate::RUN_SECONDS));

        let listed: Vec<(String, String)> = field("workloads")
            .as_seq()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let emitted: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, emitted);

        let listed: Vec<(String, String, String, f64)> = field("end_to_end")
            .as_seq()
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m
                    .as_map()
                    .unwrap()
                    .iter()
                    .find(|(k, _)| k == "bound")
                    .and_then(|(_, v)| v.as_f64())
                    .expect("bound");
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    bound,
                )
            })
            .collect();
        let emitted: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|(m, b)| (m.name.into(), m.unit.into(), m.better.as_str().into(), *b))
            .collect();
        assert_eq!(listed, emitted);

        let listed: Vec<(String, String, String)> = field("per_layer")
            .as_seq()
            .unwrap()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let emitted: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, emitted);
    }

    #[test]
    fn untraced_output_refuses_a_missing_or_zero_metric() {
        let mut v = Values::default();
        for (m, _) in &END_TO_END {
            v.set(m.name, 1.5);
        }
        let json = v.to_json(false).unwrap();
        assert_eq!(json.as_map().unwrap().len(), END_TO_END.len());
        v.set("setup_s", 0.0);
        assert!(v.to_json(false).is_err());
        let traced = Values::default().to_json(true).unwrap();
        assert_eq!(traced.as_map().unwrap().len(), PER_LAYER.len());
    }
}
