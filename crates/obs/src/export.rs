//! Exporters: Prometheus text format and JSON, from a registry snapshot.

use crate::registry::{
    bucket_bounds, quantile_from_buckets, MetricSample, MetricsRegistry, SampleValue,
};
use std::io::{self, Write};

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4): `# TYPE` comments, one cumulative `_bucket` series
/// per histogram bound plus `_sum`/`_count`, stable ordering.
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for sample in registry.snapshot() {
        if sample.name != last_name {
            let kind = match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram { .. } => "histogram",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", sample.name));
            last_name = sample.name;
        }
        render_sample(&mut out, &sample);
    }
    out
}

fn render_sample(out: &mut String, sample: &MetricSample) {
    match &sample.value {
        SampleValue::Counter(v) => {
            out.push_str(&format!(
                "{}{} {v}\n",
                sample.name,
                label_block(&sample.labels, &[])
            ));
        }
        SampleValue::Gauge(v) => {
            out.push_str(&format!(
                "{}{} {}\n",
                sample.name,
                label_block(&sample.labels, &[]),
                format_value(*v)
            ));
        }
        SampleValue::Histogram {
            buckets,
            count,
            sum,
        } => {
            let bounds = bucket_bounds();
            let mut cumulative = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                cumulative += c;
                // Empty buckets are elided (91 mostly-zero lines per
                // histogram would dwarf the real signal); cumulative
                // counts stay correct because `le` is cumulative anyway.
                if c == 0 && i < buckets.len() - 1 {
                    continue;
                }
                let le = if i < bounds.len() {
                    format_value(bounds[i])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{} {cumulative}\n",
                    sample.name,
                    label_block(&sample.labels, &[("le", &le)])
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                sample.name,
                label_block(&sample.labels, &[]),
                format_value(*sum)
            ));
            out.push_str(&format!(
                "{}_count{} {count}\n",
                sample.name,
                label_block(&sample.labels, &[])
            ));
        }
    }
}

/// `{k="v",…}` or the empty string; `extra` pairs are appended last
/// (used for the histogram `le` label).
fn label_block(labels: &[(&'static str, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    // lint:allow(no-blocking-in-deadline-path): string separator join, not a thread join
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus float rendering: shortest decimal repr, `+Inf`/`-Inf`/`NaN`
/// spelled the Prometheus way.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Writes the Prometheus rendering to `w`.
pub fn write_prometheus(registry: &MetricsRegistry, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(render_prometheus(registry).as_bytes())
}

/// Renders the registry as one JSON object: `{"metrics": [...]}` with
/// per-series objects. Histograms carry `count`, `sum`, and a compact
/// `quantiles` summary instead of raw buckets.
pub fn render_json(registry: &MetricsRegistry) -> String {
    let mut out = String::from("{\"metrics\":[");
    let samples = registry.snapshot();
    for (i, sample) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"name\":\"{}\"", sample.name));
        if !sample.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in sample.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":\"{}\"", escape_label(v)));
            }
            out.push('}');
        }
        match &sample.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"))
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!(",\"type\":\"gauge\",\"value\":{}", json_f64(*v)))
            }
            SampleValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                out.push_str(&format!(
                    ",\"type\":\"histogram\",\"count\":{count},\"sum\":{}",
                    json_f64(*sum)
                ));
                out.push_str(&format!(
                    ",\"quantiles\":{{\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    json_f64(quantile_from_buckets(buckets, 0.50)),
                    json_f64(quantile_from_buckets(buckets, 0.90)),
                    json_f64(quantile_from_buckets(buckets, 0.99)),
                ));
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        crate::set_enabled(true);
        MetricsRegistry::new()
    }

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let r = registry();
        r.counter("steps_total", &[("ctrl", "tesla")]).add(7);
        r.gauge("room_celsius", &[]).set(21.5);
        let text = render_prometheus(&r);
        assert!(text.contains("# TYPE steps_total counter"));
        assert!(text.contains("steps_total{ctrl=\"tesla\"} 7"));
        assert!(text.contains("# TYPE room_celsius gauge"));
        assert!(text.contains("room_celsius 21.5"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let r = registry();
        let h = r.histogram("lat_seconds", &[]);
        h.observe(0.005);
        h.observe(0.005);
        h.observe(5000.0); // overflow bucket
        let text = render_prometheus(&r);
        assert!(text.contains("lat_seconds_bucket{le=\"0.005\"} 2"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_seconds_count 3"));
        assert!(text.contains("lat_seconds_sum 5000.01"));
    }

    #[test]
    fn type_comment_emitted_once_per_name() {
        let r = registry();
        r.counter("multi_total", &[("k", "a")]).inc();
        r.counter("multi_total", &[("k", "b")]).inc();
        let text = render_prometheus(&r);
        assert_eq!(text.matches("# TYPE multi_total counter").count(), 1);
    }

    #[test]
    fn json_contains_quantiles() {
        let r = registry();
        let h = r.histogram("x_seconds", &[]);
        for _ in 0..100 {
            h.observe(0.01);
        }
        let json = render_json(&r);
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"p50\":0.01"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = registry();
        r.counter("esc_total", &[("v", "a\"b")]).inc();
        let text = render_prometheus(&r);
        assert!(text.contains("esc_total{v=\"a\\\"b\"} 1"));
    }
}
