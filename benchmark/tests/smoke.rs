//! Runs all four workloads at test size, traced, one pass each, and
//! checks what the benchmark promises: every metric `BENCHMARK.json`
//! names is printed with its unit and a finite value, no output check
//! fails, spans nest inside their parents, and `compare` flags a
//! throughput drop past the bound but not a 2% wobble.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_ff_benchmark");

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().unwrap_or_else(|| panic!("`{key}` is not a string"))
}

fn num(v: &Value, key: &str) -> f64 {
    field(v, key).as_f64().unwrap_or_else(|| panic!("`{key}` is not a number"))
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("benchmark binary runs")
}

/// Multiplies the median, quartiles and samples of `metric` in every
/// workload of a results file by `factor`.
fn scale_metric(file: &mut Value, metric: &str, factor: f64) {
    let Value::Object(top) = file else { panic!("results file is an object") };
    let (_, Value::Array(workloads)) = top.iter_mut().find(|(k, _)| k == "workloads").unwrap()
    else {
        panic!("workloads is an array")
    };
    for w in workloads {
        let Value::Object(fields) = w else { panic!("workload is an object") };
        let (_, Value::Array(metrics)) = fields.iter_mut().find(|(k, _)| k == "metrics").unwrap()
        else {
            panic!("metrics is an array")
        };
        for m in metrics {
            if m.get("name").and_then(Value::as_str) != Some(metric) {
                continue;
            }
            let Value::Object(fields) = m else { unreachable!() };
            for (key, value) in fields.iter_mut() {
                match (key.as_str(), value) {
                    ("value" | "p25" | "p75", v) => *v = Value::Float(v.as_f64().unwrap() * factor),
                    ("samples", Value::Array(s)) => {
                        for v in s {
                            *v = Value::Float(v.as_f64().unwrap() * factor);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn tiny_traced_run_reports_checks_and_compares() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (spans, a_path) = (dir.join("spans"), dir.join("a.json"));
    let out = run(&[
        "run",
        "--tiny",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--spans",
        spans.to_str().unwrap(),
        "--out",
        a_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let bench = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let results = read_json(&a_path);
    let workloads = array(field(&results, "workloads"));
    assert_eq!(workloads.len(), array(field(&bench, "workloads")).len());
    for w in workloads {
        let name = str_of(w, "workload");
        assert_eq!(num(w, "failed"), 0.0, "{name}: {:?}", field(w, "failures"));
        assert!(num(w, "attempted") > 0.0, "{name} checked nothing");
        let metrics = array(field(w, "metrics"));
        for section in ["end_to_end", "per_layer"] {
            for def in array(field(&bench, section)) {
                let metric = str_of(def, "name");
                let m = metrics
                    .iter()
                    .find(|m| str_of(m, "name") == metric)
                    .unwrap_or_else(|| panic!("{name}: {metric} not reported"));
                assert_eq!(str_of(m, "unit"), str_of(def, "unit"), "{name}: {metric} unit");
                assert_eq!(
                    str_of(m, "better"),
                    str_of(def, "better"),
                    "{name}: {metric} direction"
                );
                assert!(num(m, "value").is_finite(), "{name}: {metric} is not finite");
                if section == "end_to_end" {
                    assert_eq!(num(m, "bound"), num(def, "bound"), "{name}: {metric} bound");
                    assert!(num(m, "value") > 0.0, "{name}: {metric} reads 0");
                }
                let printed = stdout.lines().any(|l| {
                    let mut cols = l.split_whitespace();
                    cols.next() == Some(metric) && cols.next() == Some(str_of(def, "unit"))
                });
                assert!(printed, "{name}: {metric} not printed with its unit");
            }
        }

        let trace = read_json(&spans.join(format!("{name}.trace.json")));
        let events = array(field(&trace, "traceEvents"));
        assert!(!events.is_empty(), "{name}: no spans");
        for e in events {
            let Some(parent) = field(field(e, "args"), "parent").as_u64() else { continue };
            let p = &events[parent as usize];
            let (start, end) = (num(e, "ts"), num(e, "ts") + num(e, "dur"));
            let (p_start, p_end) = (num(p, "ts"), num(p, "ts") + num(p, "dur"));
            assert!(p_start <= start && end <= p_end + 1e-3, "{name}: span outside its parent");
        }
    }

    // A drop half again past the bound must be flagged; a 2% wobble not.
    let bound = array(field(&bench, "end_to_end"))
        .iter()
        .find(|d| str_of(d, "name") == "mips.2p")
        .map(|d| num(d, "bound"))
        .expect("mips.2p is an end-to-end metric");
    for (factor, regressed) in [(1.0 - 1.5 * bound, true), (0.98, false)] {
        let mut b = read_json(&a_path);
        scale_metric(&mut b, "mips.2p", factor);
        let b_path = dir.join("b.json");
        std::fs::write(&b_path, serde_json::to_string(&b).unwrap()).unwrap();
        let out = run(&["compare", a_path.to_str().unwrap(), b_path.to_str().unwrap()]);
        let table = String::from_utf8_lossy(&out.stdout);
        assert_eq!(!out.status.success(), regressed, "mips.2p x{factor}:\n{table}");
        let worse = table.lines().any(|l| l.contains("mips.2p") && l.ends_with("worse"));
        assert_eq!(worse, regressed, "mips.2p x{factor}:\n{table}");
    }
}
