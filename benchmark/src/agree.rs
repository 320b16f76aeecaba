//! `check-agreement`: do two result sets of the same code agree within the
//! bounds `BENCHMARK.json` fixes for each end-to-end metric?

use std::process::ExitCode;

use crate::json::{parse, Value};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A metric of a workload's end-to-end run, if that run was correct.
fn metric(set: &Value, workload: &str, name: &str) -> Option<f64> {
    let run = set.get("workloads")?.get(workload)?.get("end_to_end")?;
    if !run.get("correct")?.bool()? {
        return None;
    }
    run.get("metrics")?.get(name)?.get("value")?.num()
}

/// Print every (metric, workload) cell as within or outside its bound:
/// `b` may be worse than `a` by at most that share of `a`.
pub fn check(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = load("BENCHMARK.json").and_then(|spec| Ok((spec, load(a_path)?, load(b_path)?)));
    let (spec, a, b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut outside = 0;
    println!(
        "{:<28} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "metric", "workload", "a", "b", "worse by", "bound"
    );
    for m in spec.get("end_to_end").map_or(&[][..], Value::items) {
        let (Some(name), Some(bound)) = (
            m.get("name").and_then(Value::str),
            m.get("bound").and_then(Value::num),
        ) else {
            continue;
        };
        let lower_better = m.get("better").and_then(Value::str) != Some("higher");
        for w in spec.get("workloads").map_or(&[][..], Value::items) {
            let Some(workload) = w.get("name").and_then(Value::str) else {
                continue;
            };
            let (Some(va), Some(vb)) = (metric(&a, workload, name), metric(&b, workload, name))
            else {
                println!("{name:<28} {workload:<18} missing or from an incorrect run: outside");
                outside += 1;
                continue;
            };
            let worse = if lower_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let verdict = if worse <= bound { "within" } else { "OUTSIDE" };
            if worse > bound {
                outside += 1;
            }
            println!(
                "{name:<28} {workload:<18} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if outside == 0 {
        println!("every cell within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{outside} cells outside their bounds");
        ExitCode::FAILURE
    }
}
