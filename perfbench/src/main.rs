//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out DIR]`
//!
//! Prints every metric as `name value unit`, then one JSON line with
//! `correct`, `attempted`, `failed` and every metric of the mode: the
//! end-to-end metrics untraced, and the per-layer metrics as well when
//! traced. Exits with 1 when the output check fails, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use nbkv_perfbench::{run, spec, Metric, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out DIR]"
    );
    let names: Vec<_> = spec::all().iter().map(|s| s.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => opts.seconds = Duration::from_secs_f64(s),
                _ => return usage("--seconds takes a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(spec) = spec::by_name(&name) else {
        return usage(&format!("unknown workload {name}"));
    };

    let out = run(&spec, &opts);
    println!(
        "workload {} seed {} reps {} traced_reps {}",
        spec.name, opts.seed, out.reps, out.traced_reps
    );
    println!(
        "samples get {} set {} per measured phase; attempted {} failed {} over all phases",
        out.samples.0, out.samples.1, out.attempted, out.failed
    );
    for p in &out.problems {
        println!("problem: {p}");
    }
    let mut shown: Vec<&Metric> = out.end_to_end.iter().collect();
    shown.extend(&out.per_layer);
    for mt in &shown {
        println!("{} {} {}", mt.name, mt.value, mt.unit);
    }
    let metrics: Vec<String> = shown
        .iter()
        .map(|mt| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                mt.name,
                json_number(mt.value),
                mt.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
