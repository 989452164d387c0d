//! The `slin-daemon` binary: replays a generated multi-tenant workload
//! through the daemon over the bounded in-process transport and prints
//! the metrics surface as JSON.
//!
//! ```text
//! slin-daemon [--tenants N] [--steps N] [--clients N] [--keys N]
//!             [--skew F] [--error-prob F] [--chunk-frames N] [--seed N]
//!             [--workers N] [--policy SPEC] [--snapshot-every N]
//!             [--metrics json|prom] [--trace PATH]
//! ```
//!
//! `--policy` takes the `key=value` comma list of
//! [`slin_daemon::TenantPolicy::parse`], e.g.
//! `--policy queue=64,window=16,lossy=true`.
//!
//! `--metrics` picks the final exposition format: `json` (the registry's
//! `slin-obs/v1` snapshot, the default) or `prom` (Prometheus text
//! format).
//! `--trace PATH` enables span tracing and writes a Chrome trace-event
//! file loadable in Perfetto / `chrome://tracing`.

// The bin is its own crate: the library's hot-path lint does not reach it.
#![deny(clippy::unwrap_used)]

use slin_daemon::{generate, transport, Daemon, DaemonConfig, LoadConfig, TenantPolicy};
use slin_obs::StackObserver;
use std::sync::Arc;

enum MetricsFormat {
    Json,
    Prom,
}

struct Args {
    load: LoadConfig,
    workers: usize,
    policy: TenantPolicy,
    snapshot_every: usize,
    metrics: MetricsFormat,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        load: LoadConfig {
            tenants: 64,
            steps_per_tenant: 200,
            ..LoadConfig::default()
        },
        workers: 4,
        policy: TenantPolicy::default(),
        snapshot_every: 16,
        metrics: MetricsFormat::Json,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--tenants" => args.load.tenants = num(&flag, &value(&flag)?)?,
            "--steps" => args.load.steps_per_tenant = num(&flag, &value(&flag)?)?,
            "--clients" => args.load.clients = num(&flag, &value(&flag)?)?,
            "--keys" => args.load.keys = num(&flag, &value(&flag)?)?,
            "--skew" => args.load.tenant_skew = num(&flag, &value(&flag)?)?,
            "--error-prob" => args.load.error_prob = num(&flag, &value(&flag)?)?,
            "--chunk-frames" => args.load.chunk_frames = num(&flag, &value(&flag)?)?,
            "--seed" => args.load.seed = num(&flag, &value(&flag)?)?,
            "--workers" => args.workers = num(&flag, &value(&flag)?)?,
            "--snapshot-every" => args.snapshot_every = num(&flag, &value(&flag)?)?,
            "--policy" => args.policy = TenantPolicy::parse(&value(&flag)?)?,
            "--metrics" => {
                args.metrics = match value(&flag)?.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prom,
                    other => return Err(format!("bad value for --metrics: {other}")),
                }
            }
            "--trace" => args.trace = Some(value(&flag)?),
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("bad value for {flag}: {e}"))
}

const HELP: &str = "slin-daemon: multi-tenant streaming linearizability monitor

  --tenants N         tenants in the generated workload (default 64)
  --steps N           generation steps per tenant (default 200)
  --clients N         clients per tenant stream (default 4)
  --keys N            keys per tenant key-space (default 4)
  --skew F            Zipf exponent of the tenant interleave (default 1.0)
  --error-prob F      output-perturbation probability (default 0.0)
  --chunk-frames N    frames per transport chunk (default 64)
  --seed N            workload seed (default 0)
  --workers N         worker lanes (default 4)
  --policy SPEC       default tenant policy, key=value comma list
                      (queue, window, lossy, keyed, epoch_force,
                       frontier_cap, archive)
  --snapshot-every N  verdict-snapshot period, in chunks (default 16)
  --metrics FORMAT    final metrics exposition: json (slin-obs/v1 registry
                      snapshot, default), prom (Prometheus text format)
  --trace PATH        collect spans and write a Chrome trace-event file
                      (open in Perfetto or chrome://tracing)";

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slin-daemon: {e}");
            std::process::exit(2);
        }
    };
    let workload = generate(&args.load);
    eprintln!(
        "slin-daemon: {} tenants, {} frames over {} chunks",
        args.load.tenants,
        workload.frames,
        workload.chunks.len()
    );
    let (rx, producer) = transport(workload.chunks, 8);
    let config = DaemonConfig {
        workers: args.workers,
        default_policy: args.policy,
    };
    let mut daemon = if args.trace.is_some() {
        Daemon::with_observer(config, Arc::new(StackObserver::with_tracing(1 << 16)))
    } else {
        Daemon::new(config)
    };
    let mut chunks = 0usize;
    for chunk in rx.iter() {
        if let Err(e) = daemon.ingest_bytes(&chunk) {
            eprintln!("slin-daemon: wire error, dropping stream: {e}");
            break;
        }
        chunks += 1;
        if chunks.is_multiple_of(args.snapshot_every.max(1)) {
            daemon.pump();
            let counts = daemon.poll_verdicts();
            eprintln!(
                "slin-daemon: chunk {chunks}: {} ok, {} violation, {} unknown ({} changed)",
                counts.ok, counts.violation, counts.unknown, counts.changed
            );
        }
    }
    producer.join().expect("producer thread");
    daemon.pump();
    daemon.poll_verdicts();
    if let Some(path) = &args.trace {
        let trace = daemon.chrome_trace_json().expect("tracing enabled");
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("slin-daemon: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("slin-daemon: wrote Chrome trace to {path}");
    }
    match args.metrics {
        MetricsFormat::Json => print!("{}", daemon.obs_snapshot_json()),
        MetricsFormat::Prom => print!("{}", daemon.render_prometheus()),
    }
}
