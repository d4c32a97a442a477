//! The `bgpsim` command-line runner: one convergence experiment per
//! invocation, with human or JSON output.
//!
//! ```text
//! bgpsim --topology clique:15 --event tdown --enhancement ghost-flushing
//! ```

use bgpsim::bgp::BgpConfig;
use bgpsim::cli::{
    parse_args, parse_recover_args, parse_serve_args, CliOptions, RecoverOptions, ServeOptions,
};
use bgpsim::metrics::MetricsRow;
use bgpsim::netsim::time::SimDuration;
use bgpsim::prelude::*;
use bgpsim::runner::{recover_journal, RunCache, RunnerConfig};

use bgpsim::serve::{ServeConfig, Server};

fn main() {
    // The hidden `bgpsim worker` mode (isolated-job child) never returns.
    bgpsim::experiments::binopts::dispatch_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("recover") {
        let opts = match parse_recover_args(&args[1..]) {
            Ok(opts) => opts,
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        };
        recover(&opts);
        return;
    }
    if args.first().map(String::as_str) == Some("serve") {
        let opts = match parse_serve_args(&args[1..]) {
            Ok(opts) => opts,
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        };
        serve(&opts);
        return;
    }
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };
    run(&opts);
    bgpsim::trace::flush_global();
}

/// The `bgpsim recover` subcommand: replays the write-ahead journal,
/// reconciles intents against completions and the run cache, and
/// sweeps stale cache temp files. Exit 1 signals interrupted work.
fn recover(opts: &RecoverOptions) {
    let config = RunnerConfig::from_env().merge(opts.runner.clone());
    let Some(journal) = config.journal_set() else {
        eprintln!("no journal to replay: pass --journal or set BGPSIM_JOURNAL");
        std::process::exit(2);
    };
    let cache = config.cache_dir_set().map(|dir| {
        RunCache::new(dir).unwrap_or_else(|err| {
            eprintln!("cannot open run cache {}: {err}", dir.display());
            std::process::exit(2);
        })
    });
    let report = recover_journal(journal, cache.as_ref());
    println!("{}", report.render());
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// Boots the daemon and blocks until a drain is requested over the
/// API, then finishes in-flight work and exits cleanly.
fn serve(opts: &ServeOptions) {
    // The daemon's flags always set isolation (on unless
    // `--no-isolate`), so a crashing job cannot take the service down.
    let config = RunnerConfig::from_env().merge(opts.runner.clone());
    let journal = config.journal_set().map(std::path::Path::to_path_buf);
    let runner = match config.build() {
        Ok(r) => r,
        Err(err) => {
            eprintln!("runner setup failed: {err}");
            std::process::exit(1);
        }
    };
    // Crash recovery before admission opens: replay the journal the
    // previous lifetime left behind, sweep stale cache temp files, and
    // report what was interrupted (those jobs re-run on resubmission;
    // completed ones are served from the cache).
    if let Some(path) = &journal {
        let report = recover_journal(path, runner.cache());
        if !report.is_clean() || report.lines > 0 {
            println!("{}", report.render());
        }
    }
    let server = match Server::start(
        ServeConfig {
            addr: opts.addr.clone(),
            exec_workers: opts.exec_workers,
            max_queued_runs: opts.max_queued_runs,
        },
        std::sync::Arc::new(runner),
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot bind {}: {err}", opts.addr);
            std::process::exit(1);
        }
    };
    println!("bgpsim serve listening on {}", server.local_addr());
    // No signal handling in this workspace: the daemon runs until a
    // client POSTs /v1/drain, then finishes in-flight work and exits.
    while !server.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    println!("drain requested; finishing in-flight jobs");
    server.shutdown();
    bgpsim::trace::flush_global();
}

/// The scenario a plain CLI invocation describes.
fn scenario_of(opts: &CliOptions) -> ScenarioSpec {
    let config = BgpConfig::default()
        .with_mrai(SimDuration::from_secs(opts.mrai_secs))
        .with_jitter(opts.jitter)
        .with_enhancements(opts.enhancements);
    ScenarioSpec::new(opts.topology.clone(), opts.event)
        .with_config(config)
        .with_seed(opts.seed)
}

/// Prints the measurement block of a scenario result.
fn print_measurement(result: &ScenarioResult) {
    let m = &result.measurement.metrics;
    println!("  destination              : {}", result.destination);
    println!("  failure                  : {}", result.failure.describe());
    println!(
        "  convergence time         : {:>10.2} s",
        m.convergence_secs()
    );
    println!("  overall looping duration : {:>10.2} s", m.looping_secs());
    println!("  TTL exhaustions          : {:>10}", m.ttl_exhaustions);
    println!(
        "  packets during converg.  : {:>10}",
        m.packets_during_convergence
    );
    println!("  looping ratio            : {:>10.3}", m.looping_ratio);
    println!(
        "  messages after failure   : {:>10}",
        m.messages_after_failure
    );
    let c = &result.measurement.census_summary;
    println!(
        "  loops observed           : {:>10}  (sizes {}–{}, 2-node share {:.0}%)",
        c.count,
        c.min_size,
        c.max_size,
        c.two_node_fraction * 100.0
    );
}

fn run(opts: &CliOptions) {
    let scenario = scenario_of(opts);

    if opts.json {
        // The JSON path only needs `PaperMetrics`, so it goes through
        // the runner: with `--cache-dir` (or `BGPSIM_CACHE_DIR`) a
        // repeated invocation is served from the run cache. Flags are
        // layered over the environment, so they win.
        let runner = match RunnerConfig::from_env().merge(opts.runner.clone()).build() {
            Ok(r) => r,
            Err(err) => {
                eprintln!("runner setup failed: {err}");
                std::process::exit(1);
            }
        };
        let node_count = scenario.topology.build().0.node_count();
        let metrics = match runner.run_jobs(vec![scenario.into_job()]) {
            Ok(mut ms) => ms.pop().expect("one job yields one result"),
            Err(err) => {
                eprintln!("run failed: {err}");
                // The failure is already traced (worker_crash etc.);
                // land it before the early exit.
                bgpsim::trace::flush_global();
                std::process::exit(1);
            }
        };
        let row = MetricsRow::from_metrics(
            "cli",
            opts.topology.label(),
            opts.enhancements.label(),
            node_count as f64,
            opts.seed,
            &metrics,
        );
        match bgpsim::metrics::to_json(std::slice::from_ref(&row)) {
            Ok(json) => println!("{json}"),
            Err(err) => {
                eprintln!("serialization failed: {err}");
                std::process::exit(1);
            }
        }
        return;
    }

    // The human report needs the full scenario result (loop census,
    // timeline), which the metrics cache does not carry — run directly.
    // Install the trace sink first so the run emits into it.
    let config = RunnerConfig::from_env().merge(opts.runner.clone());
    if let Some(path) = config.trace_set() {
        if let Err(err) = bgpsim::trace::install_jsonl(path) {
            eprintln!("cannot open trace file {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    let result = scenario.run();
    result.emit_trace(opts.seed);

    println!(
        "{} under {} — variant {}, MRAI {}s, seed {}",
        opts.topology.label(),
        opts.event.label(),
        opts.enhancements.label(),
        opts.mrai_secs,
        opts.seed
    );
    print_measurement(&result);

    if opts.trace {
        println!("\npost-failure timeline (sends, route changes, loops):");
        let fail = result
            .record
            .failure_at
            .expect("scenario injects a failure");
        let timeline =
            bgpsim::metrics::build_timeline(&result.record, &result.measurement.census, fail);
        print!("{}", bgpsim::metrics::render_timeline(&timeline));
    }
}
