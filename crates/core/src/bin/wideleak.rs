//! The `wideleak` command-line tool: the paper's automated monitoring and
//! PoC tooling behind one binary.
//!
//! ```text
//! wideleak study            # regenerate Table I over all ten apps
//! wideleak study netflix    # study one app
//! wideleak attack           # the CVE-2021-0639 sweep (§IV-D)
//! wideleak attack hulu      # attack one app
//! wideleak spoof            # the §V-C forged-L1 experiment
//! wideleak play <slug>      # one instrumented playback with trace dump
//! wideleak resilience       # the Q5 fault-schedule sweep
//! wideleak adapt            # the adaptation study under congestion
//! wideleak load             # the fleet load generator (--quick: CI size)
//! wideleak campaign         # the sharded catalog campaign (--quick: CI size)
//! wideleak serve [ADDR]     # stand up a wire-framed TCP media DRM server
//! wideleak stats <file>     # re-render a telemetry JSONL export
//! ```
//!
//! Flags: `--fast` shrinks RSA keys for quick runs; `--seed N` reseeds the
//! deterministic ecosystem; `--transport inprocess|tcp` picks the
//! binder transport devices boot with; `--telemetry <path.jsonl>` records
//! structured spans/counters/histograms across the whole run, exports
//! them to the given file and prints a stats summary after
//! `study`/`attack`; `--trace <path.jsonl>` records distributed trace
//! spans to a durable JSONL sink (flushed on exit and on ctrl-c);
//! `--metrics ADDR` has `serve` publish a live Prometheus-style
//! `/metrics` endpoint next to the DRM socket.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use wideleak::android_drm::binder::{DrmCall, Transport, TransportKind};
use wideleak::android_drm::netserver::{TcpBinder, TcpDrmServer};
use wideleak::android_drm::reactor::ReactorConfig;
use wideleak::attack::recover::{attack_all, attack_app};
use wideleak::bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak::device::catalog::DeviceModel;
use wideleak::load::{run_fleet, run_load, Congestion, FleetConfig, LoadConfig};
use wideleak::monitor::adapt::{render_adapt, run_adapt_study};
use wideleak::monitor::campaign::{run_campaign, CampaignConfig, ShardRunner, WorkerCommand};
use wideleak::monitor::report::{render_call_histogram, render_insights, render_table_1};
use wideleak::monitor::resilience::{render_q5, run_resilience_study_on};
use wideleak::monitor::study::{run_study, study_app};
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak::telemetry;
use wideleak::telemetry::trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wideleak [--fast] [--seed N] [--quick] [--transport KIND] \
         [--telemetry FILE.jsonl] [--trace FILE.jsonl] <command>\n\
         commands:\n\
           study [slug]   regenerate Table I (or one app's findings)\n\
           attack [slug]  run the CVE-2021-0639 pipeline\n\
           spoof          run the forged-L1 HD experiment (Section V-C)\n\
           play <slug>    one instrumented playback with a Figure-1 trace\n\
           resilience     run the Q5 fault-schedule sweep (--quick: 4 apps)\n\
           adapt          run the adaptation study under congestion (--quick: 4 apps)\n\
           load           drive the fleet load generator (--quick: CI size)\n\
                          --fleet N holds N concurrent TCP devices against one reactor server\n\
                          --congestion steady|constricted runs adaptive plays on constrained links\n\
           campaign       run the sharded catalog campaign (--quick: CI size)\n\
                          --workers N shards across N worker processes\n\
                          --devices N / --sample-every N override the catalog sweep\n\
           serve [ADDR]   run a wire-framed TCP media DRM server (default 127.0.0.1:7564)\n\
                          --metrics ADDR adds a live Prometheus /metrics endpoint\n\
                          --worker runs as a campaign shard worker (prints WORKER_READY)\n\
           call ADDR [N]  drive N license-path probes against a remote serve (default 1)\n\
           stats FILE     re-render a telemetry JSONL export as a summary\n\
           trace FILE...  analyse trace JSONL sinks (phases, exemplars, faults)\n\
         --transport picks the binder: inprocess (default; load defaults to tcp) or tcp\n\
         --trace FILE.jsonl records distributed trace spans (durable on ctrl-c)"
    );
    ExitCode::FAILURE
}

/// Set by the SIGINT handler; `serve` polls it so ctrl-c unwinds
/// `main` normally and the trace sink's drop flush runs.
static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigint(_signum: i32) {
    SIGINT_RECEIVED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler via the C `signal(2)` shim — the one
/// spot in the workspace that needs FFI, kept to this binary crate
/// (the libraries all `forbid(unsafe_code)`).
fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

/// Writes the collected telemetry to `path` and prints the stats
/// summary when `print_summary` is set (after `study`/`attack` runs).
fn export_telemetry(path: &str, print_summary: bool) {
    let snapshot = telemetry::snapshot();
    let jsonl = telemetry::to_jsonl(&snapshot);
    if let Err(e) = std::fs::write(path, &jsonl) {
        eprintln!("telemetry: failed to write {path}: {e}");
    } else {
        eprintln!("telemetry: wrote {} lines to {path}", jsonl.lines().count());
    }
    if print_summary {
        println!("{}", telemetry::summary_table(&snapshot));
    }
}

fn main() -> ExitCode {
    let mut config = EcosystemConfig::default();
    let mut telemetry_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut transport_flag: Option<TransportKind> = None;
    let mut fleet_devices: Option<usize> = None;
    let mut congestion = Congestion::None;
    let mut quick = false;
    let mut worker_mode = false;
    let mut campaign_workers: Option<usize> = None;
    let mut campaign_devices: Option<u64> = None;
    let mut campaign_sample_every: Option<u64> = None;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => config.rsa_bits = 768,
            "--quick" => quick = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => config.seed = seed,
                None => return usage(),
            },
            "--telemetry" => match args.next() {
                Some(path) => telemetry_path = Some(path),
                None => return usage(),
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => return usage(),
            },
            "--metrics" => match args.next() {
                Some(addr) => metrics_addr = Some(addr),
                None => return usage(),
            },
            "--fleet" => match args.next().and_then(|v| v.parse().ok()) {
                Some(devices) => fleet_devices = Some(devices),
                None => return usage(),
            },
            "--worker" => worker_mode = true,
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => campaign_workers = Some(n),
                None => return usage(),
            },
            "--devices" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => campaign_devices = Some(n),
                None => return usage(),
            },
            "--sample-every" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => campaign_sample_every = Some(n),
                None => return usage(),
            },
            "--congestion" => match args.next().as_deref().and_then(Congestion::parse) {
                Some(preset) => congestion = preset,
                None => return usage(),
            },
            "--transport" => match args.next().and_then(|v| v.parse::<TransportKind>().ok()) {
                Some(kind) => {
                    config.transport = kind;
                    transport_flag = Some(kind);
                }
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => positional.push(arg),
        }
    }
    let Some(command) = positional.first().map(String::as_str) else {
        return usage();
    };
    let slug = positional.get(1).map(String::as_str);

    // `stats` operates on a prior run's export; no ecosystem needed.
    if command == "stats" {
        let Some(path) = slug else {
            return usage();
        };
        return match std::fs::read_to_string(path) {
            Ok(text) => {
                let run = telemetry::export::parse_jsonl(&text);
                print!("{}", telemetry::export::parsed_summary_table(&run));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("stats: cannot read {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // `trace` analyses prior runs' trace sinks; no ecosystem needed.
    // Multiple files merge — feed the client's and the server's sinks
    // together to reassemble cross-process traces.
    if command == "trace" {
        let files = &positional[1..];
        if files.is_empty() {
            return usage();
        }
        let mut spans = Vec::new();
        for path in files {
            match std::fs::read_to_string(path) {
                Ok(text) => spans.extend(trace::parse_jsonl(&text)),
                Err(e) => {
                    eprintln!("trace: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        print!("{}", telemetry::trace_report::render_trace_report(&spans));
        return ExitCode::SUCCESS;
    }

    if telemetry_path.is_some() {
        telemetry::enable();
        telemetry::event("info", format!("run start: {command} {}", slug.unwrap_or("")));
    }
    // The sink handle lives for the rest of main: dropping it (normal
    // exit or the SIGINT unwind below) flushes buffered spans.
    let _trace_sink = match &trace_path {
        Some(path) => {
            trace::enable();
            trace::set_process_label(command);
            match trace::FileSink::create(std::path::Path::new(path)) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    eprintln!("trace: cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let seed = config.seed;
    let transport = config.transport;

    // `call` is a thin remote DRM client: all session state lives in
    // the `serve` process, so a probe needs nothing but the socket.
    // With `--trace` on both ends, the merged sinks reassemble each
    // probe into one multi-process trace.
    if command == "call" {
        let Some(addr) = slug else {
            return usage();
        };
        let count: usize = positional.get(2).and_then(|v| v.parse().ok()).unwrap_or(1);
        let Ok(sock_addr) = addr.parse() else {
            eprintln!("call: bad address {addr}");
            return ExitCode::FAILURE;
        };
        let binder = match TcpBinder::connect(sock_addr).pool_size(2).build() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("call: cannot connect {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut failures = 0usize;
        for i in 0..count {
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
            nonce[8..].copy_from_slice(&seed.to_le_bytes());
            let outcome = binder
                .transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID })
                .and_then(|_| binder.transact(DrmCall::OpenSession { nonce }))
                .and_then(wideleak::android_drm::binder::DrmReply::into_session_id)
                .and_then(|sid| {
                    let probe = binder.transact(DrmCall::IsProvisioned);
                    let _ = binder.transact(DrmCall::CloseSession { session_id: sid });
                    probe
                });
            match outcome {
                Ok(reply) => println!("call {i}: ok ({reply:?})"),
                Err(e) => {
                    failures += 1;
                    eprintln!("call {i}: {e}");
                }
            }
        }
        trace::flush();
        return if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    // `campaign` is the coordinator: it spawns copies of this binary in
    // `serve --worker` mode and never boots an ecosystem itself (the
    // workers each build their own from the derived shard seed).
    if command == "campaign" {
        let mut cc = if quick { CampaignConfig::quick(seed) } else { CampaignConfig::full(seed) };
        if let Some(n) = campaign_workers {
            cc.workers = n;
        }
        if let Some(n) = campaign_devices {
            cc.spec.devices = n;
        }
        if let Some(n) = campaign_sample_every {
            cc.spec.sample_every = n;
        }
        let cmd = match WorkerCommand::current_exe() {
            Ok(cmd) => cmd,
            Err(e) => {
                eprintln!("campaign: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "wideleak: campaign over {} devices x {} workers (seed {seed})",
            cc.spec.devices, cc.workers
        );
        return match run_campaign(&cc, &cmd) {
            Ok(report) => {
                print!("{}", report.render());
                trace::flush();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("campaign failed: {e} [{}]", e.class());
                ExitCode::FAILURE
            }
        };
    }

    // `serve --worker` is the campaign shard worker: a campaign-enabled
    // DRM endpoint on an ephemeral port, announced on stdout for the
    // coordinator. It exits on coordinator request, on SIGINT, or when
    // the coordinator's stdin pipe closes — so a killed coordinator
    // takes its workers down instead of leaking them.
    if command == "serve" && worker_mode {
        let addr = slug.unwrap_or("127.0.0.1:0");
        let runner = std::sync::Arc::new(ShardRunner::new());
        // The worker-level server only answers control frames and ad-hoc
        // DRM probes; shards build their own ecosystems from the spec's
        // rsa_bits, so small keys here just make spawning cheap.
        let mut worker_config = config;
        worker_config.rsa_bits = 768;
        let eco = Ecosystem::new(worker_config);
        let drm = std::sync::Arc::new(eco.media_drm_server(DeviceModel::pixel_6()));
        let server = match TcpDrmServer::bind_campaign(
            addr,
            drm,
            ReactorConfig::default(),
            runner.clone(),
        ) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("serve: cannot bind worker {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        install_sigint_handler();
        use std::io::Write as _;
        println!("WORKER_READY {}", server.local_addr());
        let _ = std::io::stdout().flush();
        let orphaned = std::sync::Arc::new(AtomicBool::new(false));
        {
            // Watchdog: block on stdin until the coordinator's pipe
            // closes (its WorkerProcess guard holds the write end).
            let orphaned = orphaned.clone();
            std::thread::spawn(move || {
                let mut sink = Vec::new();
                let _ = std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink);
                orphaned.store(true, Ordering::SeqCst);
            });
        }
        while !runner.shutdown_requested()
            && !SIGINT_RECEIVED.load(Ordering::SeqCst)
            && !orphaned.load(Ordering::SeqCst)
        {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        drop(server);
        trace::flush();
        return ExitCode::SUCCESS;
    }

    // `serve` exports a standalone media DRM server; it never installs
    // apps or boots a device stack.
    if command == "serve" {
        let addr = slug.unwrap_or("127.0.0.1:7564");
        let metrics = match &metrics_addr {
            Some(maddr) => {
                // The exposition endpoint publishes the live registry;
                // enable collection so there is something to scrape.
                telemetry::enable();
                match telemetry::ExpositionServer::bind(maddr, telemetry::global()) {
                    Ok(server) => {
                        println!(
                            "wideleak: metrics endpoint on http://{}/metrics",
                            server.local_addr()
                        );
                        Some(server)
                    }
                    Err(e) => {
                        eprintln!("serve: cannot bind metrics {maddr}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => None,
        };
        let eco = Ecosystem::new(config);
        let drm = eco.media_drm_server(DeviceModel::pixel_6());
        return match TcpDrmServer::bind(addr, drm) {
            Ok(server) => {
                install_sigint_handler();
                println!(
                    "wideleak: media DRM server listening on {} (wire v3; ctrl-c to stop)",
                    server.local_addr()
                );
                while !SIGINT_RECEIVED.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                eprintln!("wideleak: shutting down");
                drop(server);
                drop(metrics);
                trace::flush();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve: cannot bind {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let eco = Ecosystem::new(config);

    let code = match (command, slug) {
        ("study", None) => match run_study(&eco) {
            Ok(report) => {
                println!("{}", render_table_1(&report));
                println!("{}", render_insights(&report));
                print!("{}", render_call_histogram(&report));
                ExitCode::SUCCESS
            }
            Err(e) => {
                telemetry::event("error", format!("study failed: {e} [{}]", e.class()));
                eprintln!("study failed: {e}");
                ExitCode::FAILURE
            }
        },
        ("study", Some(slug)) => match study_app(&eco, slug) {
            Ok(findings) => {
                println!("{findings:#?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                telemetry::event("error", format!("study failed: {e} [{}]", e.class()));
                eprintln!("study failed: {e}");
                ExitCode::FAILURE
            }
        },
        ("attack", None) => {
            let outcomes = attack_all(&eco);
            for o in &outcomes {
                let status = if o.succeeded() {
                    format!(
                        "DRM-free media at {:?}",
                        o.media.as_ref().and_then(|m| m.best_resolution())
                    )
                } else {
                    format!(
                        "blocked ({})",
                        o.failure.as_ref().map_or("?".into(), |e| e.to_string())
                    )
                };
                println!("{:<22} {status}", o.app_name);
            }
            ExitCode::SUCCESS
        }
        ("attack", Some(slug)) => {
            let o = attack_app(&eco, slug);
            println!("{o:#?}");
            if o.succeeded() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ("spoof", _) => {
            match wideleak::attack::hd_spoof::hd_spoof_experiment(&eco, slug.unwrap_or("netflix")) {
                Ok(outcome) => {
                    println!(
                        "best height: {:?}; HD leaked: {}",
                        outcome.best_height,
                        outcome.got_hd_keys()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("spoof failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("resilience", _) => {
            let report = run_resilience_study_on(seed, quick, transport);
            println!("{}", render_q5(&report));
            ExitCode::SUCCESS
        }
        ("adapt", _) => {
            let report = run_adapt_study(seed, quick);
            println!("{}", render_adapt(&report));
            ExitCode::SUCCESS
        }
        ("load", _) => {
            if let Some(devices) = fleet_devices {
                // High-concurrency fleet: always over TCP (it measures
                // the reactor transport, not the study paths).
                let base = if quick { FleetConfig::quick() } else { FleetConfig::default() };
                let fleet_config = FleetConfig { devices, seed, ..base };
                let report = run_fleet(&fleet_config);
                print!("{}", report.render(&fleet_config));
                if report.clean() {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("load: fleet run was not clean");
                    ExitCode::FAILURE
                }
            } else {
                let base = if quick { LoadConfig::quick() } else { LoadConfig::default() };
                let load_config = LoadConfig {
                    seed,
                    // The fleet defaults to the TCP binder; only a
                    // `--transport` flag overrides it.
                    transport: transport_flag.unwrap_or(base.transport),
                    congestion,
                    ..base
                };
                let report = run_load(&load_config);
                print!("{}", report.render());
                ExitCode::SUCCESS
            }
        }
        ("play", Some(slug)) => {
            let stack = eco.boot_device(DeviceModel::pixel_6(), true);
            let app = eco.install_app(&stack, slug, "cli-user");
            stack.device.hook_engine().start_recording();
            match app.play("title-001") {
                Ok(outcome) => {
                    let log = stack.device.hook_engine().stop_recording();
                    println!(
                        "played at {}x{} ({} video samples)",
                        outcome.resolution.0,
                        outcome.resolution.1,
                        outcome.video_samples.len()
                    );
                    if let Some(trace) = outcome.trace {
                        for step in trace.steps() {
                            println!("  {step:?}");
                        }
                    }
                    println!("{} CDM calls intercepted", log.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("playback failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => return usage(),
    };

    if let Some(path) = &telemetry_path {
        export_telemetry(path, matches!(command, "study" | "attack"));
    }
    code
}
