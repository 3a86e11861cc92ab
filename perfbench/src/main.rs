//! `perfbench` — the end-to-end benchmark of `indord-serve`.
//!
//! ```text
//! perfbench --server <indord-serve> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
//! ```
//!
//! A run is a number of rounds. Each round starts the server as a child
//! process on a fresh data directory, loads the seeded database, drives
//! the round's seeded closed-loop request stream over one TCP
//! connection, checks every answer, kills the server and restarts it on
//! the same directory. With `--trace 0` it prints the end-to-end
//! metrics, times brought to a reference host speed (see
//! `report::ECHO_RTT_NOMINAL_US`). With `--trace 1` it then replays the
//! first round in-process
//! and times the calls into each layer (see `traced.rs`). The last line
//! of standard output is the JSON result; the lines before it give the
//! host, every metric with its sample count, and the answer checks. See
//! `README.md`.

mod check;
mod gen;
mod report;
mod serve;
mod traced;

use check::Bracket;
use gen::{Kind, Req, Size, Workload};
use report::{median, quantile, quiet_rate, quiet_time, Metric};
use serve::{clip, dir_bytes, stat, Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds per run. Each one times a set-up and a restart.
fn rounds(workload: &str) -> usize {
    match workload {
        "warm-mix" => 80,
        "append-events" => 60,
        _ => 20,
    }
}

/// Requests per second of `--seconds`. The stream is a fixed count,
/// `rate × seconds`, so both sides of a comparison serve the same
/// database trajectory; the rates are set so that a run's streams take
/// about `--seconds` on a 2-core x86-64 container. For `append-events`
/// the count is of writes, each followed by three reads.
fn rate(workload: &str) -> usize {
    match workload {
        "warm-mix" => 27000,
        "append-events" => 400,
        _ => 380,
    }
}

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut work_dir = PathBuf::from(".bench_run");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a number")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            gen::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        work_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A workload with its bracket of admissible verdicts.
pub struct Prepared {
    pub w: Workload,
    pub bracket: Bracket,
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let size = if args.smoke {
        Size {
            requests: 40,
            rounds: 2,
            smoke: true,
        }
    } else {
        Size {
            requests: rate(&args.workload) * args.seconds.max(1) as usize,
            rounds: rounds(&args.workload),
            smoke: false,
        }
    };
    let mut w = gen::generate(&args.workload, args.seed, &size).expect("workload name checked");
    let bracket = Bracket::compute(&w)?;
    if w.name == "disjunctive-search" {
        let not_certain: Vec<bool> = bracket.end.iter().map(|c| !c).collect();
        gen::mark_countermodels(&mut w, &not_certain);
    }
    Ok(Prepared { w, bracket })
}

fn run(args: &Args, run_dir: &Path) -> Result<Vec<String>, String> {
    let ticks = report::cpu_ticks();
    let p = prepare(args)?;
    std::fs::create_dir_all(run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let mut lines = vec![format!(
        "host {} fsync={} server_threads={} conns=1 workload={} seed={} rounds={} requests={}",
        report::host(),
        serve::FSYNC,
        serve::THREADS,
        p.w.name,
        args.seed,
        p.w.rounds.len(),
        p.w.rounds.iter().map(Vec::len).sum::<usize>()
    )];
    let cfg = ServerConfig {
        binary: args.server.clone(),
        data_dir: run_dir.join("data"),
    };
    let e2e = end_to_end(&p, &cfg)?;
    lines.extend(e2e.check_lines());
    let metrics = if args.trace {
        let layers = traced::run(&p, &e2e, run_dir)?;
        lines.extend(layers.notes.iter().cloned());
        layers.metrics
    } else {
        e2e.metrics()
    };
    // Time the hypervisor gave the machine's CPUs to someone else: a run
    // with a high share reads slow on every timing.
    let (steal, total) = report::cpu_ticks();
    lines.push(format!(
        "host cpu_steal_share={:.4}",
        (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64
    ));
    if !args.trace {
        lines.push(format!(
            "host echo_rtt_us={} nominal_echo_rtt_us={} host_scale={}",
            quiet_time(&e2e.echo_rtt_us),
            report::ECHO_RTT_NOMINAL_US,
            e2e.host_scale()
        ));
    }
    for m in &metrics {
        let raw = m.raw.map_or(String::new(), |r| format!(" raw={r}"));
        lines.push(format!(
            "metric {} {} {} n={}{raw}",
            m.name, m.value, m.unit, m.n
        ));
    }
    let t = &e2e.tally;
    lines.push(report::result_line(
        e2e.correct(),
        t.attempted,
        t.failed,
        &metrics,
    ));
    Ok(lines)
}

/// What one round measured.
pub struct Round {
    /// The round's latencies in µs, by kind.
    pub reads_us: Vec<f64>,
    pub writes_us: Vec<f64>,
    /// Requests completed without error, and the stream's wall time.
    pub completed: u64,
    pub elapsed_s: f64,
}

/// What the rounds of a run measured and checked.
#[derive(Default)]
pub struct EndToEnd {
    pub rounds: Vec<Round>,
    /// The answer checks over every round.
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Per round: `VmHWM` of the server after the stream, and the bytes
    /// of its data directory over the bytes of acked `FACT` payload.
    pub peak_rss_mb: Vec<f64>,
    pub disk_ratio: Vec<f64>,
    /// `(acked, seen)` atoms: `STATS atoms` after each round's stream
    /// and after its restart, against the atoms the server acked.
    pub atoms: Vec<(u64, u64)>,
    /// `group_fragments / group_commits` from the servers' `STATS`.
    pub fragments_per_commit: f64,
    /// Per round: the median round trip of a loopback TCP echo between
    /// two threads of this process, timed after the round's server is
    /// gone (see [`report::echo_rtt_us`]).
    pub echo_rtt_us: Vec<f64>,
}

impl EndToEnd {
    fn correct(&self) -> bool {
        let t = &self.tally;
        t.mismatches == 0 && t.bad_frames == 0 && self.atoms.iter().all(|(a, s)| a == s)
    }

    fn check_lines(&self) -> Vec<String> {
        let t = &self.tally;
        let atoms_wrong = self.atoms.iter().filter(|(a, s)| a != s).count();
        let mut out = vec![format!(
            "check verdicts={} mismatches={} countermodels={} bad_frames={} \
             atom_counts={} atom_mismatches={atoms_wrong} attempted={} failed={}",
            t.verdicts,
            t.mismatches,
            t.countermodels,
            t.bad_frames,
            self.atoms.len(),
            t.attempted,
            t.failed
        )];
        if let Some(e) = &t.first_error {
            out.push(format!("first_error {e}"));
        }
        out
    }

    /// A latency quantile of each round, as the run reports it.
    pub fn latency(&self, kind: Kind, p: f64) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| match kind {
                Kind::Read => quantile(&r.reads_us, p),
                Kind::Write => quantile(&r.writes_us, p),
            })
            .collect();
        quiet_time(&per_round)
    }

    pub fn samples(&self, kind: Kind) -> usize {
        self.rounds
            .iter()
            .map(|r| match kind {
                Kind::Read => r.reads_us.len(),
                Kind::Write => r.writes_us.len(),
            })
            .sum()
    }

    /// The factor that brings this run's times to the reference host
    /// speed: [`report::ECHO_RTT_NOMINAL_US`] over the run's echo round
    /// trip, taken from the quiet rounds like every other time.
    pub fn host_scale(&self) -> f64 {
        let rtt = quiet_time(&self.echo_rtt_us);
        if rtt > 0.0 {
            report::ECHO_RTT_NOMINAL_US / rtt
        } else {
            1.0
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let k = self.host_scale();
        let m = |name, raw: f64, unit, n, scaled: Option<f64>| Metric {
            name,
            value: scaled.map_or(raw, |f| raw * f),
            unit,
            n,
            raw: scaled.map(|_| raw),
        };
        let (reads, writes) = (self.samples(Kind::Read), self.samples(Kind::Write));
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.completed as f64 / r.elapsed_s)
            .collect();
        let completed = (self.tally.attempted - self.tally.failed) as usize;
        let rounds = self.rounds.len();
        let time = Some(k);
        vec![
            m(
                "setup_s",
                median(&self.setup_s),
                "s",
                self.setup_s.len(),
                time,
            ),
            m(
                "read_p50_us",
                self.latency(Kind::Read, 0.5),
                "us",
                reads,
                time,
            ),
            m(
                "read_p90_us",
                self.latency(Kind::Read, 0.9),
                "us",
                reads,
                time,
            ),
            m(
                "write_p50_us",
                self.latency(Kind::Write, 0.5),
                "us",
                writes,
                time,
            ),
            m(
                "write_p90_us",
                self.latency(Kind::Write, 0.9),
                "us",
                writes,
                time,
            ),
            m(
                "ops_per_s",
                quiet_rate(&rates),
                "1/s",
                completed,
                Some(1.0 / k),
            ),
            m(
                "peak_rss_mb",
                median(&self.peak_rss_mb),
                "MiB",
                rounds,
                None,
            ),
            m(
                "recover_s",
                quiet_time(&self.recover_s),
                "s",
                self.recover_s.len(),
                time,
            ),
            m(
                "disk_bytes_per_user_byte",
                median(&self.disk_ratio),
                "ratio",
                rounds,
                None,
            ),
        ]
    }
}

/// `OK inserted <n> atoms ...` → `n`.
fn inserted(reply: &str) -> Option<u64> {
    reply
        .strip_prefix("OK inserted ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// A loaded server ready for a round's stream, and the connection that
/// loaded it.
struct Loaded {
    server: Server,
    client: Client,
    atoms: u64,
    bytes: u64,
}

/// Starts a server on a fresh data dir, bulk-loads and prepares, and
/// waits for the first warm answer. Returns the time that took.
fn set_up(p: &Prepared, cfg: &ServerConfig) -> Result<(Loaded, f64), String> {
    let dir = &cfg.data_dir;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let server = Server::start(cfg)?;
    let mut client = server.connect()?;
    client.expect_ok(&format!("OPEN {}", p.w.db))?;
    let (mut atoms, mut bytes) = (0, 0);
    for frag in &p.w.load {
        let r = client.expect_ok(&format!("FACT {frag}"))?;
        atoms += inserted(&r[0]).ok_or_else(|| format!("load reply `{}`", r[0]))?;
        bytes += frag.len() as u64;
    }
    for line in p.w.prepare_lines() {
        client.expect_ok(&line)?;
    }
    client.expect_ok(&p.w.probe())?;
    let elapsed = t0.elapsed().as_secs_f64();
    Ok((
        Loaded {
            server,
            client,
            atoms,
            bytes,
        },
        elapsed,
    ))
}

/// Every round: set-up, the stream, the post-stream checks, and the
/// kill-and-restart leg.
fn end_to_end(p: &Prepared, cfg: &ServerConfig) -> Result<EndToEnd, String> {
    let mut e = EndToEnd::default();
    let (mut commits, mut fragments) = (0, 0);
    for stream in &p.w.rounds {
        let (mut loaded, t) = set_up(p, cfg)?;
        e.setup_s.push(t);
        let mut tally = Tally::default();
        let t0 = Instant::now();
        for req in stream {
            let s = Instant::now();
            let reply = loaded.client.call(&req.line)?;
            tally.record(req, &reply, s.elapsed().as_nanos() as f64 / 1e3, &p.bracket);
        }
        let elapsed_s = t0.elapsed().as_secs_f64();
        let acked_atoms = loaded.atoms + tally.acked_atoms;
        let acked_bytes = loaded.bytes + tally.acked_bytes;
        let stats = loaded.client.expect_ok("STATS")?;
        e.atoms
            .push((acked_atoms, stat(&stats, "atoms").unwrap_or(0)));
        commits += stat(&stats, "group_commits").unwrap_or(0);
        fragments += stat(&stats, "group_fragments").unwrap_or(0);
        e.peak_rss_mb
            .push(loaded.server.peak_rss_mb().unwrap_or(0.0));
        e.disk_ratio
            .push(dir_bytes(&cfg.data_dir) as f64 / acked_bytes.max(1) as f64);
        e.rounds.push(Round {
            reads_us: std::mem::take(&mut tally.reads_us),
            writes_us: std::mem::take(&mut tally.writes_us),
            completed: tally.attempted - tally.failed,
            elapsed_s,
        });
        e.tally.merge(tally);
        // SIGKILL: the `os` flush policy leaves acked records in the page
        // cache, which survives the process.
        drop(loaded);
        let t0 = Instant::now();
        let server = Server::start(cfg)?;
        let mut c = server.connect()?;
        c.expect_ok(&format!("USE {}", p.w.db))?;
        c.expect_ok(&p.w.probe())?;
        e.recover_s.push(t0.elapsed().as_secs_f64());
        let stats = c.expect_ok("STATS")?;
        e.atoms
            .push((acked_atoms, stat(&stats, "atoms").unwrap_or(0)));
        // The host's speed now, with no server running.
        drop((c, server));
        e.echo_rtt_us.push(report::echo_rtt_us()?);
    }
    e.fragments_per_commit = fragments as f64 / commits.max(1) as f64;
    Ok(e)
}

/// What a round's replies showed.
#[derive(Default)]
pub struct Tally {
    pub reads_us: Vec<f64>,
    pub writes_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub verdicts: u64,
    pub mismatches: u64,
    pub countermodels: u64,
    pub bad_frames: u64,
    pub acked_atoms: u64,
    pub acked_bytes: u64,
}

impl Tally {
    /// Adds another round's checks (not its samples or acked totals).
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
        self.verdicts += other.verdicts;
        self.mismatches += other.mismatches;
        self.countermodels += other.countermodels;
        self.bad_frames += other.bad_frames;
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.first_error.get_or_insert(msg);
    }

    /// Checks one reply against the request and the bracket.
    fn record(&mut self, req: &Req, reply: &[String], us: f64, bracket: &Bracket) {
        self.attempted += 1;
        let head = reply[0].as_str();
        if head.starts_with("ERR") {
            self.fail(format!("`{}` -> {head}", clip(&req.line)));
            return;
        }
        match req.kind {
            Kind::Write => match inserted(head) {
                Some(n) => {
                    self.writes_us.push(us);
                    self.acked_atoms += n;
                    self.acked_bytes += req.fragment().len() as u64;
                }
                None => self.fail(format!("`{}` -> {head}", clip(&req.line))),
            },
            Kind::Read => {
                self.reads_us.push(us);
                let served: Vec<bool> = match head {
                    "CERTAIN" => vec![true],
                    "NOT-CERTAIN" if !req.witness => vec![false],
                    "COUNTERMODEL" if req.witness => {
                        self.countermodels += 1;
                        if !check::framed(reply) {
                            self.bad_frames += 1;
                        }
                        vec![false]
                    }
                    _ => match head.strip_prefix("VERDICTS ") {
                        Some(rest) => rest.split(' ').map(|kv| kv.ends_with("=CERTAIN")).collect(),
                        None => Vec::new(),
                    },
                };
                if served.len() != req.queries.len() {
                    self.mismatches += 1;
                    self.first_error
                        .get_or_insert(format!("`{}` -> unexpected `{head}`", clip(&req.line)));
                    return;
                }
                for (&q, &v) in req.queries.iter().zip(&served) {
                    self.verdicts += 1;
                    if !bracket.admits(q, v) {
                        self.mismatches += 1;
                        self.first_error.get_or_insert(format!(
                            "`{}` served {v}, start {} end {}",
                            clip(&req.line),
                            bracket.start[q],
                            bracket.end[q]
                        ));
                    }
                }
            }
        }
    }
}
