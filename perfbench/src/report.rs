//! Exact statistics over raw samples, the host record, and the result
//! line.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
    /// The value as measured, before it was brought to the reference host
    /// speed (see [`ECHO_RTT_NOMINAL_US`]).
    pub raw: Option<f64>,
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of unsorted samples:
/// the smallest sample with at least `p·n` samples at or below it.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A time measured once per round, as a run reports it: the 10th
/// percentile over the rounds. The host switches, every few seconds,
/// between a quiet speed and one up to 1.8 times slower, and the share
/// of slow stretches changes from one run to the next (15% to 85% of the
/// rounds). The median or the mean of the rounds follows that share; the
/// 10th percentile stays with the quiet rounds as long as a tenth of a
/// run is quiet, and is not the single fastest round. A change to the
/// program moves every round, so it moves this value too.
pub fn quiet_time(per_round: &[f64]) -> f64 {
    quantile(per_round, 0.1)
}

/// A rate measured once per round: the 90th percentile over the rounds
/// (see [`quiet_time`]).
pub fn quiet_rate(per_round: &[f64]) -> f64 {
    quantile(per_round, 0.9)
}

/// `nproc`, the CPUs the benchmark may run on, CPU model and kernel of
/// the machine running the benchmark.
pub fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let usable = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!("nproc={nproc} usable_cpus={usable} cpu=\"{cpu}\" kernel={kernel}")
}

/// The loopback echo round trip, in µs, at the host speed the reported
/// times are brought to: a time is multiplied by this over the run's own
/// echo round trip, and a rate divided by it. The host's speed drifts by
/// a third over minutes, for every kind of work at once (on
/// `append-events`, ten runs' read p50 and their echo round trip moved
/// together between 14.5 and 22 µs and between 7.3 and 8.8 µs); the echo
/// does not involve the program, so a change to the program still moves
/// the scaled times in full. 8 µs is the echo on a quiet 2-vCPU x86-64
/// VM, so there scaled and measured times agree.
pub const ECHO_RTT_NOMINAL_US: f64 = 8.0;

/// Round trips of one echo measurement.
const ECHOES: usize = 3000;

/// The median round trip, in µs, of a one-line request echoed back over a
/// loopback TCP connection between two threads of this process, one
/// line at a time, the way the benchmark's client talks to the server:
/// the host's speed at this moment, independent of the program under
/// test.
pub fn echo_rtt_us() -> Result<f64, String> {
    let io = |e: std::io::Error| format!("echo: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let client = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (server, _) = listener.accept().map_err(io)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        server.set_nodelay(true)?;
        let mut out = server.try_clone()?;
        let mut lines = BufReader::new(server);
        let mut line = String::new();
        while lines.read_line(&mut line)? > 0 {
            out.write_all(line.as_bytes())?;
            line.clear();
        }
        Ok(())
    });
    // The client's end closes when this returns, on every path, which
    // ends the echo thread.
    let rtts = (move || -> std::io::Result<Vec<f64>> {
        client.set_nodelay(true)?;
        let mut out = client.try_clone()?;
        let mut lines = BufReader::new(client);
        let mut line = String::new();
        let mut rtts = Vec::with_capacity(ECHOES);
        for _ in 0..ECHOES {
            let t0 = Instant::now();
            out.write_all(b"ENTAIL seq\n")?;
            line.clear();
            lines.read_line(&mut line)?;
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(rtts)
    })();
    let echoed = echo
        .join()
        .map_err(|_| "echo thread panicked".to_string())?;
    let rtts = rtts.map_err(io)?;
    echoed.map_err(io)?;
    Ok(median(&rtts))
}

/// `(steal, total)` CPU ticks of the machine so far, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The last line of a run: `correct`, `attempted`, `failed` and every
/// metric with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_values_are_the_outer_deciles() {
        let s: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet_time(&s), 2.0);
        assert_eq!(quiet_rate(&s), 18.0);
        assert_eq!(quiet_time(&[7.0]), 7.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let m = [Metric {
            name: "read_p50_us",
            value: 1.5,
            unit: "us",
            n: 3,
            raw: None,
        }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"read_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }
}
