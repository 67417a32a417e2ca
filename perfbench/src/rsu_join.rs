//! `rsu_join`: one in-process `blackdp_daemon::runtime::run` RSU on
//! loopback UDP, driven by an open loop of pre-sealed join requests.
//!
//! The RSU runs on its own thread; one generator (the calling thread)
//! sends JREQs on a fixed schedule whatever the replies do, and times
//! each from its *scheduled* send time to its JREP, so a stall counts
//! against every request queued behind it. Each JREQ is sealed fresh, so
//! the envelope memo never answers for it; identities cycle through a
//! pool larger than the 1,024-entry certificate cache.
//!
//! The traced run replays the same datagrams in-process, without a
//! socket, through the daemon's own layers: `Envelope::decode` →
//! `NodeHarness::deliver` on the RSU `RoleDriver` → `RoleDriver::flush`
//! → `Envelope::encode`.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::time::{Duration as WallDuration, Instant};

use blackdp::{addr_of, envelope_memo_clear, BlackDpMessage, JoinBody, Sealed, Wire};
use blackdp_crypto::{Certificate, Keypair, LongTermId, TaId, TrustedAuthority};
use blackdp_daemon::config::{Identity, NodeConfig, Peer, Role};
use blackdp_daemon::net::Envelope;
use blackdp_daemon::roles::{build_driver, RoleDriver};
use blackdp_daemon::runtime::{run as run_daemon, RunReport};
use blackdp_mobility::ClusterId;
use blackdp_scenario::{ch_addr, Frame, RsuNode};
use blackdp_sim::{Channel, Duration, NodeEffect, NodeHarness, NodeId, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{median_setup, peak_rss_mb, percentile, timed, Mix, Outcome, Span};

const RSU_ID: u32 = 1;
const GEN_ID: u32 = 2;
/// Wall-to-virtual compression, as in the loopback testbed.
const SCALE: u64 = 10;
/// Join identities; more than the certificate cache holds.
pub const POOL: usize = 1_536;
/// The latency limit `join_max_rate` holds to: one 100 ms RSU tick at
/// the testbed's 10x compression.
const P99_LIMIT_MS: f64 = 10.0;
/// Offered rate for `join_rtt_ms_*`.
const FIXED_RATE: f64 = 500.0;
/// Ladder of offered rates for `join_max_rate`.
const LADDER: [f64; 14] = [
    700.0, 800.0, 900.0, 1000.0, 1120.0, 1250.0, 1400.0, 1600.0, 1800.0, 2000.0, 2240.0, 2500.0,
    2800.0, 3150.0,
];
/// Requests still unanswered beyond which a level is abandoned as
/// overloaded. The default 208 KiB receive buffer holds only a few
/// hundred queued JREQ datagrams; past that the kernel drops them.
const BACKLOG_LIMIT: usize = 100;
/// Requests per ladder level: enough for a p99 with ten beyond it.
const LEVEL_REQUESTS: usize = 1_100;
/// How long to wait for stragglers after a level's last send.
const DRAIN: WallDuration = WallDuration::from_millis(500);
const WARMUP: usize = 200;
/// Longest sleep between polls of the generator's socket.
const POLL: WallDuration = WallDuration::from_micros(50);

/// One pre-encoded JREQ datagram and the address its JREP is sent to.
struct Jreq {
    bytes: Vec<u8>,
    addr: u64,
}

/// The seed's identities and JREQ stream, sealed ahead of the run.
struct Provisioned {
    rsu: Identity,
    stream: Vec<Jreq>,
}

fn provision(seed: u64, count: usize) -> Provisioned {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x25a0_0001);
    let mut ta = TrustedAuthority::new(TaId(1), &mut rng);
    let validity = Duration::from_secs(10_000_000);
    let rsu_seed = seed ^ 0x25a0_0002;
    let rsu_keys = Keypair::generate(&mut StdRng::seed_from_u64(rsu_seed));
    let rsu_cert = ta.enroll(
        LongTermId(1),
        rsu_keys.public(),
        Time::ZERO,
        validity,
        &mut rng,
    );
    let rsu = Identity::from_enrollment(Role::Rsu, rsu_seed, 1, &rsu_cert, ta.public_key());
    let pool: Vec<(Keypair, Certificate)> = (0..POOL)
        .map(|i| {
            let keys = Keypair::generate(&mut rng);
            let cert = ta.enroll(
                LongTermId(100 + i as u64),
                keys.public(),
                Time::ZERO,
                validity,
                &mut rng,
            );
            (keys, cert)
        })
        .collect();
    let ch = ch_addr(ClusterId(1));
    let stream = (0..count)
        .map(|k| {
            let (keys, cert) = &pool[k % POOL];
            let body = JoinBody {
                pos_x: 100.0 + (k % 800) as f64,
                pos_y: 0.0,
                speed_kmh: 70.0,
                forward: true,
            };
            let sealed = Sealed::seal(body, *cert, None, keys, &mut rng);
            let addr = addr_of(cert.pseudonym);
            let env = Envelope::Frame {
                from: GEN_ID,
                channel: Channel::Radio,
                frame: Frame {
                    src: addr,
                    dst: Some(ch),
                    wire: Wire::BlackDp(BlackDpMessage::Jreq(sealed)),
                },
            };
            Jreq {
                bytes: env.encode(),
                addr: addr.0,
            }
        })
        .collect();
    Provisioned { rsu, stream }
}

/// The JREP's addressee, or `None` for any other datagram.
fn jrep_addr(bytes: &[u8]) -> Result<Option<u64>, String> {
    match Envelope::decode(bytes) {
        Ok(Envelope::Frame { frame, .. }) => Ok(match frame.wire {
            Wire::BlackDp(BlackDpMessage::Jrep { .. }) => frame.dst.map(|a| a.0),
            _ => None,
        }),
        Ok(_) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// What one open-loop level measured.
#[derive(Debug, Default)]
struct Level {
    offered: f64,
    sent: usize,
    /// Scheduled-send-to-reply latency of each answered request, ms.
    rtt_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    lateness_ms: Vec<f64>,
    unanswered: usize,
    decode_errors: usize,
    /// Stopped early: more than `BACKLOG_LIMIT` requests in flight.
    overloaded: bool,
}

impl Level {
    fn p99(&self) -> Option<f64> {
        percentile(&self.rtt_ms, 0.99)
    }

    /// Meets the latency limit with every request answered.
    fn passes(&self) -> bool {
        !self.overloaded
            && self.unanswered == 0
            && self.decode_errors == 0
            && self.p99().is_some_and(|p| p <= P99_LIMIT_MS)
    }
}

/// Abstracts the socket so the open-loop logic can be tested without one.
trait Link {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Waits at most `timeout` for one datagram.
    fn recv(&mut self, timeout: WallDuration) -> io::Result<Option<Vec<u8>>>;
}

struct UdpLink {
    socket: UdpSocket,
    peer: SocketAddr,
    buf: Vec<u8>,
}

impl Link for UdpLink {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.socket.send_to(bytes, self.peer).map(|_| ())
    }
    fn recv(&mut self, timeout: WallDuration) -> io::Result<Option<Vec<u8>>> {
        // A socket read timeout sleeps in whole kernel ticks (several
        // ms), far coarser than the latencies measured, so poll a
        // non-blocking socket with short high-resolution sleeps instead.
        let deadline = Instant::now() + timeout;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, _)) => return Ok(Some(self.buf[..n].to_vec())),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            std::thread::sleep((deadline - now).min(POLL));
        }
    }
}

/// Sends `stream` at `rate` per second from now on, each request due at
/// `start + i / rate`, and times every JREP from its request's due time.
fn open_loop(link: &mut impl Link, stream: &[Jreq], rate: f64) -> io::Result<Level> {
    let mut level = Level {
        offered: rate,
        ..Level::default()
    };
    let interval = WallDuration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let due = |i: usize| start + interval * i as u32;
    let mut outstanding: HashMap<u64, VecDeque<usize>> = HashMap::new();
    let mut in_flight = 0usize;
    let mut last_send = start;
    loop {
        let now = Instant::now();
        while level.sent < stream.len() && !level.overloaded && due(level.sent) <= now {
            let i = level.sent;
            link.send(&stream[i].bytes)?;
            last_send = Instant::now();
            level
                .lateness_ms
                .push(last_send.duration_since(due(i)).as_secs_f64() * 1e3);
            outstanding.entry(stream[i].addr).or_default().push_back(i);
            in_flight += 1;
            level.sent += 1;
            if in_flight > BACKLOG_LIMIT {
                level.overloaded = true;
            }
        }
        let sending = level.sent < stream.len() && !level.overloaded;
        if !sending && (in_flight == 0 || now.duration_since(last_send) >= DRAIN) {
            break;
        }
        let wait = if sending {
            due(level.sent).saturating_duration_since(now)
        } else {
            DRAIN.saturating_sub(now.duration_since(last_send))
        };
        let Some(reply) = link.recv(wait)? else {
            continue;
        };
        let arrived = Instant::now();
        match jrep_addr(&reply) {
            Ok(Some(addr)) => {
                if let Some(i) = outstanding.get_mut(&addr).and_then(VecDeque::pop_front) {
                    in_flight -= 1;
                    level
                        .rtt_ms
                        .push(arrived.duration_since(due(i)).as_secs_f64() * 1e3);
                }
            }
            Ok(None) => {}
            Err(_) => level.decode_errors += 1,
        }
    }
    level.unanswered = in_flight;
    Ok(level)
}

/// The daemon's output directory, under the working directory and removed
/// on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> io::Result<RunDir> {
        let dir = PathBuf::from(".bench_run").join(format!("rsu_join-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_run");
    }
}

fn free_port() -> io::Result<SocketAddr> {
    UdpSocket::bind("127.0.0.1:0")?.local_addr()
}

fn rsu_config(seed: u64, dir: &Path, listen: SocketAddr, generator: SocketAddr) -> NodeConfig {
    NodeConfig {
        role: Role::Rsu,
        node_id: RSU_ID,
        listen,
        peers: vec![Peer {
            id: GEN_ID,
            addr: generator,
            wired: false,
        }],
        ta_id: 0,
        rsu_id: RSU_ID,
        long_term: 1,
        scenario_seed: seed,
        node_seed: seed,
        scale: SCALE,
        // Ended by a shutdown datagram long before this.
        run_secs: 3_600 * SCALE,
        start_x: 500.0,
        start_y: 0.0,
        speed_kmh: 0.0,
        source: false,
        out_dir: dir.to_path_buf(),
        identity: dir.join("rsu.identity"),
    }
}

/// Requests sent at the fixed rate: half the run, and never fewer than a
/// p99 needs.
fn fixed_requests(seconds: u64) -> usize {
    ((FIXED_RATE * seconds as f64 / 2.0).ceil() as usize).max(LEVEL_REQUESTS)
}

/// Datagrams a run can send: probe, warm-up, the fixed-rate phase and
/// every ladder level.
fn stream_len(seconds: u64) -> usize {
    WARMUP + fixed_requests(seconds) + LADDER.len() * LEVEL_REQUESTS
}

/// The in-process replay's spans.
#[derive(Default)]
struct Replay {
    decode: Span,
    deliver: Span,
    flush: Span,
    encode: Span,
    writes: u64,
    datagrams: u64,
    jreps: u64,
    wall: f64,
}

/// Journal events the RSU holds (a change means the next flush writes).
fn journal_len(driver: &mut RoleDriver) -> usize {
    let node: &dyn Any = driver.as_node();
    node.downcast_ref::<RsuNode>()
        .map_or(0, |n| n.events().len())
}

/// Replays `datagrams` through the daemon's layers without a socket,
/// timing each layer when `traced`.
fn replay(cfg: &NodeConfig, datagrams: &[&[u8]], traced: bool) -> io::Result<Replay> {
    let mut driver = build_driver(cfg).map_err(|e| io::Error::other(e.to_string()))?;
    let mut harness = NodeHarness::new();
    let self_id = NodeId::new(RSU_ID);
    let mut r = Replay::default();
    let mut journal = journal_len(&mut driver);
    let span = |traced: bool, s: &mut Span, f: &mut dyn FnMut()| {
        if traced {
            timed(s, f);
        } else {
            f();
        }
    };
    let interval = 1.0 / FIXED_RATE;
    let start = Instant::now();
    for (i, bytes) in datagrams.iter().enumerate() {
        let now = Time::from_micros((i as f64 * interval * 1e6) as u64 * SCALE);
        let mut decoded = None;
        span(traced, &mut r.decode, &mut || {
            decoded = Some(Envelope::decode(bytes))
        });
        r.datagrams += 1;
        let Some(Ok(Envelope::Frame {
            from,
            channel,
            frame,
        })) = decoded
        else {
            continue;
        };
        let mut effects = Vec::new();
        let mut frame = Some(frame);
        span(traced, &mut r.deliver, &mut || {
            effects = harness.deliver(
                driver.as_node(),
                now,
                self_id,
                NodeId::new(from),
                frame.take().expect("delivered once"),
                channel,
            )
        });
        let mut flushed = Ok(());
        span(traced, &mut r.flush, &mut || {
            flushed = driver.flush(&cfg.out_dir, cfg.node_id)
        });
        flushed?;
        let now_len = journal_len(&mut driver);
        if now_len != journal {
            r.writes += 1;
            journal = now_len;
        }
        span(traced, &mut r.encode, &mut || {
            for effect in effects.drain(..) {
                let (frame, channel) = match effect {
                    NodeEffect::Unicast { payload, .. } => (payload, Channel::Radio),
                    NodeEffect::Broadcast { payload } => (payload, Channel::Radio),
                    NodeEffect::Wired { payload, .. } => (payload, Channel::Wired),
                    _ => continue,
                };
                if matches!(frame.wire, Wire::BlackDp(BlackDpMessage::Jrep { .. })) {
                    r.jreps += 1;
                }
                let env = Envelope::Frame {
                    from: cfg.node_id,
                    channel,
                    frame,
                };
                std::hint::black_box(env.encode());
            }
        });
    }
    r.wall = start.elapsed().as_secs_f64();
    Ok(r)
}

/// What the live run produced.
struct Live {
    /// Daemon start-up plus warm-up, seconds.
    start_s: f64,
    /// Probe datagrams sent before the daemon answered.
    probes: usize,
    /// The fixed-rate level, then each ladder level climbed.
    levels: Vec<Level>,
    /// Stream indices in send order, probe first.
    sent_order: Vec<usize>,
    report: RunReport,
}

/// Hands out consecutive slices of the stream, remembering the order.
struct Cursor<'a> {
    stream: &'a [Jreq],
    order: Vec<usize>,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> &'a [Jreq] {
        let next = self.order.len();
        let range = next..(next + n).min(self.stream.len());
        self.order.extend(range.clone());
        &self.stream[range]
    }
}

fn drive(cfg: &NodeConfig, driver: RoleDriver, stream: &[Jreq], seconds: u64) -> io::Result<Live> {
    let started = Instant::now();
    let socket = UdpSocket::bind(cfg.peers[0].addr)?;
    socket.set_nonblocking(true)?;
    let mut link = UdpLink {
        socket,
        peer: cfg.listen,
        buf: vec![0; 64 * 1024],
    };
    let mut cursor = Cursor {
        stream,
        order: Vec::new(),
    };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || run_daemon(cfg, driver));
        let result = (|| {
            // The daemon binds on its own thread: probe until the first
            // JREP comes back.
            let probe = &cursor.take(1)[0];
            let mut probes = 0;
            let deadline = Instant::now() + WallDuration::from_secs(10);
            loop {
                link.send(&probe.bytes)?;
                probes += 1;
                if let Some(reply) = link.recv(WallDuration::from_millis(20))? {
                    if jrep_addr(&reply).ok().flatten() == Some(probe.addr) {
                        break;
                    }
                }
                if Instant::now() > deadline || daemon.is_finished() {
                    return Err(io::Error::other("the RSU daemon never answered a JREQ"));
                }
            }
            open_loop(&mut link, cursor.take(WARMUP - 1), FIXED_RATE)?;
            let start_s = started.elapsed().as_secs_f64();
            let mut levels = vec![open_loop(
                &mut link,
                cursor.take(fixed_requests(seconds)),
                FIXED_RATE,
            )?];
            for rate in LADDER {
                let level = open_loop(&mut link, cursor.take(LEVEL_REQUESTS), rate)?;
                let passed = level.passes();
                levels.push(level);
                if !passed {
                    break;
                }
            }
            Ok((start_s, probes, levels))
        })();
        // Stop the daemon whatever happened; repeat in case a datagram is
        // lost.
        let stop = Envelope::Shutdown { from: GEN_ID }.encode();
        while !daemon.is_finished() {
            link.send(&stop)?;
            std::thread::sleep(WallDuration::from_millis(20));
        }
        let report = daemon.join().expect("the RSU daemon thread panicked")?;
        let (start_s, probes, levels) = result?;
        Ok(Live {
            start_s,
            probes,
            levels,
            sent_order: cursor.order,
            report,
        })
    })
}

/// A percentile for a note: `n/a` when too few samples support it.
fn ms(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |v| format!("{v:.3}"))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let mut out = Outcome::new();
    let dir = RunDir::create()?;
    let (provision_s, prov) = median_setup(Mix::Churn, 3, || provision(seed, stream_len(seconds)));
    prov.rsu
        .save(&dir.0.join("rsu.identity"))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let generator = free_port()?;
    let cfg = rsu_config(seed, &dir.0, free_port()?, generator);
    let driver = build_driver(&cfg).map_err(|e| io::Error::other(e.to_string()))?;
    let live = drive(&cfg, driver, &prov.stream, seconds)?;

    let fixed = &live.levels[0];
    let ladder = &live.levels[1..];
    let unanswered: usize = live.levels.iter().map(|l| l.unanswered).sum();
    let decode_errors: usize = live.levels.iter().map(|l| l.decode_errors).sum();
    out.attempted = live.levels.iter().map(|l| l.sent).sum::<usize>() as u64;
    out.failed = (unanswered + decode_errors) as u64;
    out.check(out.failed == 0, || {
        format!("{unanswered} JREQ(s) without a JREP, {decode_errors} undecodable repl(ies)")
    });
    out.check(live.report.decode_errors == 0, || {
        format!(
            "the daemon failed to decode {} datagram(s)",
            live.report.decode_errors
        )
    });
    // Every datagram after the readiness probe must reach the daemon; of
    // the probe's copies, at least the answered one must.
    let copies = (live.report.received as usize + 1).checked_sub(live.sent_order.len());
    out.check(
        copies.is_some_and(|c| (1..=live.probes).contains(&c)),
        || {
            format!(
                "the daemon received {} datagrams; {} were sent, plus {} probe(s)",
                live.report.received,
                live.sent_order.len() - 1,
                live.probes
            )
        },
    );
    for l in &live.levels {
        out.note(format!(
            "rsu_join: {:.0}/s offered, {} sent, p50 {} ms, p99 {} ms, lateness p99 {} ms{}",
            l.offered,
            l.sent,
            ms(percentile(&l.rtt_ms, 0.5)),
            ms(l.p99()),
            ms(percentile(&l.lateness_ms, 0.99)),
            if l.passes() { "" } else { " (over the limit)" }
        ));
    }

    if !trace {
        out.put("setup_s", provision_s + live.start_s, "s");
        out.put(
            "join_rtt_ms_p50",
            percentile(&fixed.rtt_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
        );
        out.put("join_rtt_ms_p99", fixed.p99().unwrap_or(f64::NAN), "ms");
        let best = ladder.iter().rfind(|l| l.passes());
        out.put("join_max_rate", best.map_or(0.0, |l| l.offered), "1/s");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        return Ok(out);
    }

    // The replay: the probe copies the daemon received, then the rest in
    // send order — as many datagrams as `RunReport.received` counts.
    let mut datagrams: Vec<&[u8]> = Vec::new();
    for _ in 0..copies.unwrap_or(1) {
        datagrams.push(&prov.stream[live.sent_order[0]].bytes);
    }
    datagrams.extend(
        live.sent_order[1..]
            .iter()
            .map(|&i| prov.stream[i].bytes.as_slice()),
    );
    // Both replays start as cold as the live daemon did: its verdicts
    // sit in the process-global envelope memo.
    envelope_memo_clear();
    blackdp_crypto::cert_cache_clear();
    let plain = replay(&cfg, &datagrams, false)?;
    envelope_memo_clear();
    blackdp_crypto::cert_cache_clear();
    let traced = replay(&cfg, &datagrams, true)?;
    let (hits, misses) = blackdp_crypto::cert_cache_stats();
    out.check(
        traced.jreps == traced.datagrams && plain.jreps == traced.jreps,
        || {
            format!(
                "replay answered {} of {} JREQs",
                traced.jreps, traced.datagrams
            )
        },
    );
    let lateness: Vec<f64> = live
        .levels
        .iter()
        .flat_map(|l| l.lateness_ms.iter().copied())
        .collect();
    out.put("daemon.decode.self_s", traced.decode.secs(), "s");
    out.put("daemon.deliver.self_s", traced.deliver.secs(), "s");
    out.put("daemon.flush.self_s", traced.flush.secs(), "s");
    out.put("daemon.encode.self_s", traced.encode.secs(), "s");
    out.put("daemon.flush.writes", traced.writes as f64, "count");
    out.put("daemon.datagrams", traced.datagrams as f64, "count");
    out.put(
        "daemon.decode_errors",
        live.report.decode_errors as f64,
        "count",
    );
    out.put("daemon.received", live.report.received as f64, "count");
    out.put("daemon.sent", live.report.sent as f64, "count");
    out.put(
        "daemon.timers_fired",
        live.report.timers_fired as f64,
        "count",
    );
    out.put(
        "gen.lateness_ms_p99",
        percentile(&lateness, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    out.put("crypto.cert_cache.hits", hits as f64, "count");
    out.put("crypto.cert_cache.misses", misses as f64, "count");
    let covered =
        traced.decode.secs() + traced.deliver.secs() + traced.flush.secs() + traced.encode.secs();
    out.put("trace.overhead", traced.wall / plain.wall, "ratio");
    out.put("trace.coverage", covered / traced.wall, "ratio");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackdp_aodv::Addr;

    #[test]
    fn provisioning_is_a_pure_function_of_the_seed() {
        let bytes = |seed| -> Vec<Vec<u8>> {
            provision(seed, 8)
                .stream
                .into_iter()
                .map(|j| j.bytes)
                .collect()
        };
        assert_eq!(bytes(3), bytes(3));
        assert_ne!(bytes(3), bytes(4));
    }

    /// A stand-in RSU that answers each JREQ at once, except that its
    /// first `send` blocks for `stall`, as a generator preempted mid-send
    /// would.
    struct StallingRsu {
        stall: WallDuration,
        replies: VecDeque<Vec<u8>>,
    }

    impl Link for StallingRsu {
        fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
            if !self.stall.is_zero() {
                std::thread::sleep(std::mem::take(&mut self.stall));
            }
            let addr = u64::from_le_bytes(bytes.try_into().expect("test datagram"));
            let jrep = Envelope::Frame {
                from: RSU_ID,
                channel: Channel::Radio,
                frame: Frame {
                    src: ch_addr(ClusterId(1)),
                    dst: Some(Addr(addr)),
                    wire: Wire::BlackDp(BlackDpMessage::Jrep {
                        cluster: ClusterId(1),
                        ch_addr: ch_addr(ClusterId(1)),
                        epoch: 0,
                        blacklist: Vec::new(),
                    }),
                },
            };
            self.replies.push_back(jrep.encode());
            Ok(())
        }
        fn recv(&mut self, timeout: WallDuration) -> io::Result<Option<Vec<u8>>> {
            if let Some(r) = self.replies.pop_front() {
                return Ok(Some(r));
            }
            std::thread::sleep(timeout);
            Ok(None)
        }
    }

    #[test]
    fn latency_counts_from_the_scheduled_send_time() {
        let stream: Vec<Jreq> = (0..20u64)
            .map(|a| Jreq {
                bytes: a.to_le_bytes().to_vec(),
                addr: a,
            })
            .collect();
        let stall = WallDuration::from_millis(40);
        let mut rsu = StallingRsu {
            stall,
            replies: VecDeque::new(),
        };
        // 1,000/s: request i is due 1 ms after request i-1.
        let level = open_loop(&mut rsu, &stream, 1_000.0).unwrap();
        assert_eq!(level.sent, 20);
        assert_eq!(level.unanswered, 0);
        assert_eq!(level.rtt_ms.len(), 20);
        // The stall delays every request due during it: each waits from
        // its due time, although the stand-in answers the instant it is
        // sent.
        for (i, rtt) in level.rtt_ms.iter().enumerate() {
            let due_ms = i as f64;
            assert!(*rtt >= 40.0 - due_ms - 1.0, "request {i}: {rtt} ms");
        }
        assert!(level.lateness_ms[5] >= 30.0);
    }
}
