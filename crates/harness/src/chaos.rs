//! Deterministic, seeded I/O fault injection.
//!
//! ff-sentinel proved the value of seeded fault injection for the
//! *microarchitectural* plane; this module applies the same discipline to
//! the *I/O* plane. Every filesystem primitive the artifact store relies
//! on — write, fsync, rename, read — routes through this module, and an
//! installed [`ChaosPolicy`] may deterministically inject the failure
//! modes real storage exhibits:
//!
//! * **torn write** — only a prefix of the bytes lands before the
//!   "process dies" (the write errors and a partial temp file remains);
//! * **disk full** — a prefix lands, then the write fails ENOSPC-style;
//! * **silent truncation** — the rename succeeds but the file loses its
//!   tail, with no error reported (bad FS, lost sectors);
//! * **bit flip** — the rename succeeds but one stored bit differs
//!   (media corruption);
//! * **clean errors** on fsync/read.
//!
//! Policies are *scoped by path substring*, so concurrently running tests
//! (each with its own temp directory) never perturb one another, and the
//! [`SeededChaos`] policy is driven by a xorshift64 generator: the same
//! seed over the same operation sequence injects the same faults. The
//! `FF_CHAOS` environment variable (parsed by [`install_from_env`])
//! arms the layer in the `ff-campaign` binary for CI chaos runs.
//!
//! For the network plane, [`TcpProxy`] is a fault-injecting TCP
//! forwarder that kills the first N proxied responses mid-flight, used to
//! prove the client's retry path end-to-end.
//!
//! With no policy installed every wrapper compiles down to the plain
//! `std::fs` call plus one mutex-free atomic load.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The filesystem operation a policy is consulted about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsOp {
    /// Writing a (temp) file's bytes.
    Write,
    /// Flushing a file (or directory) to stable storage.
    Fsync,
    /// Atomically renaming a temp file over its final name.
    Rename,
    /// Reading a file back.
    Read,
}

/// A fault to inject into one filesystem operation.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// The operation fails cleanly with an injected I/O error.
    Error,
    /// Write only: a prefix lands (`keep_pct`% of the bytes), then the
    /// writer "dies" — the call errors and the partial file remains.
    TornWrite {
        /// Percent of the payload that reaches the disk, 0..=99.
        keep_pct: u8,
    },
    /// Write only: a prefix lands, then the device reports it is full.
    DiskFull,
    /// Rename only: the rename succeeds but the renamed file silently
    /// loses its tail, keeping `keep_pct`% of its bytes.
    Truncate {
        /// Percent of the file that survives, 0..=99.
        keep_pct: u8,
    },
    /// Rename only: the rename succeeds but one bit of the file flips.
    /// `salt` deterministically selects which bit.
    BitFlip {
        /// Entropy selecting the flipped bit (`salt % (len * 8)`).
        salt: u64,
    },
}

/// A fault-injection policy consulted once per filesystem operation.
pub trait ChaosPolicy: Send + Sync {
    /// The fault to inject for this operation, or `None` to let it
    /// through untouched.
    fn decide(&self, op: FsOp, path: &Path) -> Option<Fault>;
}

/// The installed policy. The atomic flag makes the common (disarmed)
/// path a single relaxed load with no lock.
static ARMED: AtomicBool = AtomicBool::new(false);
static POLICY: Mutex<Option<Arc<dyn ChaosPolicy>>> = Mutex::new(None);

/// Held by the live [`ChaosGuard`], so at most one policy is installed
/// at a time.
static INSTALLED: Mutex<()> = Mutex::new(());

/// Uninstalls the global policy when dropped, so a panicking test cannot
/// leave chaos armed for the rest of the process. It holds the install
/// lock until then, so no other [`install`] can replace or disarm its
/// policy.
pub struct ChaosGuard {
    _installed: MutexGuard<'static, ()>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        let mut slot = POLICY.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = None;
        ARMED.store(false, Ordering::SeqCst);
    }
}

/// Installs `policy` as the process-global fault injector, first waiting
/// for any other installed policy's guard to drop. Scope policies by path
/// (see [`SeededChaos::scoped`]) so unrelated I/O — including other tests
/// in the same process — is unaffected.
pub fn install(policy: Arc<dyn ChaosPolicy>) -> ChaosGuard {
    // The lock guards no data, so a guard dropped while panicking leaves
    // nothing to repair.
    let held = INSTALLED.lock().unwrap_or_else(PoisonError::into_inner);
    let mut slot = POLICY.lock().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(policy);
    ARMED.store(true, Ordering::SeqCst);
    ChaosGuard { _installed: held }
}

fn decide(op: FsOp, path: &Path) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let slot = POLICY.lock().unwrap_or_else(PoisonError::into_inner);
    slot.as_ref().and_then(|p| p.decide(op, path))
}

fn injected(what: &str, path: &Path) -> io::Error {
    io::Error::other(format!("chaos: {what} ({})", path.display()))
}

/// Chaos-routed `std::fs::write`.
///
/// # Errors
///
/// On a real filesystem error or an injected write fault (torn write /
/// disk full / clean error). Injected partial writes leave the prefix on
/// disk, exactly as a crashed writer would.
pub fn write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    match decide(FsOp::Write, path) {
        None => std::fs::write(path, bytes),
        Some(Fault::Error) => Err(injected("injected write error", path)),
        Some(Fault::TornWrite { keep_pct }) => {
            let keep = bytes.len() * usize::from(keep_pct.min(99)) / 100;
            let _ = std::fs::write(path, &bytes[..keep]);
            Err(injected("torn write, process killed mid-write", path))
        }
        Some(Fault::DiskFull) => {
            let keep = bytes.len() / 2;
            let _ = std::fs::write(path, &bytes[..keep]);
            Err(injected("no space left on device", path))
        }
        // Silent post-rename faults make no sense for a write; treat as
        // a clean pass so misconfigured policies stay harmless.
        Some(Fault::Truncate { .. } | Fault::BitFlip { .. }) => std::fs::write(path, bytes),
    }
}

/// Chaos-routed fsync of a file: opens `path` and calls `sync_all`.
///
/// # Errors
///
/// On a real fsync failure or an injected one.
pub fn fsync_file(path: &Path) -> io::Result<()> {
    if let Some(Fault::Error) = decide(FsOp::Fsync, path) {
        return Err(injected("injected fsync error", path));
    }
    std::fs::File::open(path)?.sync_all()
}

/// Best-effort fsync of a directory, making a preceding rename durable.
/// Errors are swallowed: directory fsync is unsupported on some
/// platforms and the rename itself already happened.
pub fn fsync_dir(path: &Path) {
    if decide(FsOp::Fsync, path).is_some() {
        return; // injected failure: silently skip, as a crash would
    }
    if let Ok(d) = std::fs::File::open(path) {
        let _ = d.sync_all();
    }
}

/// Chaos-routed `std::fs::rename`. Injected `Truncate`/`BitFlip` faults
/// let the rename succeed but silently corrupt the renamed file — the
/// failure mode checksums exist to catch.
///
/// # Errors
///
/// On a real rename failure or an injected clean error.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match decide(FsOp::Rename, to) {
        None => std::fs::rename(from, to),
        Some(Fault::Error) => Err(injected("injected rename error", to)),
        Some(Fault::Truncate { keep_pct }) => {
            std::fs::rename(from, to)?;
            let len = std::fs::metadata(to)?.len();
            let keep = len * u64::from(keep_pct.min(99)) / 100;
            let f = std::fs::OpenOptions::new().write(true).open(to)?;
            f.set_len(keep)?;
            Ok(())
        }
        Some(Fault::BitFlip { salt }) => {
            std::fs::rename(from, to)?;
            let mut bytes = std::fs::read(to)?;
            if !bytes.is_empty() {
                let bit = salt as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(to, &bytes)?;
            }
            Ok(())
        }
        Some(Fault::TornWrite { .. } | Fault::DiskFull) => std::fs::rename(from, to),
    }
}

/// Chaos-routed `std::fs::read_to_string`.
///
/// # Errors
///
/// On a real read failure or an injected one.
pub fn read_to_string(path: &Path) -> io::Result<String> {
    if let Some(Fault::Error) = decide(FsOp::Read, path) {
        return Err(injected("injected read error", path));
    }
    std::fs::read_to_string(path)
}

/// A seeded, path-scoped fault policy: each fault class fires on average
/// once per `every` eligible operations (0 disables the class), driven
/// by a xorshift64 stream so the same seed over the same operation
/// sequence injects the same faults.
pub struct SeededChaos {
    state: Mutex<u64>,
    scope: Option<String>,
    /// 1-in-N torn writes (0 = off).
    pub torn_every: u32,
    /// 1-in-N disk-full writes (0 = off).
    pub diskfull_every: u32,
    /// 1-in-N silent truncations on rename (0 = off).
    pub truncate_every: u32,
    /// 1-in-N bit flips on rename (0 = off).
    pub bitflip_every: u32,
    /// 1-in-N fsync failures (0 = off).
    pub fsync_every: u32,
    /// 1-in-N read failures (0 = off).
    pub read_every: u32,
}

impl SeededChaos {
    /// A disarmed policy (every class off) seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SeededChaos {
            // xorshift64 has a fixed point at 0; nudge it off.
            state: Mutex::new(seed | 1),
            scope: None,
            torn_every: 0,
            diskfull_every: 0,
            truncate_every: 0,
            bitflip_every: 0,
            fsync_every: 0,
            read_every: 0,
        }
    }

    /// Restricts the policy to paths whose string form contains `scope`.
    /// Always scope test policies to the test's own temp directory.
    pub fn scoped(mut self, scope: impl Into<String>) -> Self {
        self.scope = Some(scope.into());
        self
    }

    fn next(&self) -> u64 {
        let mut s = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x
    }

    fn hit(&self, every: u32) -> bool {
        every > 0 && self.next().is_multiple_of(u64::from(every))
    }
}

impl ChaosPolicy for SeededChaos {
    fn decide(&self, op: FsOp, path: &Path) -> Option<Fault> {
        if let Some(scope) = &self.scope {
            if !path.to_string_lossy().contains(scope.as_str()) {
                return None;
            }
        }
        match op {
            FsOp::Write => {
                if self.hit(self.torn_every) {
                    return Some(Fault::TornWrite { keep_pct: (self.next() % 90) as u8 });
                }
                if self.hit(self.diskfull_every) {
                    return Some(Fault::DiskFull);
                }
                None
            }
            FsOp::Rename => {
                if self.hit(self.truncate_every) {
                    return Some(Fault::Truncate { keep_pct: (self.next() % 90) as u8 });
                }
                if self.hit(self.bitflip_every) {
                    return Some(Fault::BitFlip { salt: self.next() });
                }
                None
            }
            FsOp::Fsync => self.hit(self.fsync_every).then_some(Fault::Error),
            FsOp::Read => self.hit(self.read_every).then_some(Fault::Error),
        }
    }
}

/// Arms the chaos layer from the `FF_CHAOS` environment variable, if
/// set. Format: comma-separated `key=value` pairs, e.g.
/// `FF_CHAOS="seed=42,torn=3,scope=target/chaos"` — fault-class keys
/// (`torn`, `diskfull`, `truncate`, `bitflip`, `fsync`, `read`) give the
/// 1-in-N rate, `seed` the RNG seed, `scope` a required path substring.
/// Unknown keys and malformed pairs are ignored so a typo degrades to
/// less chaos, never to a crashed campaign.
///
/// Returns the guard keeping the policy installed; hold it for the
/// process lifetime.
pub fn install_from_env() -> Option<ChaosGuard> {
    let var = std::env::var("FF_CHAOS").ok()?;
    if var.trim().is_empty() {
        return None;
    }
    let mut policy = SeededChaos::new(0x5eed_f1ea);
    for pair in var.split(',') {
        let Some((key, value)) = pair.split_once('=') else { continue };
        let (key, value) = (key.trim(), value.trim());
        if key == "scope" {
            policy.scope = Some(value.to_string());
            continue;
        }
        let Ok(n) = value.parse::<u64>() else { continue };
        match key {
            "seed" => policy.state = Mutex::new(n | 1),
            "torn" => policy.torn_every = n as u32,
            "diskfull" => policy.diskfull_every = n as u32,
            "truncate" => policy.truncate_every = n as u32,
            "bitflip" => policy.bitflip_every = n as u32,
            "fsync" => policy.fsync_every = n as u32,
            "read" => policy.read_every = n as u32,
            _ => {}
        }
    }
    eprintln!("chaos: armed from FF_CHAOS ({var})");
    Some(install(Arc::new(policy)))
}

/// A scoped policy that faults exactly the `nth` eligible operation of
/// one kind and nothing else — the sharpest tool for tests that need
/// "the first artifact write dies" rather than a statistical fault rate.
pub struct NthOp {
    op: FsOp,
    fault: Fault,
    scope: String,
    remaining: Mutex<u64>,
}

impl NthOp {
    /// Faults the `nth` (1-based) `op` whose path contains `scope`.
    pub fn new(op: FsOp, fault: Fault, scope: impl Into<String>, nth: u64) -> Self {
        NthOp { op, fault, scope: scope.into(), remaining: Mutex::new(nth) }
    }
}

impl ChaosPolicy for NthOp {
    fn decide(&self, op: FsOp, path: &Path) -> Option<Fault> {
        if op != self.op || !path.to_string_lossy().contains(self.scope.as_str()) {
            return None;
        }
        let mut left = self.remaining.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if *left == 0 {
            return None; // already fired
        }
        *left -= 1;
        (*left == 0).then_some(self.fault)
    }
}

/// A fault-injecting TCP proxy for client-transport tests: forwards
/// byte streams between clients and `upstream`, but kills the first
/// `reset_first` connections after relaying at most `after_bytes` bytes
/// of the upstream's response — the wire-level analogue of a connection
/// reset mid-reply. Connection ordering is the only nondeterminism;
/// tests drive it with sequential requests.
pub struct TcpProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<AtomicU64>,
}

impl TcpProxy {
    /// Starts the proxy on an ephemeral localhost port.
    ///
    /// # Errors
    ///
    /// On failure to bind the listening socket.
    pub fn start(upstream: SocketAddr, reset_first: u64, after_bytes: usize) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(AtomicU64::new(0));
        let (stop2, conns2) = (Arc::clone(&stop), Arc::clone(&conns));
        std::thread::spawn(move || {
            for client in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { break };
                let n = conns2.fetch_add(1, Ordering::SeqCst) + 1;
                let faulty = n <= reset_first;
                std::thread::spawn(move || forward(client, upstream, faulty, after_bytes));
            }
        });
        Ok(TcpProxy { addr, stop, conns })
    }

    /// The proxy's listening address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.conns.load(Ordering::SeqCst)
    }

    /// Stops accepting new connections.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for TcpProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn forward(client: TcpStream, upstream: SocketAddr, faulty: bool, after_bytes: usize) {
    let Ok(server) = TcpStream::connect(upstream) else { return };
    let (Ok(mut c_in), Ok(mut s_out)) = (client.try_clone(), server.try_clone()) else { return };
    // Client → upstream: relay the request until the client half-closes.
    let req = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        while let Ok(n) = c_in.read(&mut buf) {
            if n == 0 || s_out.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = s_out.shutdown(std::net::Shutdown::Write);
    });
    // Upstream → client: relay the response, cut short when faulty.
    let mut relayed = 0usize;
    let mut buf = [0u8; 4096];
    let mut s_in = server;
    let mut c_out = client;
    while let Ok(n) = s_in.read(&mut buf) {
        if n == 0 {
            break;
        }
        let take = if faulty { n.min(after_bytes.saturating_sub(relayed)) } else { n };
        if take > 0 && c_out.write_all(&buf[..take]).is_err() {
            break;
        }
        relayed += take;
        if faulty && relayed >= after_bytes {
            break; // drop the rest: connection reset mid-response
        }
    }
    let _ = c_out.shutdown(std::net::Shutdown::Both);
    let _ = s_in.shutdown(std::net::Shutdown::Both);
    let _ = req.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ff-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disarmed_wrappers_pass_through() {
        let dir = temp("passthrough");
        let p = dir.join("a.txt");
        write(&p, b"hello").unwrap();
        fsync_file(&p).unwrap();
        let q = dir.join("b.txt");
        rename(&p, &q).unwrap();
        fsync_dir(&dir);
        assert_eq!(read_to_string(&q).unwrap(), "hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_leaves_a_prefix_and_errors() {
        let dir = temp("torn");
        let p = dir.join("victim.txt");
        let _guard = install(Arc::new(NthOp::new(
            FsOp::Write,
            Fault::TornWrite { keep_pct: 50 },
            dir.to_string_lossy().into_owned(),
            1,
        )));
        let err = write(&p, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(std::fs::read(&p).unwrap(), b"01234");
        // Out-of-scope paths are untouched.
        let other = std::env::temp_dir().join(format!("ff-chaos-other-{}", std::process::id()));
        write(&other, b"ok").unwrap();
        std::fs::remove_file(&other).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silent_faults_apply_after_rename() {
        let dir = temp("silent");
        let scope = dir.to_string_lossy().into_owned();
        let src = dir.join("src.txt");
        let dst = dir.join("dst.txt");

        std::fs::write(&src, "0123456789").unwrap();
        {
            let _guard = install(Arc::new(NthOp::new(
                FsOp::Rename,
                Fault::Truncate { keep_pct: 30 },
                scope.clone(),
                1,
            )));
            rename(&src, &dst).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&dst).unwrap(), "012");

        std::fs::write(&src, "AAAA").unwrap();
        {
            let _guard =
                install(Arc::new(NthOp::new(FsOp::Rename, Fault::BitFlip { salt: 9 }, scope, 1)));
            rename(&src, &dst).unwrap();
        }
        let flipped = std::fs::read(&dst).unwrap();
        assert_ne!(flipped, b"AAAA");
        assert_eq!(flipped.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_policy_is_deterministic_and_scoped() {
        let make = |seed| {
            let mut p = SeededChaos::new(seed).scoped("/ff-scope/");
            p.torn_every = 3;
            p
        };
        let seq = |pol: &SeededChaos| {
            (0..64)
                .map(|i| {
                    let path = PathBuf::from(format!("/ff-scope/f{i}"));
                    pol.decide(FsOp::Write, &path).is_some()
                })
                .collect::<Vec<_>>()
        };
        assert!(make(7).decide(FsOp::Write, Path::new("/elsewhere/x")).is_none());
        let (a, b) = (seq(&make(7)), seq(&make(7)));
        assert_eq!(a, b, "same seed, same fault pattern");
        assert!(a.iter().any(|&f| f), "1-in-3 must fire within 64 ops");
        assert!(a.iter().any(|&f| !f), "1-in-3 must also pass some ops");
        assert_ne!(seq(&make(9)), a, "different seed, different pattern");
    }

    #[test]
    fn proxy_passes_through_then_resets_when_faulty() {
        // A tiny echo-ish upstream: reads the request, replies with a
        // fixed 20-byte body, closes.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in upstream.incoming() {
                let Ok(mut conn) = conn else { break };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    let _ = conn.read(&mut buf);
                    let _ = conn.write_all(b"01234567890123456789");
                });
            }
        });
        let proxy = TcpProxy::start(up_addr, 1, 5).unwrap();
        let fetch = || {
            let mut s = TcpStream::connect(proxy.addr()).unwrap();
            s.write_all(b"ping\n").unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = Vec::new();
            let _ = s.read_to_end(&mut out);
            out
        };
        // First connection: reset after 5 relayed bytes.
        assert_eq!(fetch(), b"01234");
        // Second connection: clean pass-through.
        assert_eq!(fetch(), b"01234567890123456789");
        assert_eq!(proxy.connections(), 2);
    }
}
