//! Artifact integrity: checksum footers, verified reads, and `fsck`.
//!
//! Every artifact the store writes carries a one-line footer after its
//! JSON payload:
//!
//! ```text
//! #ff-checksum v1 crc64=995dc9bbdf1939fa bytes=1234
//! ```
//!
//! `crc64` is CRC-64/XZ over the payload bytes (everything before the
//! footer line, including the payload's trailing newline) and `bytes` is
//! the payload length, so both silent truncation and bit rot are caught
//! on read. The footer is a *storage-layer* concern: [`open`] verifies
//! and strips it, so everything above the store — artifact parsing,
//! byte-identity contracts between served and locally-rendered
//! artifacts, report rendering — sees pure payload bytes.
//!
//! A file without a footer is corrupt: the store seals every artifact it
//! writes, so a footerless file is either a sealed one truncated at or
//! before its footer, or foreign. Either way it is quarantined and
//! re-simulated as a miss.
//!
//! [`fsck`] walks a store, classifies every artifact ok / corrupt,
//! sweeps orphaned `.tmp-*` files left by crashed writers, and
//! moves corrupt files into a `corrupt/` ledger directory so the
//! scheduler transparently re-simulates them as memoization misses
//! (self-healing). The same walk backs `ff-campaign fsck`, the
//! `ff-server` startup scan (which opens the store through it) and, with
//! verification off, the sweep of every `ShardedStore::open`.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::chaos;
use crate::store::{self, artifact_hash_of};

/// The footer tag. A versioned format: v2 readers can accept v1 files.
pub const FOOTER_TAG: &str = "#ff-checksum v1";

/// The ledger directory corrupt artifacts are moved into.
pub const CORRUPT_DIR: &str = "corrupt";

/// The append-only ledger file inside [`CORRUPT_DIR`].
pub const LEDGER_NAME: &str = "ledger.jsonl";

/// The reflected CRC-64/XZ polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The slicing-by-8 tables: `CRC_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through it alone, and `CRC_TABLES[k][b]` the same
/// byte followed by `k` zero bytes, so one lookup per table folds eight
/// input bytes at once.
static CRC_TABLES: [[u64; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-64/XZ (reflected, polynomial `0xC96C5795D7870F42`, init and
/// xorout all-ones) — the checksum used by `xz` and compatible with
/// `python3 -c 'import crcmod; …'` CI checks. Every verified read pays
/// for it, so it runs slicing-by-8 (Kounavis & Berry): eight table
/// lookups fold eight bytes with no dependent per-bit steps, and a
/// byte-at-a-time tail handles the rest. The tables are built at compile
/// time from the polynomial, and the tests pin the result to a bitwise oracle.
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC_TABLES;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = crc ^ u64::from_le_bytes(word.try_into().expect("chunks of eight bytes"));
        crc = t[7][(w & 0xff) as usize]
            ^ t[6][((w >> 8) & 0xff) as usize]
            ^ t[5][((w >> 16) & 0xff) as usize]
            ^ t[4][((w >> 24) & 0xff) as usize]
            ^ t[3][((w >> 32) & 0xff) as usize]
            ^ t[2][((w >> 40) & 0xff) as usize]
            ^ t[1][((w >> 48) & 0xff) as usize]
            ^ t[0][(w >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u64::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Appends the integrity footer to `payload`, which must end with a
/// newline (artifact renderers guarantee it; one is added otherwise).
pub fn seal(payload: &str) -> String {
    let mut text = payload.to_string();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    let crc = crc64(text.as_bytes());
    let bytes = text.len();
    text.push_str(&format!("{FOOTER_TAG} crc64={crc:016x} bytes={bytes}\n"));
    text
}

/// Verifies `text` and strips its footer, returning the payload and
/// its verified CRC-64.
///
/// # Errors
///
/// With a human-readable reason when the footer is missing or
/// malformed, or the length or checksum mismatches.
pub fn open(text: &str) -> Result<(&str, u64), String> {
    let footer_start = if text.starts_with(FOOTER_TAG) {
        Some(0)
    } else {
        text.rfind(&format!("\n{FOOTER_TAG}")).map(|i| i + 1)
    };
    let Some(footer_start) = footer_start else {
        return Err("no checksum footer".into());
    };
    let payload = &text[..footer_start];
    let footer = &text[footer_start..];
    let Some(line) = footer.strip_suffix('\n') else {
        return Err("truncated checksum footer (missing trailing newline)".into());
    };
    if line.contains('\n') {
        return Err("garbage after checksum footer".into());
    }
    let rest = &line[FOOTER_TAG.len()..];
    let mut crc_field = None;
    let mut bytes_field = None;
    for part in rest.split_whitespace() {
        if let Some(v) = part.strip_prefix("crc64=") {
            crc_field = u64::from_str_radix(v, 16).ok();
        } else if let Some(v) = part.strip_prefix("bytes=") {
            bytes_field = v.parse::<usize>().ok();
        }
    }
    let (Some(crc), Some(bytes)) = (crc_field, bytes_field) else {
        return Err(format!("malformed checksum footer `{line}`"));
    };
    if payload.len() != bytes {
        return Err(format!(
            "length mismatch: footer says {bytes} bytes, payload has {}",
            payload.len()
        ));
    }
    let actual = crc64(payload.as_bytes());
    if actual != crc {
        return Err(format!("checksum mismatch: footer says {crc:016x}, payload is {actual:016x}"));
    }
    Ok((payload, crc))
}

/// Why a verified read failed.
#[derive(Debug)]
pub enum ReadError {
    /// The file could not be read at all (missing, permissions, I/O).
    Io(std::io::Error),
    /// The file was read but failed integrity verification.
    Corrupt(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "{e}"),
            ReadError::Corrupt(reason) => write!(f, "{reason}"),
        }
    }
}

/// Reads `path` (through the chaos layer) and verifies its integrity,
/// returning the footer-stripped payload and its verified CRC-64.
///
/// # Errors
///
/// [`ReadError::Io`] when the file cannot be read, [`ReadError::Corrupt`]
/// when it fails verification.
pub fn read_verified(path: &Path) -> Result<(String, u64), ReadError> {
    let mut text = chaos::read_to_string(path).map_err(ReadError::Io)?;
    let (len, crc) =
        open(&text).map(|(payload, crc)| (payload.len(), crc)).map_err(ReadError::Corrupt)?;
    // The payload is the text's prefix: drop the footer in place.
    text.truncate(len);
    Ok((text, crc))
}

/// Moves a corrupt artifact into `<root>/corrupt/` and appends a line to
/// the ledger recording the file, where it came from, and why. Returns
/// the quarantined path. Name collisions get a numeric suffix, so
/// repeated corruption of the same grid point keeps every specimen.
///
/// # Errors
///
/// On a filesystem error moving the file (the ledger append is
/// best-effort: losing a ledger line must not block self-healing).
pub fn quarantine_corrupt(root: &Path, path: &Path, reason: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(CORRUPT_DIR);
    std::fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let mut dest = dir.join(&name);
    let mut n = 1;
    while dest.exists() {
        dest = dir.join(format!("{name}.{n}"));
        n += 1;
    }
    std::fs::rename(path, &dest)?;
    let from = path.strip_prefix(root).unwrap_or(path).to_string_lossy().into_owned();
    let line = format!(
        "{{\"file\": {:?}, \"from\": {:?}, \"reason\": {:?}}}\n",
        dest.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        from,
        reason,
    );
    if let Ok(mut ledger) =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join(LEDGER_NAME))
    {
        let _ = ledger.write_all(line.as_bytes());
    }
    Ok(dest)
}

/// What [`fsck`] found (and fixed) in one store.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Artifacts with a valid checksum footer.
    pub ok: usize,
    /// Corrupt artifacts, as (store-relative path, reason); each has
    /// been moved to the `corrupt/` ledger.
    pub corrupt: Vec<(String, String)>,
    /// Orphaned `.tmp-*` files swept (crashed or torn writers).
    pub orphan_tmp: usize,
}

impl FsckReport {
    /// Whether the store needed no healing.
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty() && self.orphan_tmp == 0
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ok, {} corrupt (moved to {CORRUPT_DIR}/), {} orphaned tmp swept",
            self.ok,
            self.corrupt.len(),
            self.orphan_tmp,
        )
    }
}

/// Whether `name` is a writer temp file (see `durable_write`).
pub fn is_tmp_name(name: &str) -> bool {
    name.starts_with(".tmp-")
}

/// Walks the store at `root` — the root, every directory directly under
/// it (the shards among them) and every `campaigns/<id>/` — verifying
/// every artifact and sweeping every orphaned `.tmp-*` file. Corrupt
/// artifacts are moved to `<root>/corrupt/` and ledgered; a subsequent
/// campaign or server run transparently re-simulates them as
/// memoization misses.
///
/// # Errors
///
/// On a filesystem error scanning directories (per-file read failures
/// are classified as corrupt, not fatal).
pub fn fsck(root: &Path) -> std::io::Result<FsckReport> {
    scan(root, true)
}

/// The one store walk behind [`fsck`] and the store's open-time sweep:
/// sweeps orphaned temp files everywhere the walk goes and, when
/// `verify` is set, verifies (and quarantines) every artifact.
pub(crate) fn scan(root: &Path, verify: bool) -> std::io::Result<FsckReport> {
    let mut report = FsckReport::default();
    store::walk(root, |path, name, in_artifact_dir| {
        if is_tmp_name(name) {
            std::fs::remove_file(path)?;
            report.orphan_tmp += 1;
        } else if verify && in_artifact_dir && artifact_hash_of(name).is_some() {
            // Anything else (manifest.json, quarantine.json, bundles, …)
            // is not an artifact.
            match read_verified(path) {
                Ok(_) => report.ok += 1,
                Err(e) => {
                    let reason = e.to_string();
                    let rel =
                        path.strip_prefix(root).unwrap_or(path).to_string_lossy().into_owned();
                    quarantine_corrupt(root, path, &reason)?;
                    report.corrupt.push((rel, reason));
                }
            }
        }
        Ok(())
    })?;
    report.corrupt.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ff-integrity-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The definition of CRC-64/XZ, one dependent step per bit: the
    /// oracle the table-driven [`crc64`] must equal.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= u64::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc64_matches_the_xz_check_vector() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bitwise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn table_crc64_equals_the_bitwise_oracle() {
        // Seeded xorshift64 bytes; every length 0..=80 covers empty input,
        // tails alone, and whole words with every tail length, and each
        // start offset 0..8 shifts the words off 8-byte alignment.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=80 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc64(bytes), crc64_bitwise(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn seal_then_open_round_trips() {
        let payload = "{\n  \"x\": 1\n}\n";
        let sealed = seal(payload);
        assert!(sealed.starts_with(payload));
        assert!(sealed.contains(FOOTER_TAG));
        let (back, crc) = open(&sealed).unwrap();
        assert_eq!(back, payload);
        assert_eq!(crc, crc64(payload.as_bytes()));
    }

    #[test]
    fn every_truncation_point_of_a_sealed_artifact_is_detected() {
        let sealed = seal("{\n  \"answer\": 42\n}\n");
        for cut in 1..sealed.len() {
            // Every proper prefix is corrupt, including the cut exactly at
            // the footer boundary that leaves the complete payload.
            assert!(open(&sealed[..cut]).is_err(), "cut {cut} was accepted");
        }
    }

    #[test]
    fn bit_flips_anywhere_in_the_payload_are_detected() {
        let sealed = seal("{\n  \"answer\": 42\n}\n");
        let payload_len = sealed.find(FOOTER_TAG).unwrap();
        for i in 0..payload_len {
            let mut bytes = sealed.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let Ok(text) = String::from_utf8(bytes) else { continue };
            assert!(open(&text).is_err(), "flip at byte {i} not detected");
        }
    }

    #[test]
    fn length_and_checksum_mismatches_name_the_cause() {
        let err =
            open(&format!("{{}}\n{FOOTER_TAG} crc64=0000000000000000 bytes=3\n")).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let err =
            open(&format!("{{}}\n{FOOTER_TAG} crc64=0000000000000000 bytes=99\n")).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
        let err = open(&format!("{{}}\n{FOOTER_TAG} nonsense\n")).unwrap_err();
        assert!(err.contains("malformed checksum footer"), "{err}");
    }

    #[test]
    fn fsck_classifies_sweeps_and_ledgers() {
        use crate::job::JobSpec;
        use ff_experiments::{HierKind, ModelKind};
        use ff_workloads::Scale;

        let dir = temp("fsck");
        let ok_spec = JobSpec::sim(ModelKind::Multipass, HierKind::Base, "gzip", 0, Scale::Test);
        let bad_spec = JobSpec::sim(ModelKind::InOrder, HierKind::Base, "mcf", 0, Scale::Test);
        let store = crate::store::ShardedStore::open(&dir).unwrap();
        store.publish(&ok_spec, "{\"ok\": 1}\n").unwrap();
        let bad_path = store.publish(&bad_spec, "{\"bad\": 1}\n").unwrap();
        // Silently truncate one artifact and plant a footerless one plus
        // an orphaned tmp file and a bystander.
        let text = std::fs::read_to_string(&bad_path).unwrap();
        std::fs::write(&bad_path, &text[..text.len() / 2]).unwrap();
        let unsealed_spec = JobSpec::sim(ModelKind::Ooo, HierKind::Base, "art", 0, Scale::Test);
        let unsealed_path = crate::store::sharded_path(&dir, &unsealed_spec);
        std::fs::create_dir_all(unsealed_path.parent().unwrap()).unwrap();
        std::fs::write(&unsealed_path, "{\"unsealed\": 1}\n").unwrap();
        std::fs::write(dir.join(".tmp-123-0-sim-x.json"), "partial").unwrap();
        let campaign = dir.join(crate::store::CAMPAIGNS_DIR).join("c9");
        std::fs::create_dir_all(&campaign).unwrap();
        std::fs::write(campaign.join(".tmp-123-1-request.json"), "partial").unwrap();
        std::fs::write(dir.join("manifest.json"), "not json, not an artifact").unwrap();

        let report = fsck(&dir).unwrap();
        assert_eq!(report.ok, 1);
        assert_eq!(report.orphan_tmp, 2);
        assert!(!campaign.join(".tmp-123-1-request.json").exists());
        assert_eq!(report.corrupt.len(), 2, "{report:?}");
        assert!(!report.clean());
        assert!(!bad_path.exists(), "corrupt artifact must be moved out");
        assert!(!unsealed_path.exists(), "footerless artifact must be moved out");
        let ledger = std::fs::read_to_string(dir.join(CORRUPT_DIR).join(LEDGER_NAME)).unwrap();
        assert!(ledger.contains(&bad_spec.artifact_filename()), "{ledger}");
        assert!(dir.join("manifest.json").exists(), "bystanders stay put");

        // Idempotent: a second pass finds a clean store.
        let again = fsck(&dir).unwrap();
        assert!(again.clean(), "{again:?}");
        assert_eq!(again.ok, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
