//! Artifact-set digests and the golden values every run must match.

use std::path::Path;

/// Expected digests, one line per scale: `<scale> <artifacts> <digest>`.
const GOLDEN: &str = include_str!("../golden.txt");

/// A digest over a set of artifacts keyed by config hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    pub count: usize,
    pub hex: String,
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} artifacts, digest {}", self.count, self.hex)
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over every `(hash, bytes)` pair in hash order, each framed by
/// its hash and length. Any single changed byte changes the digest: each
/// FNV-1a step is a bijection of the running state.
pub fn digest(artifacts: &[(u64, Vec<u8>)]) -> Digest {
    let mut sorted: Vec<&(u64, Vec<u8>)> = artifacts.iter().collect();
    sorted.sort_by_key(|(hash, _)| *hash);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (hash, bytes) in sorted {
        h = fnv1a(h, format!("{hash:016x} {}\n", bytes.len()).as_bytes());
        h = fnv1a(h, bytes);
    }
    Digest { count: artifacts.len(), hex: format!("{h:016x}") }
}

/// The sealed on-disk bytes of every artifact in `hashes` under the
/// store at `root`.
pub fn read_store(root: &Path, hashes: &[u64]) -> Result<Vec<(u64, Vec<u8>)>, String> {
    hashes
        .iter()
        .map(|&hash| {
            let path = ff_harness::store::find_by_hash(root, hash)
                .ok_or_else(|| format!("artifact {hash:016x} missing from {}", root.display()))?;
            std::fs::read(&path)
                .map(|bytes| (hash, bytes))
                .map_err(|e| format!("read {}: {e}", path.display()))
        })
        .collect()
}

/// Checks `got` against the golden digest for `scale`.
pub fn check_golden(scale: &str, got: &Digest) -> Result<(), String> {
    let want = GOLDEN
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?.parse::<usize>().ok()?, f.next()?))
        })
        .find(|(s, _, _)| *s == scale)
        .map(|(_, count, hex)| Digest { count, hex: hex.to_string() })
        .ok_or_else(|| format!("no golden digest for scale `{scale}`"))?;
    if *got == want {
        Ok(())
    } else {
        Err(format!("{scale}-scale artifacts: got {got}, want {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_rejects_one_flipped_byte() {
        let set: Vec<(u64, Vec<u8>)> = vec![
            (0x20, b"{\"cycles\": 1200}\n#ff-checksum".to_vec()),
            (0x10, b"{\"cycles\": 900}\n".to_vec()),
        ];
        let base = digest(&set);
        for which in 0..set.len() {
            for at in 0..set[which].1.len() {
                for bit in 0..8 {
                    let mut bad = set.clone();
                    bad[which].1[at] ^= 1 << bit;
                    assert_ne!(digest(&bad), base, "flip of bit {bit} at {which}:{at} unseen");
                }
            }
        }
        // Order-independent, but not blind to which hash holds which bytes.
        let mut reordered = set.clone();
        reordered.reverse();
        assert_eq!(digest(&reordered), base);
        let swapped = vec![(0x20, set[1].1.clone()), (0x10, set[0].1.clone())];
        assert_ne!(digest(&swapped), base);
    }

    #[test]
    fn golden_check_compares_count_and_digest() {
        let (scale, count, hex) = GOLDEN
            .lines()
            .find_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 3).then(|| (f[0], f[1].parse::<usize>().unwrap(), f[2]))
            })
            .expect("golden.txt has an entry");
        let good = Digest { count, hex: hex.to_string() };
        assert!(check_golden(scale, &good).is_ok());
        let mut flipped = good.clone();
        flipped.hex.replace_range(0..1, if hex.starts_with('0') { "1" } else { "0" });
        assert!(check_golden(scale, &flipped).is_err());
        assert!(check_golden(scale, &Digest { count: count + 1, ..good }).is_err());
        assert!(check_golden("no-such-scale", &flipped).is_err());
    }
}
