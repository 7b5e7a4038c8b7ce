//! Shared construction helpers for the synthetic kernels.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use ff_isa::MemoryImage;

/// Deterministic RNG for a kernel, derived from its name and scale tag.
pub fn kernel_rng(name: &str, scale_tag: u64) -> StdRng {
    let mut seed = 0xF1EAF11C_u64;
    for b in name.bytes() {
        seed = seed.wrapping_mul(31).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(seed ^ (scale_tag << 32))
}

/// Lays out a singly linked list of `nodes` nodes of `node_bytes` bytes in
/// a randomly permuted order within `[base, base + nodes * node_bytes)`,
/// so that following `next` pointers defeats spatial locality. Each node's
/// word 0 holds the next-node address (0 terminates); the remaining words
/// are filled from `payload`.
///
/// Returns the address of the first node.
pub fn shuffled_chain(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    nodes: u64,
    node_bytes: u64,
    payload: impl FnMut(&mut StdRng, u64) -> u64,
) -> u64 {
    let mut order: Vec<u64> = (0..nodes).collect();
    order.shuffle(rng);
    link_chain(rng, mem, base, node_bytes, &order, false, payload)
}

/// Circular variant of [`shuffled_chain`]: the last node links back to the
/// first, so the traversal can be driven by an iteration counter and lap
/// the structure repeatedly (warm-cache behaviour after the first lap, as
/// in a real benchmark's outer loop).
pub fn shuffled_ring(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    nodes: u64,
    node_bytes: u64,
    payload: impl FnMut(&mut StdRng, u64) -> u64,
) -> u64 {
    let mut order: Vec<u64> = (0..nodes).collect();
    order.shuffle(rng);
    link_chain(rng, mem, base, node_bytes, &order, true, payload)
}

fn link_chain(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    node_bytes: u64,
    visit: &[u64],
    circular: bool,
    mut payload: impl FnMut(&mut StdRng, u64) -> u64,
) -> u64 {
    assert!(node_bytes.is_multiple_of(8) && node_bytes >= 8 && !visit.is_empty());
    let addr_of = |node: u64| base + node * node_bytes;
    for (w, &node) in visit.iter().enumerate() {
        let a = addr_of(node);
        let next = if w + 1 == visit.len() {
            if circular {
                addr_of(visit[0])
            } else {
                0
            }
        } else {
            addr_of(visit[w + 1])
        };
        mem.store(a, next);
        for k in 1..(node_bytes / 8) {
            let v = payload(rng, k);
            mem.store(a + k * 8, v);
        }
    }
    addr_of(visit[0])
}

/// Fills `words` consecutive 64-bit words starting at `base` with values
/// from `f`.
pub fn fill_array(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    words: u64,
    mut f: impl FnMut(&mut StdRng, u64) -> u64,
) {
    mem.fill(base, words, |i| f(rng, i));
}

/// Fills an index array with uniformly random values in `0..max`.
pub fn fill_indices(rng: &mut StdRng, mem: &mut MemoryImage, base: u64, count: u64, max: u64) {
    fill_array(rng, mem, base, count, |r, _| r.gen_range(0..max));
}

/// Fills an index array with a hot/cold mixture: with probability
/// `hot_pct`% the index lands in the small hot range `0..hot_max`
/// (cache-resident), otherwise anywhere in `0..cold_max`. This is the knob
/// that sets a gather's cache hit rate.
pub fn fill_indices_mixed(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    count: u64,
    hot_max: u64,
    cold_max: u64,
    hot_pct: u32,
) {
    assert!(hot_max <= cold_max && hot_pct <= 100);
    fill_array(rng, mem, base, count, |r, _| {
        if r.gen_range(0..100) < hot_pct {
            r.gen_range(0..hot_max)
        } else {
            r.gen_range(0..cold_max)
        }
    });
}

/// Lays out a linked list with *segment locality*: nodes are grouped into
/// segments of `segment_nodes` consecutive nodes; the traversal walks each
/// segment sequentially (spatial locality within cache lines) but jumps to
/// a randomly ordered next segment. Hop miss rate is therefore roughly one
/// long miss per segment plus short line-crossing misses inside it.
///
/// Returns the address of the first node.
pub fn clustered_chain(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    nodes: u64,
    node_bytes: u64,
    segment_nodes: u64,
    payload: impl FnMut(&mut StdRng, u64) -> u64,
) -> u64 {
    let visit = clustered_visit(rng, nodes, segment_nodes);
    link_chain(rng, mem, base, node_bytes, &visit, false, payload)
}

/// Circular variant of [`clustered_chain`] (see [`shuffled_ring`]).
pub fn clustered_ring(
    rng: &mut StdRng,
    mem: &mut MemoryImage,
    base: u64,
    nodes: u64,
    node_bytes: u64,
    segment_nodes: u64,
    payload: impl FnMut(&mut StdRng, u64) -> u64,
) -> u64 {
    let visit = clustered_visit(rng, nodes, segment_nodes);
    link_chain(rng, mem, base, node_bytes, &visit, true, payload)
}

fn clustered_visit(rng: &mut StdRng, nodes: u64, segment_nodes: u64) -> Vec<u64> {
    assert!(segment_nodes >= 1);
    let num_segments = nodes.div_ceil(segment_nodes);
    let mut seg_order: Vec<u64> = (0..num_segments).collect();
    seg_order.shuffle(rng);
    let mut visit: Vec<u64> = Vec::with_capacity(nodes as usize);
    for &seg in &seg_order {
        let start = seg * segment_nodes;
        let end = (start + segment_nodes).min(nodes);
        visit.extend(start..end);
    }
    visit
}

/// Random `f64` in (0, 1) as raw bits, for FP array initialisation.
pub fn random_f64_bits(rng: &mut StdRng) -> u64 {
    let v: f64 = rng.gen_range(0.001..1.0);
    v.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_visits_every_node_once() {
        let mut rng = kernel_rng("test", 0);
        let mut mem = MemoryImage::new();
        let first = shuffled_chain(&mut rng, &mut mem, 0x1000, 50, 16, |_, _| 7);
        let mut seen = 0;
        let mut a = first;
        while a != 0 {
            seen += 1;
            assert_eq!(mem.load(a + 8), 7, "payload word");
            a = mem.load(a);
            assert!(seen <= 50, "cycle detected");
        }
        assert_eq!(seen, 50);
    }

    #[test]
    fn chain_is_permuted() {
        let mut rng = kernel_rng("perm", 0);
        let mut mem = MemoryImage::new();
        let first = shuffled_chain(&mut rng, &mut mem, 0, 64, 8, |_, _| 0);
        // With 64 nodes the probability of the identity permutation is
        // negligible; check that at least one hop goes backwards.
        let mut a = first;
        let mut backwards = false;
        while a != 0 {
            let next = mem.load(a);
            if next != 0 && next < a {
                backwards = true;
            }
            a = next;
        }
        assert!(backwards);
    }

    #[test]
    fn ring_loops_back_to_the_first_node() {
        let mut rng = kernel_rng("ring", 0);
        let mut mem = MemoryImage::new();
        let first = shuffled_ring(&mut rng, &mut mem, 0x1000, 20, 16, |_, _| 0);
        let mut a = first;
        for _ in 0..20 {
            a = mem.load(a);
            assert_ne!(a, 0, "ring must have no null link");
        }
        assert_eq!(a, first, "20 hops should complete one lap");
        // Clustered ring too.
        let first = clustered_ring(&mut rng, &mut mem, 0x80_0000, 24, 32, 8, |_, _| 0);
        let mut a = first;
        for _ in 0..24 {
            a = mem.load(a);
        }
        assert_eq!(a, first);
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let a: u64 = kernel_rng("mcf", 1).gen();
        let b: u64 = kernel_rng("mcf", 1).gen();
        let c: u64 = kernel_rng("gap", 1).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clustered_chain_visits_every_node_with_locality() {
        let mut rng = kernel_rng("cluster", 0);
        let mut mem = MemoryImage::new();
        let first = clustered_chain(&mut rng, &mut mem, 0x1000, 64, 32, 8, |_, _| 1);
        let mut seen = 0;
        let mut a = first;
        let mut sequential_hops = 0;
        let mut prev = None;
        while a != 0 {
            seen += 1;
            if let Some(p) = prev {
                if a == p + 32 {
                    sequential_hops += 1;
                }
            }
            prev = Some(a);
            a = mem.load(a);
            assert!(seen <= 64, "cycle detected");
        }
        assert_eq!(seen, 64);
        // 7 of every 8 hops stay within a segment (sequential).
        assert!(sequential_hops >= 48, "only {sequential_hops} sequential hops");
    }

    #[test]
    fn mixed_indices_prefer_the_hot_range() {
        let mut rng = kernel_rng("mix", 0);
        let mut mem = MemoryImage::new();
        fill_indices_mixed(&mut rng, &mut mem, 0, 1_000, 16, 10_000, 80);
        let hot = (0..1_000).filter(|i| mem.load(i * 8) < 16).count();
        assert!(hot > 700, "only {hot} hot indices");
        assert!(hot < 950, "{hot} — cold range never used?");
    }

    #[test]
    fn indices_respect_bounds() {
        let mut rng = kernel_rng("idx", 0);
        let mut mem = MemoryImage::new();
        fill_indices(&mut rng, &mut mem, 0x100, 100, 32);
        for i in 0..100 {
            assert!(mem.load(0x100 + i * 8) < 32);
        }
    }

    #[test]
    fn f64_bits_round_trip() {
        let mut rng = kernel_rng("fp", 0);
        let v = f64::from_bits(random_f64_bits(&mut rng));
        assert!(v > 0.0 && v < 1.0);
    }
}
