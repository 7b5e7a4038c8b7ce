//! Cache and hierarchy configuration (paper Table 2 and Figure 7 variants).

use std::fmt;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Load-to-use latency in cycles when this level serves the request.
    pub latency: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `assoc >= 1`, and the
    /// capacity is an exact multiple of `assoc * line_bytes`.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64, latency: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!(
            size_bytes.is_multiple_of(assoc as u64 * line_bytes) && size_bytes > 0,
            "capacity must be a positive multiple of assoc * line size"
        );
        CacheConfig { size_bytes, assoc, line_bytes, latency }
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.line_bytes)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = if self.size_bytes >= 1 << 20 {
            format!("{}MB", self.size_bytes >> 20)
        } else {
            format!("{}KB", self.size_bytes >> 10)
        };
        write!(
            f,
            "{} cycle{}, {}, {}-way, {}B lines",
            self.latency,
            if self.latency == 1 { "" } else { "s" },
            size,
            self.assoc,
            self.line_bytes
        )
    }
}

/// Full memory-hierarchy configuration: L1I, L1D, unified L2 and L3, main
/// memory latency, and the outstanding-miss (MSHR) limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// First-level instruction cache.
    pub l1i: CacheConfig,
    /// First-level data cache.
    pub l1d: CacheConfig,
    /// Unified second-level cache.
    pub l2: CacheConfig,
    /// Unified third-level cache.
    pub l3: CacheConfig,
    /// Main-memory load-to-use latency in cycles.
    pub mm_latency: u32,
    /// Maximum outstanding misses (MSHR entries), Table 2's "16".
    pub max_outstanding: u32,
    /// Human-readable name used in experiment output.
    pub name: &'static str,
}

impl HierarchyConfig {
    /// The paper's base hierarchy (Table 2): 16 KB/4-way/64 B 1-cycle L1s,
    /// 256 KB/8-way/128 B 5-cycle L2, 3 MB/12-way/128 B 12-cycle L3,
    /// 145-cycle main memory, 16 outstanding misses.
    pub fn itanium2_base() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(16 << 10, 4, 64, 1),
            l1d: CacheConfig::new(16 << 10, 4, 64, 1),
            l2: CacheConfig::new(256 << 10, 8, 128, 5),
            l3: CacheConfig::new(3 << 20, 12, 128, 12),
            mm_latency: 145,
            max_outstanding: 16,
            name: "base",
        }
    }

    /// Figure 7 `config1`: the base hierarchy with 200-cycle main memory.
    pub fn config1() -> Self {
        HierarchyConfig { mm_latency: 200, name: "config1", ..Self::itanium2_base() }
    }

    /// Figure 7 `config2`: 1-cycle 8 KB L1, 7-cycle 128 KB L2, 16-cycle
    /// 1.5 MB L3, 200-cycle main memory.
    pub fn config2() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(8 << 10, 4, 64, 1),
            l1d: CacheConfig::new(8 << 10, 4, 64, 1),
            l2: CacheConfig::new(128 << 10, 8, 128, 7),
            l3: CacheConfig::new((3 << 20) / 2, 12, 128, 16),
            mm_latency: 200,
            max_outstanding: 16,
            name: "config2",
        }
    }

    /// All three hierarchies evaluated in Figure 7, in paper order.
    pub fn figure7_sweep() -> [HierarchyConfig; 3] {
        [Self::itanium2_base(), Self::config1(), Self::config2()]
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::itanium2_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table2() {
        let h = HierarchyConfig::itanium2_base();
        assert_eq!(h.l1d.size_bytes, 16 * 1024);
        assert_eq!(h.l1d.assoc, 4);
        assert_eq!(h.l1d.line_bytes, 64);
        assert_eq!(h.l1d.latency, 1);
        assert_eq!(h.l2.size_bytes, 256 * 1024);
        assert_eq!(h.l2.latency, 5);
        assert_eq!(h.l3.size_bytes, 3 * 1024 * 1024);
        assert_eq!(h.l3.latency, 12);
        assert_eq!(h.mm_latency, 145);
        assert_eq!(h.max_outstanding, 16);
    }

    #[test]
    fn num_sets() {
        let c = CacheConfig::new(16 << 10, 4, 64, 1);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    fn config1_only_changes_mm() {
        let base = HierarchyConfig::itanium2_base();
        let c1 = HierarchyConfig::config1();
        assert_eq!(c1.mm_latency, 200);
        assert_eq!(c1.l1d, base.l1d);
        assert_eq!(c1.l3, base.l3);
    }

    #[test]
    fn config2_shrinks_and_slows() {
        let c2 = HierarchyConfig::config2();
        assert_eq!(c2.l1d.size_bytes, 8 * 1024);
        assert_eq!(c2.l2.latency, 7);
        assert_eq!(c2.l3.latency, 16);
        assert_eq!(c2.mm_latency, 200);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_lines() {
        let _ = CacheConfig::new(1024, 2, 48, 1);
    }

    #[test]
    fn display_is_table_like() {
        let c = CacheConfig::new(16 << 10, 4, 64, 1);
        assert_eq!(c.to_string(), "1 cycle, 16KB, 4-way, 64B lines");
    }
}
