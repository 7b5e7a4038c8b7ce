//! Campaign job identities: grid points, config hashes, artifact names.

use ff_experiments::{HierKind, ModelKind};
use ff_workloads::Scale;

/// Artifact/manifest format version. Bumping this changes every config
/// hash, forcing a full re-run on resume (stale artifacts no longer
/// match).
pub const FORMAT_VERSION: u32 = 1;

/// The standalone report jobs `ff-campaign run --all` schedules alongside
/// the simulation grid (they regenerate the `results/` files that are not
/// derivable from per-(model, hierarchy, benchmark) artifacts).
pub const REPORT_NAMES: [&str; 2] = ["ablation_structures", "unroll_effect"];

/// What one campaign job computes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// One simulation grid point on the Table 2 machine.
    Sim {
        /// Execution model.
        model: ModelKind,
        /// Cache hierarchy.
        hier: HierKind,
        /// Benchmark name (one of [`ff_workloads::Workload::NAMES`]).
        bench: &'static str,
        /// Workload-generator seed (0 = canonical).
        seed: u64,
    },
    /// A standalone text report (see [`REPORT_NAMES`]).
    Report {
        /// Report name.
        name: &'static str,
    },
}

/// One schedulable unit of campaign work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// Workload scale.
    pub scale: Scale,
}

/// The `test`/`paper` name of a scale (used in paths and hashes).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

/// Parses a scale name.
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s.to_ascii_lowercase().as_str() {
        "test" => Some(Scale::Test),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// 64-bit FNV-1a — the content-address hash for artifacts. Stable across
/// platforms and runs by construction (no randomized hasher state).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl JobSpec {
    /// A simulation grid point.
    pub fn sim(
        model: ModelKind,
        hier: HierKind,
        bench: &'static str,
        seed: u64,
        scale: Scale,
    ) -> Self {
        JobSpec { kind: JobKind::Sim { model, hier, bench, seed }, scale }
    }

    /// A standalone report job.
    pub fn report(name: &'static str, scale: Scale) -> Self {
        JobSpec { kind: JobKind::Report { name }, scale }
    }

    /// Human-readable job id, e.g. `mcf/MP/base/s0@test`.
    pub fn id(&self) -> String {
        match &self.kind {
            JobKind::Sim { model, hier, bench, seed } => {
                format!(
                    "{bench}/{}/{}/s{seed}@{}",
                    model.name(),
                    hier.name(),
                    scale_name(self.scale)
                )
            }
            JobKind::Report { name } => format!("report/{name}@{}", scale_name(self.scale)),
        }
    }

    /// The canonical configuration string the config hash covers: format
    /// version plus every input that determines the artifact's content.
    pub fn canonical(&self) -> String {
        match &self.kind {
            JobKind::Sim { model, hier, bench, seed } => format!(
                "ff-campaign/v{FORMAT_VERSION}|sim|model={}|hier={}|bench={bench}|scale={}|seed={seed}",
                model.name(),
                hier.name(),
                scale_name(self.scale),
            ),
            JobKind::Report { name } => format!(
                "ff-campaign/v{FORMAT_VERSION}|report|name={name}|scale={}",
                scale_name(self.scale),
            ),
        }
    }

    /// The job's config hash (content address).
    pub fn config_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The artifact file name under the campaign output directory, e.g.
    /// `sim-mcf-MP-base-s0-1a2b3c4d5e6f7081.json`.
    pub fn artifact_filename(&self) -> String {
        self.artifact_filename_hashed(self.config_hash())
    }

    /// [`JobSpec::artifact_filename`] given `hash`, the spec's config hash.
    pub(crate) fn artifact_filename_hashed(&self, hash: u64) -> String {
        match &self.kind {
            JobKind::Sim { model, hier, bench, seed } => {
                format!("sim-{bench}-{}-{}-s{seed}-{hash:016x}.json", model.name(), hier.name())
            }
            JobKind::Report { name } => format!("report-{name}-{hash:016x}.json"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_separate_every_dimension() {
        let base = JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test);
        let variants = [
            JobSpec::sim(ModelKind::InOrder, HierKind::Base, "mcf", 0, Scale::Test),
            JobSpec::sim(ModelKind::Multipass, HierKind::Config1, "mcf", 0, Scale::Test),
            JobSpec::sim(ModelKind::Multipass, HierKind::Base, "gap", 0, Scale::Test),
            JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 1, Scale::Test),
            JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Paper),
            JobSpec::report("ablation_structures", Scale::Test),
        ];
        for v in &variants {
            assert_ne!(v.config_hash(), base.config_hash(), "{} vs {}", v.id(), base.id());
        }
        // Same spec → same hash (stable content address).
        let again = JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test);
        assert_eq!(again.config_hash(), base.config_hash());
    }

    #[test]
    fn filenames_embed_the_hash() {
        let s = JobSpec::sim(ModelKind::Ooo, HierKind::Config2, "art", 3, Scale::Paper);
        let f = s.artifact_filename();
        assert!(f.starts_with("sim-art-ooo-config2-s3-"), "{f}");
        assert!(f.contains(&format!("{:016x}", s.config_hash())));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn scale_names_round_trip() {
        for s in [Scale::Test, Scale::Paper] {
            assert_eq!(parse_scale(scale_name(s)), Some(s));
        }
        assert_eq!(parse_scale("nosuch"), None);
    }
}
