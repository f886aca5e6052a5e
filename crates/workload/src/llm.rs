//! A multi-domain LLM expert scenario.
//!
//! Beyond circuit-board inspection, the paper motivates CoE with
//! Qihoo 360's deployment: state-of-the-art expert models from different
//! domains (code, math, law, …) behind a request-analyzing router
//! (§2.1). This module builds such a model — several multi-gigabyte
//! domain experts plus a small shared reranker as the subsequent stage —
//! and the matching request workload, exercising the serving system on
//! a very different operating point: few large experts instead of many
//! small ones.

use coserve_model::arch::ArchSpec;
use coserve_model::coe::{CoeModel, ModelError};
use coserve_model::routing::{ClassId, RouteRule};
use coserve_sim::compute::{LatencyModel, MemoryModel};
use coserve_sim::device::{ArchId, DeviceProfile, KernelProfile, ProcessorKind};
use coserve_sim::memory::Bytes;
use coserve_sim::time::SimSpan;

use crate::distribution::ClassDistribution;
use crate::stream::{Job, JobId, RequestStream};

/// Architecture id of the domain experts (a ~1.3B-parameter LLM, fp16).
pub const LLM_EXPERT: ArchId = ArchId(100);
/// Architecture id of the shared reranker (a ~0.4B-parameter scorer).
pub const LLM_RERANKER: ArchId = ArchId(101);

/// The default domain list.
pub const DOMAINS: [&str; 8] = [
    "code",
    "math",
    "law",
    "medical",
    "finance",
    "writing",
    "translation",
    "search",
];

/// Architecture spec for the domain experts.
#[must_use]
pub fn llm_expert_arch() -> ArchSpec {
    ArchSpec::new(
        LLM_EXPERT,
        "llm-expert-1.3b",
        1_300_000_000,
        Bytes::new(2_600_000_000),
    )
}

/// Architecture spec for the shared reranker.
#[must_use]
pub fn llm_reranker_arch() -> ArchSpec {
    ArchSpec::new(
        LLM_RERANKER,
        "llm-reranker-0.4b",
        400_000_000,
        Bytes::new(800_000_000),
    )
}

/// Installs cost models for the LLM architectures on a device.
///
/// Generation latency is modeled per *request* (a bounded completion),
/// linear in batch size like every other kernel.
pub fn install_llm_kernels(device: &mut DeviceProfile) {
    device.set_kernel(
        LLM_EXPERT,
        ProcessorKind::Gpu,
        KernelProfile {
            latency: LatencyModel::linear(150.0, 45.0).with_saturation(8, 10.0),
            memory: MemoryModel::new(
                Bytes::mib(512),
                llm_expert_arch().weights(),
                Bytes::mib(320),
            ),
        },
    );
    device.set_kernel(
        LLM_EXPERT,
        ProcessorKind::Cpu,
        KernelProfile {
            latency: LatencyModel::linear(900.0, 420.0).with_saturation(4, 60.0),
            memory: MemoryModel::new(
                Bytes::mib(256),
                llm_expert_arch().weights(),
                Bytes::mib(200),
            ),
        },
    );
    device.set_kernel(
        LLM_RERANKER,
        ProcessorKind::Gpu,
        KernelProfile {
            latency: LatencyModel::linear(20.0, 6.0).with_saturation(16, 1.0),
            memory: MemoryModel::new(
                Bytes::mib(128),
                llm_reranker_arch().weights(),
                Bytes::mib(64),
            ),
        },
    );
    device.set_kernel(
        LLM_RERANKER,
        ProcessorKind::Cpu,
        KernelProfile {
            latency: LatencyModel::linear(120.0, 45.0).with_saturation(6, 10.0),
            memory: MemoryModel::new(
                Bytes::mib(64),
                llm_reranker_arch().weights(),
                Bytes::mib(48),
            ),
        },
    );
}

/// Builds a multi-domain CoE: one expert per domain, each followed by a
/// shared reranker with probability `rerank_prob`, routed by domain.
/// Domain popularity follows a Zipf law, giving the usage skew CoServe's
/// expert manager exploits.
///
/// # Errors
///
/// Propagates [`ModelError`] from validation.
///
/// # Panics
///
/// Panics if `num_domains` is zero, exceeds [`DOMAINS`]'s length, or
/// `rerank_prob` is outside `[0, 1]`.
pub fn build_llm_coe(num_domains: usize, rerank_prob: f64) -> Result<CoeModel, ModelError> {
    assert!(
        (1..=DOMAINS.len()).contains(&num_domains),
        "num_domains must be in 1..={}",
        DOMAINS.len()
    );
    let mut b = CoeModel::builder("multi-domain-llm");
    b.arch(llm_expert_arch());
    b.arch(llm_reranker_arch());
    let experts: Vec<_> = DOMAINS[..num_domains]
        .iter()
        .map(|d| b.expert(format!("expert-{d}"), LLM_EXPERT, 0.0))
        .collect();
    let reranker = b.expert("shared-reranker", LLM_RERANKER, 0.0);
    for (i, &e) in experts.iter().enumerate() {
        b.rule(
            ClassId(i as u32),
            RouteRule::with_follow_up(e, reranker, rerank_prob),
        );
    }
    let mut model = b.build()?;
    let dist = domain_distribution(num_domains);
    let usage = model
        .routing()
        .usage_probabilities(&dist.class_probs(), model.num_experts());
    model.set_usage_probs(&usage);
    Ok(model)
}

/// The domain popularity distribution (Zipf, s = 1.1).
#[must_use]
pub fn domain_distribution(num_domains: usize) -> ClassDistribution {
    ClassDistribution::zipf_with_floor(num_domains, 1.1, 100.0, 0.5)
}

/// Generates an LLM request stream: i.i.d. domain draws arriving every
/// `interval`, reranker stage pre-rolled from the model's rules.
///
/// # Panics
///
/// Panics if `num_requests` is zero.
#[must_use]
pub fn llm_stream(
    model: &CoeModel,
    num_domains: usize,
    num_requests: usize,
    interval: SimSpan,
    seed: u64,
) -> RequestStream {
    assert!(num_requests > 0, "stream needs at least one request");
    let dist = domain_distribution(num_domains);
    let mut rng = coserve_sim::rng::SimRng::seed_from(seed);
    let mut class_rng = rng.fork(1);
    let mut stage_rng = rng.fork(2);
    let jobs: Vec<Job> = (0..num_requests)
        .map(|i| {
            let class = dist.sample(&mut class_rng);
            let rule = model.routing().rule(class).expect("domain has a rule");
            let mut stages = Vec::with_capacity(rule.len());
            for stage in rule.stages() {
                stages.push(stage.expert);
                if !stage_rng.bernoulli(stage.proceed_prob) {
                    break;
                }
            }
            Job {
                id: JobId(i as u32),
                class,
                arrival: coserve_sim::time::SimTime::ZERO + interval * i as u64,
                stages,
            }
        })
        .collect();
    RequestStream::from_jobs("multi-domain-llm", jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coserve_model::expert::ExpertId;

    #[test]
    fn model_shape() {
        let m = build_llm_coe(8, 0.5).unwrap();
        assert_eq!(m.num_experts(), 9);
        let reranker = ExpertId(8);
        assert_eq!(m.graph().preliminaries_of(reranker).len(), 8);
        // Eight 2.6 GB experts overflow a 12 GB GPU several times over.
        assert!(m.total_weight_bytes() > Bytes::gib(19));
    }

    #[test]
    fn usage_probabilities_skewed_by_domain_popularity() {
        let m = build_llm_coe(6, 0.5).unwrap();
        let p_code = m.expert(ExpertId(0)).usage_prob();
        let p_last = m.expert(ExpertId(5)).usage_prob();
        assert!(p_code > p_last);
        // The shared reranker accumulates about half the total mass.
        let p_rr = m.expert(ExpertId(6)).usage_prob();
        assert!((0.4..0.6).contains(&p_rr), "reranker usage {p_rr}");
    }

    #[test]
    fn kernels_install_on_both_devices() {
        for mut d in coserve_model::devices::paper_devices() {
            install_llm_kernels(&mut d);
            assert!(d.kernel(LLM_EXPERT, ProcessorKind::Gpu).is_some());
            assert!(d.kernel(LLM_RERANKER, ProcessorKind::Cpu).is_some());
        }
    }

    #[test]
    fn stream_routes_to_declared_domains() {
        let m = build_llm_coe(4, 0.6).unwrap();
        let s = llm_stream(&m, 4, 300, SimSpan::from_millis(100), 5);
        assert_eq!(s.len(), 300);
        for j in s.jobs() {
            assert!(j.class.index() < 4);
            assert!(j.stages[0].index() < 4);
        }
        // Some jobs proceed to the reranker.
        let reranked = s.jobs().iter().filter(|j| j.stages.len() == 2).count();
        assert!((100..=260).contains(&reranked), "reranked {reranked}");
    }

    #[test]
    #[should_panic(expected = "num_domains")]
    fn too_many_domains_panics() {
        let _ = build_llm_coe(20, 0.5);
    }
}
