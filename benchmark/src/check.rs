//! Correctness: every job's merged output against a sequential oracle.
//! All of this runs outside the timed regions.

use crate::workload::{Workload, HOSTS, THREADS};
use kimbap::serve::{merge_job_outputs, serial_reference, Algo, JobReport, JobStatus};
use kimbap_algos::refcheck;
use kimbap_comm::Cluster;
use kimbap_dist::DistGraph;
use kimbap_graph::{Graph, NodeId};

/// What a workload's jobs are compared against, computed once per run
/// from the same graph and partitions the servers hold resident.
#[derive(Debug)]
pub struct Oracle {
    /// Union-find component labels (min node id per component).
    cc: Vec<u64>,
    /// Kruskal forest weight and `n - #components`.
    msf: (u64, u64),
    /// Louvain labels of a serial run on the same partitions: Louvain's
    /// merge order depends on the partition, so a sequential Louvain on
    /// the whole graph would not be comparable label for label.
    louvain: Option<Vec<u64>>,
}

impl Oracle {
    /// Computes the oracles `w`'s algorithms need.
    pub fn compute(w: Workload, g: &Graph, parts: &[DistGraph]) -> Oracle {
        let louvain = w.algos().contains(&Algo::Louvain).then(|| {
            let cluster = Cluster::with_threads(HOSTS, THREADS);
            serial_reference(g.num_nodes(), parts, &cluster, Algo::Louvain)
        });
        Oracle {
            cc: refcheck::connected_components(g),
            msf: (refcheck::msf_weight(g), refcheck::msf_edge_count(g) as u64),
            louvain,
        }
    }

    /// Checks one job's merged fingerprint (see `merge_job_outputs`).
    pub fn check(&self, g: &Graph, algo: Algo, merged: &[u64]) -> Result<(), String> {
        match algo {
            Algo::CcSv | Algo::CcLp | Algo::CcSclp => {
                if merged != self.cc {
                    return Err("component labels differ from union-find".into());
                }
            }
            Algo::Mis => {
                let in_set: Vec<bool> = merged.iter().map(|&x| x != 0).collect();
                refcheck::check_mis(g, &in_set)?;
            }
            Algo::Msf => {
                if (merged[0], merged[1]) != self.msf {
                    return Err(format!(
                        "forest (weight, edges) = ({}, {}), Kruskal says {:?}",
                        merged[0], merged[1], self.msf
                    ));
                }
            }
            Algo::Louvain | Algo::Leiden => {
                let labels: Vec<NodeId> = merged.iter().map(|&x| x as NodeId).collect();
                refcheck::check_communities(g, &labels)?;
                if self.louvain.as_deref() != Some(merged) {
                    return Err("community labels differ from the serial run".into());
                }
            }
        }
        Ok(())
    }
}

/// What checking has found so far.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// Jobs submitted in checked units.
    pub attempted: u64,
    /// One line per failed job (or failed whole-run check).
    pub failures: Vec<String>,
    /// Jobs that ended `DeadlineMissed` (each is also a failure).
    pub deadline_missed: u64,
}

/// Checks one unit into `v`: `per_host[h]` is host `h`'s reports. Every
/// host must report the same jobs with the same statuses; every job must
/// complete and pass its oracle. `corrupt` flips one value of the first
/// job's merged output first (the self-test that a wrong answer is
/// caught).
pub fn check_unit(
    oracle: &Oracle,
    g: &Graph,
    per_host: Vec<Vec<JobReport>>,
    expect_jobs: u64,
    corrupt: bool,
    v: &mut Verdicts,
) {
    v.attempted += expect_jobs;
    let jobs = per_host[0].len();
    if jobs as u64 != expect_jobs || per_host.iter().any(|r| r.len() != jobs) {
        v.failures.push(format!(
            "hosts report {:?} jobs, expected {expect_jobs} each",
            per_host.iter().map(Vec::len).collect::<Vec<_>>()
        ));
        return;
    }
    let mut hosts: Vec<_> = per_host.into_iter().map(Vec::into_iter).collect();
    for k in 0..jobs {
        let reports: Vec<JobReport> = hosts
            .iter_mut()
            .map(|it| it.next().expect("sized"))
            .collect();
        let spec = reports[0].job.spec;
        let verdict = if reports
            .iter()
            .any(|r| (r.job, r.status) != (reports[0].job, reports[0].status))
        {
            Err("hosts disagree on the schedule".to_string())
        } else if reports[0].status == JobStatus::DeadlineMissed {
            v.deadline_missed += 1;
            Err("deadline missed".to_string())
        } else {
            let outs = reports
                .into_iter()
                .map(|r| r.output.expect("completed"))
                .collect();
            let mut merged = merge_job_outputs(spec.algo, g.num_nodes(), outs);
            if corrupt && k == 0 {
                merged[0] ^= 1;
            }
            oracle.check(g, spec.algo, &merged)
        };
        if let Err(e) = verdict {
            v.failures
                .push(format!("{} params={}: {e}", spec.algo.name(), spec.params));
        }
    }
}
