//! A placement policy that breaks every rule a policy can break, for
//! testing that the replay drivers ignore invalid assignments and still
//! make progress.
//!
//! Every round it proposes an unknown job id, the service head on each
//! busy PU it could run on, on each free PU it cannot run on, and on a PU
//! index past the last PU. Only when something is already running does it
//! also propose the head twice on free eligible PUs; on an idle machine it
//! places nothing valid, so the driver must force progress.
//!
//! It also checks, from the snapshots it is shown, that the driver kept
//! one resident per PU and never ran a job twice.

use crate::policy::{Assignment, DecisionInput, Policy, Probe};
use std::collections::BTreeSet;

/// The misbehaving policy; see the module docs.
#[derive(Debug, Default)]
pub struct Misbehaving {
    /// Ids seen resident in the previous round.
    resident: BTreeSet<usize>,
    /// Ids seen resident once and gone since: finished work.
    finished: BTreeSet<usize>,
    /// Rounds in which the policy proposed a valid placement.
    pub valid_rounds: usize,
}

impl Misbehaving {
    fn observe(&mut self, input: &DecisionInput) {
        let resident: BTreeSet<usize> = input.residents.iter().map(|r| r.job_id).collect();
        let pus: BTreeSet<usize> = input.residents.iter().map(|r| r.pu_idx).collect();
        assert_eq!(pus.len(), input.residents.len(), "two residents share a PU");
        assert_eq!(
            resident.len(),
            input.residents.len(),
            "a job runs twice at once"
        );
        self.finished
            .extend(self.resident.difference(&resident).copied());
        for id in input
            .queue
            .iter()
            .map(|j| j.job_id)
            .chain(resident.iter().copied())
        {
            assert!(
                !self.finished.contains(&id),
                "job {id} runs again after finishing"
            );
        }
        for job in &input.queue {
            assert!(
                !resident.contains(&job.job_id),
                "job {} is queued while resident",
                job.job_id
            );
        }
        self.resident = resident;
    }
}

impl Policy for Misbehaving {
    fn name(&self) -> &'static str {
        "misbehaving"
    }

    fn decide(&mut self, input: &DecisionInput, _probe: &mut dyn Probe) -> Vec<Assignment> {
        self.observe(input);
        let Some(&head) = input.service_order().first() else {
            return Vec::new();
        };
        let job = &input.queue[head];
        let at = |pu_idx: usize, job_id: usize| Assignment {
            job_id,
            pu_idx,
            predicted_cost: 1.0,
        };
        let mut out = vec![at(0, usize::MAX)];
        for slot in &input.slots {
            let eligible = job.option_for(slot.pu_idx).is_some();
            if slot.free != eligible {
                out.push(at(slot.pu_idx, job.job_id));
            }
        }
        out.push(at(input.slots.len(), job.job_id));
        if !input.residents.is_empty() {
            let free: Vec<usize> = job
                .options
                .iter()
                .map(|o| o.pu_idx)
                .filter(|&pu| input.slot(pu).free)
                .collect();
            if let Some(&first) = free.first() {
                let second = free.get(1).copied().unwrap_or(first);
                out.extend([at(first, job.job_id), at(second, job.job_id)]);
                self.valid_rounds += 1;
            }
        }
        out
    }
}
