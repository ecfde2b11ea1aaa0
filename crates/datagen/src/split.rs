//! Labeled train/held-out splits for weight learning.
//!
//! Weight learning (the `tuffy-learn` crate) needs three views of one
//! dataset: the *structural* evidence every configuration shares
//! (closed-world predicates: authorship, citations, word overlap), a
//! *train* fraction of the open-predicate labels, and the *held-out*
//! remainder used only for evaluation. [`Dataset::split_labels`]
//! produces all three deterministically from a seed, with an optional
//! label-noise knob that flips a fraction of the train labels — the
//! standard robustness stressor for discriminative learners.

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tuffy_mln::evidence::{Evidence, EvidenceSet};

/// One dataset's evidence split for learning; see [`Dataset::split_labels`].
pub struct LabelSplit {
    /// Structural (closed-world) evidence only: every open-predicate
    /// label removed, so label atoms ground as query atoms. This is the
    /// evidence a learning engine grounds under.
    pub unlabeled: EvidenceSet,
    /// Structural evidence plus the train labels (post-noise) — the
    /// evidence a serving engine grounds under when predicting the
    /// held-out labels.
    pub train: EvidenceSet,
    /// The train labels after noise, in dataset insertion order: the
    /// labeled world a learner fits against.
    pub train_labels: Vec<Evidence>,
    /// The held-out labels, always noise-free, in dataset insertion
    /// order: the evaluation target.
    pub held_out: Vec<Evidence>,
    /// How many train labels the noise knob flipped.
    pub noise_flips: usize,
}

impl Dataset {
    /// Splits this dataset's open-predicate labels into a train fraction
    /// (`train_frac`) and a held-out remainder, flipping each train
    /// label with probability `noise`.
    ///
    /// Labels are the evidence assertions on open-world (query)
    /// predicates — e.g. `cat(P, C)` in RC — while closed-world
    /// assertions are structural and appear in every output set. The
    /// split is deterministic: assignments and noise draws are made in
    /// evidence insertion order from a `StdRng` seeded with `seed`, so
    /// equal `(train_frac, noise, seed)` always produce byte-identical
    /// splits.
    pub fn split_labels(&self, train_frac: f64, noise: f64, seed: u64) -> LabelSplit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unlabeled = EvidenceSet::new();
        let mut train = EvidenceSet::new();
        let mut train_labels = Vec::new();
        let mut held_out = Vec::new();
        let mut noise_flips = 0usize;
        for ev in self.evidence.iter() {
            if self.program.predicate(ev.atom.predicate).closed_world {
                unlabeled
                    .add(&self.program, ev.atom, ev.positive)
                    .expect("structural evidence re-adds cleanly");
                train
                    .add(&self.program, ev.atom, ev.positive)
                    .expect("structural evidence re-adds cleanly");
                continue;
            }
            // A label. Draw assignment first, then (for train labels)
            // the noise coin — unconditionally, so the stream layout is
            // identical across noise settings and only the flip outcomes
            // differ.
            if rng.gen_bool(train_frac.clamp(0.0, 1.0)) {
                let mut positive = ev.positive;
                if rng.gen_bool(noise.clamp(0.0, 1.0)) {
                    positive = !positive;
                    noise_flips += 1;
                }
                train
                    .add(&self.program, ev.atom, positive)
                    .expect("labels are unique per atom");
                train_labels.push(Evidence {
                    atom: ev.atom.to_ground_atom(),
                    positive,
                });
            } else {
                held_out.push(ev.to_evidence());
            }
        }
        LabelSplit {
            unlabeled,
            train,
            train_labels,
            held_out,
            noise_flips,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rc_with_labels;

    #[test]
    fn split_partitions_labels_and_keeps_structure() {
        let d = rc_with_labels(8, 5, 0.5, 3);
        let s = d.split_labels(0.6, 0.0, 11);
        let total_labels = s.train_labels.len() + s.held_out.len();
        assert!(total_labels > 0);
        assert_eq!(s.noise_flips, 0);
        // Structural evidence appears in both sets; labels partition.
        assert_eq!(s.train.len(), s.unlabeled.len() + s.train_labels.len());
        assert_eq!(d.evidence.len(), s.unlabeled.len() + total_labels);
        // No label survives in the unlabeled view.
        for ev in s.unlabeled.iter() {
            assert!(d.program.predicate(ev.atom.predicate).closed_world);
        }
        // Roughly the requested fraction lands in train.
        let frac = s.train_labels.len() as f64 / total_labels as f64;
        assert!((0.3..=0.9).contains(&frac), "train fraction {frac}");
    }

    #[test]
    fn split_is_deterministic_by_seed() {
        let d = rc_with_labels(6, 5, 0.5, 3);
        let a = d.split_labels(0.5, 0.1, 7);
        let b = d.split_labels(0.5, 0.1, 7);
        assert_eq!(a.train_labels, b.train_labels);
        assert_eq!(a.held_out, b.held_out);
        assert_eq!(a.noise_flips, b.noise_flips);
        let c = d.split_labels(0.5, 0.1, 8);
        assert!(a.train_labels != c.train_labels || a.held_out != c.held_out);
    }

    #[test]
    fn noise_flips_only_train_labels() {
        let d = rc_with_labels(8, 5, 0.6, 3);
        let clean = d.split_labels(0.5, 0.0, 9);
        let noisy = d.split_labels(0.5, 1.0, 9);
        // Same assignment stream: identical held-out sets, and every
        // train label flipped exactly once.
        assert_eq!(clean.held_out, noisy.held_out);
        assert_eq!(noisy.noise_flips, noisy.train_labels.len());
        for (c, n) in clean.train_labels.iter().zip(noisy.train_labels.iter()) {
            assert_eq!(c.atom, n.atom);
            assert_eq!(c.positive, !n.positive);
        }
    }
}
