//! Evaluation-set assembly (paper Section IV-D1).
//!
//! The evaluation dataset for each model pairs the synthesized corner
//! cases (six successful transformation kinds x the seed set) with an
//! equal number of clean test images. Corner cases are further split into
//! **SCCs** (successful corner cases — the model misclassifies them) and
//! **FCCs** (failed corner cases), because the paper counts only SCCs as
//! true positives in the main tables.

use dv_imgops::TransformKind;
use dv_nn::InferencePlan;
use dv_tensor::{Tensor, Workspace};

/// One synthesized corner case.
#[derive(Debug, Clone)]
pub struct CornerCase {
    /// The transformed image.
    pub image: Tensor,
    /// Ground-truth label inherited from the seed image (semantic meaning
    /// is preserved by construction).
    pub true_label: usize,
    /// Which transformation kind produced it.
    pub kind: TransformKind,
    /// Whether the model misclassifies it (SCC) or not (FCC).
    pub successful: bool,
}

/// Clean images plus corner cases for one model.
#[derive(Debug, Clone, Default)]
pub struct EvaluationSet {
    /// Clean test images (the negatives).
    pub clean: Vec<Tensor>,
    /// All synthesized corner cases (SCCs and FCCs).
    pub corner: Vec<CornerCase>,
}

impl EvaluationSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds clean images.
    pub fn extend_clean(&mut self, images: impl IntoIterator<Item = Tensor>) {
        self.clean.extend(images);
    }

    /// Classifies transformed images of one kind through `plan`, reusing
    /// `ws` across images, and adds them with their SCC/FCC flag.
    pub fn extend_corner_with_plan(
        &mut self,
        plan: &InferencePlan,
        ws: &mut Workspace,
        kind: TransformKind,
        images: impl IntoIterator<Item = (Tensor, usize)>,
    ) {
        for (image, true_label) in images {
            let (pred, _) = plan.classify(&image, ws);
            self.corner.push(CornerCase {
                image,
                true_label,
                kind,
                successful: pred != true_label,
            });
        }
    }

    /// The successful corner cases (true positives in the main tables).
    pub fn sccs(&self) -> Vec<&CornerCase> {
        self.corner.iter().filter(|c| c.successful).collect()
    }

    /// The failed corner cases.
    pub fn fccs(&self) -> Vec<&CornerCase> {
        self.corner.iter().filter(|c| !c.successful).collect()
    }

    /// SCCs restricted to one transformation kind.
    pub fn sccs_of_kind(&self, kind: TransformKind) -> Vec<&CornerCase> {
        self.corner
            .iter()
            .filter(|c| c.successful && c.kind == kind)
            .collect()
    }

    /// The transformation kinds present in this set, in table order.
    pub fn kinds(&self) -> Vec<TransformKind> {
        TransformKind::all()
            .into_iter()
            .filter(|k| self.corner.iter().any(|c| c.kind == *k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_nn::layers::{Dense, Flatten};
    use dv_nn::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new(&[1, 2, 2]);
        net.push(Flatten::new()).push(Dense::new(&mut rng, 4, 2));
        net
    }

    #[test]
    fn extend_corner_splits_scc_fcc() {
        let mut net = tiny_net();
        let mut set = EvaluationSet::new();
        let img = Tensor::ones(&[1, 2, 2]);
        let (pred, _) = net.classify(&Tensor::stack(std::slice::from_ref(&img)));
        // One labeled with the predicted class (FCC), one with the other
        // class (SCC).
        set.extend_corner_with_plan(
            &net.plan(),
            &mut Workspace::new(),
            TransformKind::Rotation,
            vec![(img.clone(), pred), (img, 1 - pred)],
        );
        assert_eq!(set.sccs().len(), 1);
        assert_eq!(set.fccs().len(), 1);
        assert_eq!(set.sccs_of_kind(TransformKind::Rotation).len(), 1);
        assert!(set.sccs_of_kind(TransformKind::Scale).is_empty());
    }

    #[test]
    fn kinds_reports_present_kinds_in_order() {
        let plan = tiny_net().plan();
        let mut ws = Workspace::new();
        let mut set = EvaluationSet::new();
        let img = Tensor::ones(&[1, 2, 2]);
        set.extend_corner_with_plan(&plan, &mut ws, TransformKind::Scale, vec![(img.clone(), 0)]);
        set.extend_corner_with_plan(&plan, &mut ws, TransformKind::Brightness, vec![(img, 0)]);
        assert_eq!(
            set.kinds(),
            vec![TransformKind::Brightness, TransformKind::Scale]
        );
    }

    #[test]
    fn clean_images_accumulate() {
        let mut set = EvaluationSet::new();
        set.extend_clean(vec![Tensor::zeros(&[1, 2, 2]); 3]);
        assert_eq!(set.clean.len(), 3);
    }
}
