//! Calibrated (weighted) joint validation — the improvement the paper
//! sketches in Section IV-D3: "it can be improved via carefully assigning
//! different weights to different single validators when computing joint
//! discrepancy values, rather than adopting equal importance here."
//!
//! The calibration standardizes each layer's discrepancy against its
//! clean-data distribution (z-scoring on a held-out clean split), so a
//! layer whose raw discrepancies swing wildly on clean inputs no longer
//! drowns out a precise one.

use dv_nn::InferencePlan;
use dv_tensor::stats::{mean, std_dev};
use dv_tensor::Tensor;

use crate::report::DiscrepancyReport;
use crate::validator::DeepValidator;

/// Per-layer clean-data statistics used to weight the joint sum.
#[derive(Debug, Clone, PartialEq)]
pub struct JointCalibration {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl JointCalibration {
    /// Fits the calibration on a set of clean (held-out) images, scored
    /// through `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `clean` is empty or an image does not match the plan
    /// input.
    pub fn fit(validator: &DeepValidator, plan: &InferencePlan, clean: &[Tensor]) -> Self {
        assert!(!clean.is_empty(), "calibration needs clean images");
        let layers = validator.num_validated_layers();
        let mut per_layer: Vec<Vec<f32>> = vec![Vec::with_capacity(clean.len()); layers];
        for report in validator.discrepancies_with_plan(plan, clean) {
            for (bucket, &d) in per_layer.iter_mut().zip(&report.per_layer) {
                bucket.push(d);
            }
        }
        let means = per_layer.iter().map(|v| mean(v)).collect();
        let stds = per_layer.iter().map(|v| std_dev(v).max(1e-6)).collect();
        Self { means, stds }
    }

    /// Number of calibrated layers.
    pub fn num_layers(&self) -> usize {
        self.means.len()
    }

    /// Re-weights a raw report: each layer's discrepancy is z-scored
    /// against the clean distribution, and the joint becomes the mean of
    /// the z-scores.
    ///
    /// # Panics
    ///
    /// Panics if the report's layer count does not match the calibration.
    pub fn apply(&self, report: &DiscrepancyReport) -> DiscrepancyReport {
        assert_eq!(
            report.per_layer.len(),
            self.means.len(),
            "layer count mismatch"
        );
        let z: Vec<f32> = report
            .per_layer
            .iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&d, (&m, &s))| (d - m) / s)
            .collect();
        let joint = z.iter().sum::<f32>() / z.len() as f32;
        DiscrepancyReport {
            predicted: report.predicted,
            confidence: report.confidence,
            per_layer: z,
            joint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(per_layer: Vec<f32>) -> DiscrepancyReport {
        DiscrepancyReport::new(0, 0.9, per_layer)
    }

    fn manual_calibration(means: Vec<f32>, stds: Vec<f32>) -> JointCalibration {
        JointCalibration { means, stds }
    }

    #[test]
    fn apply_z_scores_each_layer() {
        let cal = manual_calibration(vec![1.0, -2.0], vec![0.5, 2.0]);
        let out = cal.apply(&report(vec![2.0, 0.0]));
        assert_eq!(out.per_layer, vec![2.0, 1.0]);
        assert!((out.joint - 1.5).abs() < 1e-6);
    }

    #[test]
    fn zero_deviation_layers_do_not_blow_up() {
        let cal = manual_calibration(vec![0.0], vec![1e-6]);
        let out = cal.apply(&report(vec![0.0]));
        assert!(out.joint.is_finite());
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn mismatched_layers_panic() {
        let cal = manual_calibration(vec![0.0], vec![1.0]);
        let _ = cal.apply(&report(vec![0.0, 1.0]));
    }

    #[test]
    fn calibration_preserves_prediction_metadata() {
        let cal = manual_calibration(vec![0.0, 0.0], vec![1.0, 1.0]);
        let raw = DiscrepancyReport::new(4, 0.77, vec![0.1, 0.3]);
        let out = cal.apply(&raw);
        assert_eq!(out.predicted, 4);
        assert_eq!(out.confidence, 0.77);
    }
}
