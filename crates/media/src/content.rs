//! Content profiles: how scene structure drives GOP durations.
//!
//! The paper's observation (§VI-A): "The duration of the GOPs can vary based
//! on the content of the video... constantly changing scenery [gives] very
//! short [GOPs]; a stationary scene... can be very long." A content profile
//! is the generative model of that variability — it produces the sequence of
//! GOP durations a real encoder would have emitted for such content.

use rand::rngs::StdRng;
use rand::Rng;

/// A generative model for GOP durations.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use splicecast_media::ContentProfile;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let durations = ContentProfile::paper_default().sample_gop_durations(&mut rng, 120.0);
/// let total: f64 = durations.iter().sum();
/// assert!((total - 120.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ContentProfile {
    /// Every GOP has the same duration (an encoder with a forced keyframe
    /// interval). The degenerate case where GOP splicing equals duration
    /// splicing.
    Uniform {
        /// GOP duration in seconds.
        gop_secs: f64,
    },
    /// A mixture of scene classes, each with its own GOP-duration range.
    /// Scenes are drawn i.i.d.; durations uniformly within the class range.
    Mixture {
        /// `(probability, min_secs, max_secs)` per scene class. The
        /// probabilities must sum to 1.
        classes: Vec<SceneClass>,
    },
}

/// One scene class of a [`ContentProfile::Mixture`].
///
/// A *scene* is a stretch of footage with a consistent character; the
/// encoder emits a **run** of GOPs for it. Action footage means long runs
/// of very short GOPs (a scene cut every beat forces a keyframe); static
/// footage means one long GOP per scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneClass {
    /// Probability of drawing this class for the next scene.
    pub probability: f64,
    /// Shortest GOP this class produces, in seconds.
    pub min_secs: f64,
    /// Longest GOP this class produces, in seconds.
    pub max_secs: f64,
    /// Shortest scene duration, in seconds.
    pub scene_min_secs: f64,
    /// Longest scene duration, in seconds.
    pub scene_max_secs: f64,
}

impl SceneClass {
    /// Creates a scene class whose scenes are a single GOP long.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_secs <= max_secs` and
    /// `0 <= probability <= 1`.
    pub fn new(probability: f64, min_secs: f64, max_secs: f64) -> Self {
        Self::with_scene(probability, min_secs, max_secs, min_secs, max_secs)
    }

    /// Creates a scene class that emits runs of GOPs covering a sampled
    /// scene duration.
    ///
    /// # Panics
    ///
    /// Panics unless the probability is in `[0, 1]` and both ranges are
    /// positive and ordered.
    pub fn with_scene(
        probability: f64,
        min_secs: f64,
        max_secs: f64,
        scene_min_secs: f64,
        scene_max_secs: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "bad probability {probability}"
        );
        assert!(
            min_secs > 0.0 && min_secs <= max_secs,
            "bad duration range [{min_secs}, {max_secs}]"
        );
        assert!(
            scene_min_secs > 0.0 && scene_min_secs <= scene_max_secs,
            "bad scene range [{scene_min_secs}, {scene_max_secs}]"
        );
        SceneClass {
            probability,
            min_secs,
            max_secs,
            scene_min_secs,
            scene_max_secs,
        }
    }
}

impl ContentProfile {
    /// The mixed profile used throughout the reproduction: mostly ordinary
    /// scenes, with occasional rapid action (very short GOPs) and occasional
    /// static scenes (very long GOPs) — the variability the paper blames for
    /// GOP-based splicing's stalls.
    pub fn paper_default() -> Self {
        // Mimics an x264-style encoder (scene-cut keyframes, min/max
        // keyframe interval): mostly sub-second to ~2.5 s GOPs, with
        // occasional long static-scene GOPs — so GOP-based splicing yields
        // both confetti and monsters, exactly the variability §VI-A blames.
        ContentProfile::Mixture {
            classes: vec![
                // Action sequences: sustained runs of beat-length GOPs.
                SceneClass::with_scene(0.35, 0.15, 0.6, 6.0, 14.0),
                // Ordinary footage.
                SceneClass::with_scene(0.50, 0.9, 2.5, 4.0, 10.0),
                // Static scenery / slow pans: one monster GOP per scene.
                SceneClass::with_scene(0.15, 8.0, 16.0, 8.0, 16.0),
            ],
        }
    }

    /// Samples GOP durations until `total_secs` is covered. The last GOP is
    /// truncated so the durations sum to exactly `total_secs`.
    ///
    /// # Panics
    ///
    /// Panics if `total_secs` is not positive/finite, or if a mixture's
    /// probabilities do not sum to 1 (within 1e-6).
    pub fn sample_gop_durations(&self, rng: &mut StdRng, total_secs: f64) -> Vec<f64> {
        assert!(
            total_secs.is_finite() && total_secs > 0.0,
            "bad video length {total_secs}"
        );
        const EPSILON: f64 = 1e-6;
        let mut durations = Vec::new();
        let mut covered = 0.0;
        match self {
            ContentProfile::Uniform { gop_secs } => {
                assert!(*gop_secs > 0.0, "bad uniform gop duration {gop_secs}");
                while covered + EPSILON < total_secs {
                    let next = gop_secs.min(total_secs - covered);
                    durations.push(next);
                    covered += next;
                }
            }
            ContentProfile::Mixture { classes } => {
                let total_p: f64 = classes.iter().map(|c| c.probability).sum();
                assert!(
                    (total_p - 1.0).abs() < 1e-6,
                    "mixture probabilities sum to {total_p}, expected 1"
                );
                while covered + EPSILON < total_secs {
                    let class = Self::pick_class(classes, rng);
                    let scene = rng
                        .gen_range(class.scene_min_secs..=class.scene_max_secs)
                        .min(total_secs - covered);
                    // Emit a run of GOPs covering this scene.
                    let mut scene_left = scene;
                    while scene_left > EPSILON {
                        let next = rng
                            .gen_range(class.min_secs..=class.max_secs)
                            .min(scene_left);
                        durations.push(next);
                        scene_left -= next;
                        covered += next;
                    }
                }
            }
        }
        durations
    }

    fn pick_class<'a>(classes: &'a [SceneClass], rng: &mut StdRng) -> &'a SceneClass {
        let mut draw: f64 = rng.gen();
        for class in classes {
            if draw < class.probability {
                return class;
            }
            draw -= class.probability;
        }
        // Floating-point residue: fall back to the last class.
        classes.last().expect("mixture has classes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn uniform_profile_is_exact() {
        let durations =
            ContentProfile::Uniform { gop_secs: 2.0 }.sample_gop_durations(&mut rng(), 10.0);
        assert_eq!(durations, vec![2.0; 5]);
    }

    #[test]
    fn uniform_profile_truncates_tail() {
        let durations =
            ContentProfile::Uniform { gop_secs: 4.0 }.sample_gop_durations(&mut rng(), 10.0);
        assert_eq!(durations, vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn mixture_covers_exactly() {
        let durations = ContentProfile::paper_default().sample_gop_durations(&mut rng(), 120.0);
        let total: f64 = durations.iter().sum();
        assert!((total - 120.0).abs() < 1e-9);
        assert!(durations.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn mixture_produces_both_short_and_long_gops() {
        let durations = ContentProfile::paper_default().sample_gop_durations(&mut rng(), 600.0);
        let min = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(min < 1.0, "expected some action GOPs, min {min}");
        assert!(max > 6.0, "expected some static GOPs, max {max}");
    }

    #[test]
    fn profiles_are_deterministic_per_seed() {
        let a = ContentProfile::paper_default().sample_gop_durations(&mut rng(), 60.0);
        let b = ContentProfile::paper_default().sample_gop_durations(&mut rng(), 60.0);
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_mixtures_sample_within_their_range() {
        let single = |min_secs, max_secs| ContentProfile::Mixture {
            classes: vec![SceneClass::new(1.0, min_secs, max_secs)],
        };
        for d in single(0.3, 1.5).sample_gop_durations(&mut rng(), 60.0) {
            assert!(d <= 1.5 + 1e-9);
        }
        let talking = single(5.0, 15.0).sample_gop_durations(&mut rng(), 60.0);
        // GOPs never exceed the class maximum, and the bulk are full-size
        // (only scene/video truncation produces shorter ones).
        assert!(talking.iter().all(|&d| d <= 15.0 + 1e-9));
        let full = talking.iter().filter(|&&d| d >= 5.0 - 1e-9).count();
        assert!(full * 2 >= talking.len(), "{full}/{}", talking.len());
    }

    #[test]
    fn scene_runs_emit_gop_bursts() {
        // A class with long scenes of very short GOPs must produce runs.
        let profile = ContentProfile::Mixture {
            classes: vec![SceneClass::with_scene(1.0, 0.2, 0.4, 5.0, 10.0)],
        };
        let durations = profile.sample_gop_durations(&mut rng(), 30.0);
        assert!(
            durations.len() >= 30,
            "expected many tiny GOPs, got {}",
            durations.len()
        );
        assert!(durations.iter().all(|&d| d <= 0.4 + 1e-9));
    }

    #[test]
    #[should_panic(expected = "probabilities sum")]
    fn bad_mixture_panics() {
        let p = ContentProfile::Mixture {
            classes: vec![SceneClass::new(0.4, 1.0, 2.0)],
        };
        let _ = p.sample_gop_durations(&mut rng(), 10.0);
    }

    #[test]
    #[should_panic(expected = "bad duration range")]
    fn inverted_range_panics() {
        let _ = SceneClass::new(0.5, 3.0, 2.0);
    }
}
