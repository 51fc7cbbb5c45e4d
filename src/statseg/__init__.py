"""statseg: training segmentation models from summary statistics and weak masks.

A desk-scale laboratory: four loss functions (confidence, reconstruction,
summary-statistics, weak supervision), erosion-based weak-mask generation,
a small numpy encoder-decoder with exact hand-written gradients, a
synthetic ellipse benchmark, and an ablation grid runner.
"""

from .errors import (AllSlicesEmptyError, EmptyMaskError, EmptyStackError,
                     InfeasibleROIError, InvalidConfigError,
                     MalformedFileError, MissingPairError,
                     NonBinaryWeakMaskError, NonFiniteGradientError,
                     NonFiniteLossError, ShapeMismatchError, StatsegError)
from .grid import (GridShape, Image, Mask, SoftMask, centroid_pixel,
                   foreground_count, summary_stat)
from .morphology import CROSS, erode, weak_mask
from .losses import (LossReport, LossWeights, confidence_loss,
                     full_supervision_loss, reconstruction_loss, stats_loss,
                     total_loss, weak_supervision_loss)
from .model import (ForwardTrace, ModelConfig, ModelParams, forward,
                    init_params, load_checkpoint, save_checkpoint)
from .data import (Sample, SynthConfig, generate_synthetic, load_dataset,
                   load_mask_stack, save_sample, select_largest_roi_slice,
                   standard_benchmark_config, zero_contrast_benchmark_config)
from .training import (AblationConfig, OptimizerState, RunRecord,
                       default_grid, optimizer_step, run_ablation_grid, train)
from .evaluation import (DegeneracyReport, EvalReport, binarize,
                         detect_degenerate, emit_report,
                         evaluate_predictions, iou)

__version__ = "0.1.0"
