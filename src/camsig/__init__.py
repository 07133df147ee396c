"""Camera-control signal toolkit.

Builds dense camera-control signals (projected point trajectories plus a
scalar motion-strength series) from depth+track inputs or from user camera
paths, extracts static/dynamic regions by iterative rigid reprojection
fitting, renders RGBD previews of camera paths, and evaluates
camera-control accuracy.
"""

__version__ = "0.1.0"

from camsig.geometry import (
    Intrinsics,
    RigidMotion,
    apply,
    compose,
    geodesic_angle,
    project,
    so3_exp,
    so3_log,
    unproject,
)
from camsig.trajfield import PixelPartition, ResidualField, TrajectoryField, residual_g
from camsig.rigidfit import FitConfig, FitResult, NumericalError, fit_rigid, fit_rigid_frames, reproj_cost_grad
from camsig.segmentation import SegmentationConfig, SegmentationResult, extract_static
from camsig.campath import CameraPath, PrimitiveSpec, generate_primitive, load_path, save_path
from camsig.signal import (
    ControlTensor,
    MotionStrengthSeries,
    build_inference_signal,
    control_tensor,
    motion_strength,
)
from camsig.preview import PreviewFrames, RgbdFrame, render_preview
from camsig.synth import DynamicObject, GroundTruth, SceneSpec, generate_scene
from camsig.metrics import msc, procrustes_2d, rot_err, trans_err
