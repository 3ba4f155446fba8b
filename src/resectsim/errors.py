"""Structured exceptions shared across the pipeline.

Every failure mode that callers are expected to handle has its own class, and
all inherit from PipelineError. A class's ``exit_code`` is the CLI's exit
code for it, and its ``prefix`` opens the CLI's one stderr line. The classes
below are grouped by exit code: 2 configuration error, 3 degenerate region
(nothing to cut or segment), 4 solver failure, 1 any other failure.
"""


class PipelineError(Exception):
    """Base class for all structured pipeline failures.

    ``stage`` names the pipeline stage a runner was in when the failure
    was raised, and stays None for failures raised outside a stage.
    """

    stage: str | None = None
    exit_code = 1
    prefix = "pipeline failure"


# exit 2
class ConfigError(PipelineError):
    """Experiment configuration is missing, malformed, or inconsistent."""

    exit_code = 2
    prefix = "config error"


# exit 3
class DegenerateRegion(PipelineError):
    """The scan leaves no region to segment, bound or cut."""

    exit_code = 3
    prefix = "degenerate region"


class EmptySurface(DegenerateRegion):
    """No A-scan produced a peak above the segmentation threshold."""


class TooFewTumorTags(DegenerateRegion):
    """Boundary construction needs at least 3 tumor-labeled tags."""


class CollinearTags(DegenerateRegion):
    """All tumor tags are collinear; no 2D boundary exists."""


class EmptyRegion(DegenerateRegion):
    """No tags fall inside the boundary polygon."""


# exit 4
class SolverFailure(PipelineError):
    """A solver found no answer: no convergence, no pose, no reach."""

    exit_code = 4
    prefix = "solver failure"


class ParallelRay(SolverFailure):
    """Ray direction is (numerically) parallel to the plane."""


class DegenerateConfiguration(SolverFailure):
    """2D-3D correspondences do not constrain a unique pose."""


class NonConvergence(SolverFailure):
    """Solver exhausted its iteration budget before meeting tolerances."""


class DegenerateAxis(SolverFailure):
    """Axis fiducials too close together to define a direction."""


class IllConditioned(SolverFailure):
    """Calibration geometry leaves parameters coupled (e.g. single-height data)."""


class Unreachable(SolverFailure):
    """IK residual stays above tolerance; carries the failing target index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# exit 1: geometry
class GridTooSmall(PipelineError):
    """Surface grid needs at least 2 rows and 2 columns."""


class EmptyCloud(PipelineError):
    """Point cloud has no points."""


# sensor simulation
class WindowOutOfDomain(PipelineError):
    """Requested scan window leaves the scene's declared domain."""


class BehindCamera(PipelineError):
    """Point is at or behind the camera plane."""


# kinematics / planning
class BadStep(PipelineError):
    """Raster point count does not produce a valid grid."""


# spectra
class EmptyBand(PipelineError):
    """Wavelength band does not overlap the spectrum grid."""


class AllZero(PipelineError):
    """Spectrum maximum is zero; cannot normalize."""


class EmptyClass(PipelineError):
    """Classifier fitting needs at least one spectrum per class."""


class DegenerateClasses(PipelineError):
    """Class band-means coincide; threshold polarity undefined."""


class ShapeMismatch(PipelineError):
    """Input vector width does not match the model."""


class SingleClassTrainingSet(PipelineError):
    """Training split must contain both classes."""


class TooFewSubjects(PipelineError):
    """Not enough subjects for the requested train:test ratio."""


class EmptyInput(PipelineError):
    """Metric computation needs nonempty input."""


# mapping
class NoRayHit(PipelineError):
    """Laser ray does not intersect the surface mesh."""


class NoVisibleSurface(PipelineError):
    """No surface point projects in front of the camera."""


class LengthMismatch(PipelineError):
    """Parallel input sequences have different lengths."""


class NoCalibration(PipelineError):
    """Operation requires a calibrated camera."""


# region metrics
class EmptyBoundary(PipelineError):
    """Boundary sample set has fewer than 3 points."""


class EmptyUnion(PipelineError):
    """Both regions rasterize to empty masks."""


class EmptyTrueRegion(PipelineError):
    """Reference region rasterizes to an empty mask."""


class RasterTooLarge(PipelineError):
    """Region comparison grid would exceed ``MAX_RASTER_CELLS`` cells."""


class DegenerateSamples(PipelineError):
    """t-test inputs too short or with zero variance."""
