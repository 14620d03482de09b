"""The approach-45deg sweep preset: a small automotive stereo rig, and an
object crossing at 45 degrees with 50 km/h.

stereo.preset_approach_45deg and ``sensitivity --preset`` build their
model from these values, and the ``sensitivity`` help text shows them.
They import nothing, so the CLI builds that help without loading
stereo. Pixel pitch stays caller-supplied; the metric focal length
cannot become pixels without it.
"""

PRESET_BASELINE_M = 0.15
PRESET_FOCAL_MM = 8.0
PRESET_DETECTION_ERROR_PX = 0.2
PRESET_SPEED_KMH = 50.0
PRESET_HEADING_DEG = 45.0
