"""soundcue: sound-cue detection and event-synchronized animation synthesis.

Record a soundtrack of short vocalized cues ("Tick", "Pop", "Chhh"...),
detect every instance of each cue by normalized cross-correlation, and
drive procedural animation (bounces, squash, slides, steering, spawns)
from the detected event timeline.
"""

from .audio import AudioClip, load_wav, resample, save_wav
from .correlate import (
    CorrelationTrace,
    Runs,
    energy,
    find_local_maxima,
    moving_average,
    normalized_cross_correlate,
    raw_cross_correlate,
    scan_group,
    window_energy,
)
from .detect import (
    Candidate,
    Candidates,
    DetectorConfig,
    SoundPattern,
    detect,
    strength,
    suppress,
)
from .errors import (
    AnimationError,
    DetectionError,
    EmptyAudioError,
    PlanError,
    SceneError,
    SchemaError,
    SoundCueError,
    UnsupportedWavError,
    WavFormatError,
)
from .animate import (
    AnimationCurves,
    BallisticParams,
    FixedPlacement,
    LanePlacement,
    SpawnEvent,
    SquashParams,
    TailMode,
    UniformRectPlacement,
    csv_blocks,
    curves_to_csv,
    sample,
    slide_segment,
    solve_bounce,
    spawn_from_impulses,
    squash_profile,
    steer_vertical,
)
from .scene import (
    ActionSpec,
    AnimationOutput,
    BounceAction,
    ObjectSpec,
    SceneConfig,
    SlideAction,
    SpawnAction,
    SteerAction,
    animation_document,
    build_animation,
    parse_scene,
    serialize_scene,
)
from .synthgen import (
    FixturePlan,
    GroundTruth,
    PatternDef,
    PlantedInstance,
    make_pattern,
    parse_plan,
    place_instances,
    realize,
    serialize_plan,
)
from .timeline import (
    EventInstance,
    PatternKind,
    Timeline,
    Track,
    deserialize,
    merge,
    read_timeline,
    serialize,
    write_timeline,
)

__version__ = "0.1.0"
