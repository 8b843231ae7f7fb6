"""Exception types raised deliberately by this package.

Anything that subclasses SoundCueError is an input or validation problem
the CLI reports with exit code 2; plain ValueError/TypeError from the
library means a programming error in the caller.
"""


class SoundCueError(Exception):
    """Base class for all errors this package raises on bad input."""


class WavFormatError(SoundCueError):
    """The file is not a readable RIFF/WAVE container."""


class UnsupportedWavError(WavFormatError):
    """The WAV file uses a codec or bit depth we do not read."""


class EmptyAudioError(WavFormatError):
    """The WAV file contains no audio frames."""


class SchemaError(SoundCueError):
    """A structured document violates its schema.

    `path` locates the offending field, e.g. "tracks[0].events[2].t_end".
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)

    def __reduce__(self):
        return type(self), (self.path, self.reason)


class DetectionError(SoundCueError):
    """Detection inputs violate a precondition (rates, empty patterns...)."""


class AnimationError(SoundCueError):
    """Animation synthesis inputs violate a precondition."""


class SceneError(SoundCueError):
    """Scene configuration is inconsistent with the timeline or patterns."""


class PlanError(SoundCueError):
    """A synthetic fixture plan is infeasible (times out of range, overlaps)."""
