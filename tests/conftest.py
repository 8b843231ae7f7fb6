import copy
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from soundcue import (
    GroundTruth,
    PatternKind,
    PlantedInstance,
    SoundPattern,
    make_pattern,
    place_instances,
    scene,
)
from soundcue import correlate

SR = 44100

# Ids that name output files (scene object ids, plan pattern ids): not
# empty, not . or .., and holding no /, \ or NUL.
file_names = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="/\\\x00"), min_size=1, max_size=6
).filter(lambda name: name not in (".", ".."))


def negative_zero_py(monkeypatch):
    """Make `scene.sample` return every table with a py column of -0.0, which no provider yields."""
    real_sample = scene.sample

    def sample_with_negative_zero_py(*args, **kwargs):
        curves = real_sample(*args, **kwargs)
        positions = curves.positions.copy()
        positions[:, 1] = -0.0
        return dataclasses.replace(curves, positions=positions)

    monkeypatch.setattr(scene, "sample", sample_with_negative_zero_py)


@pytest.fixture()
def no_process_left():
    """After the test, no child process of this one is left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def dictionary():
    """Three distinct patterns: two impulse (tonal + noise), one continuous."""
    a = make_pattern("tonal_burst", 0.12, seed=1, sample_rate_hz=SR)
    b = make_pattern("noise_burst", 0.10, seed=2, sample_rate_hz=SR)
    c = make_pattern("tonal_burst", 0.25, seed=3, sample_rate_hz=SR)
    return {
        "tick": SoundPattern("tick", a, PatternKind.IMPULSE),
        "poc": SoundPattern("poc", b, PatternKind.IMPULSE),
        "chhh": SoundPattern("chhh", c, PatternKind.CONTINUOUS),
    }


@pytest.fixture(scope="session")
def figure_plan():
    """3 ticks, 2 pocs, one 1 s chhh segment in 10 s of -30 dB noise."""
    return GroundTruth(
        duration_s=10.0,
        sample_rate_hz=SR,
        seed=7,
        noise_rms=0.03,
        planted=(
            PlantedInstance("tick", onset_s=0.5),
            PlantedInstance("poc", onset_s=1.5),
            PlantedInstance("chhh", t_begin_s=2.0, t_end_s=3.0, amplitude=0.9),
            PlantedInstance("tick", onset_s=4.0, amplitude=0.6),
            PlantedInstance("poc", onset_s=6.2, amplitude=0.8),
            PlantedInstance("tick", onset_s=8.5),
        ),
    )


@pytest.fixture(scope="session")
def figure_sequence(dictionary, figure_plan):
    clips = {pid: p.clip for pid, p in dictionary.items()}
    return place_instances(clips, figure_plan)


def reference_runs(values, threshold):
    """(first, last, peak) of each maximal run above `threshold`, by a plain loop."""
    runs, start = [], None
    for i, v in enumerate(list(values) + [-np.inf]):
        if v > threshold and start is None:
            start = i
        elif not v > threshold and start is not None:
            runs.append((start, i - 1, max(values[start:i])))
            start = None
    return runs


def reference_window_energy(s, m, m_max=None):
    """Index-array formula for the energy under each lag's m-sample window, per overlap-save block.

    Lag i lies in block b = i // step of the layout for patterns of at
    most m_max samples (default m), which starts at sample b * step; its
    energy is a difference of that block's own prefix sum of s^2, s
    zero-padded past its end: the reference for the engine's per-block sums.
    """
    n, m_max = s.size, m if m_max is None else m_max
    nfft = correlate._fft_length(n, m_max)
    step = nfft - m_max + 1
    blocks = -(-n // step)
    padded = np.concatenate((s, np.zeros(blocks * step + nfft - n)))
    squares = padded[np.arange(blocks)[:, None] * step + np.arange(nfft)] ** 2
    csum = np.concatenate((np.zeros((blocks, 1)), np.cumsum(squares, axis=1)), axis=1)
    b, t = np.divmod(np.arange(n), step)
    return csum[b, t + m] - csum[b, t]


class Recorder:
    """A `record` callback for `scan_group` and `detect`: a copy of every batch it is given, per (clip, averaged)."""

    def __init__(self):
        self.batches = {}

    def __call__(self, clip, averaged, values):
        self.batches.setdefault((clip, averaged), []).append(values.copy())

    def trace(self, clip, averaged=False):
        """The trace that the batches of (clip, averaged) make, joined in the order they came."""
        return np.concatenate(self.batches[clip, averaged])


def silent_clip(duration_s: float, sr: int = SR):
    from soundcue import AudioClip

    return AudioClip(np.zeros(int(round(duration_s * sr))), sr)


# Arbitrary JSON values, NaN, infinities and integers past float range
# included (and drawn often): `json.dumps` writes them and `json.loads`
# reads them back.
json_values = st.recursive(
    st.sampled_from([math.nan, math.inf, -math.inf, 2**1100, -0.0])
    | st.none() | st.booleans() | st.integers(-(2**1100), 2**1100) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _node_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _node_paths(child, prefix + (index,))


def mutated_json(doc, data) -> str:
    """The JSON text of `doc` with one node, drawn from `data`, replaced by an
    arbitrary JSON value, deleted (an object field) or given an unknown sibling field."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
    value = data.draw(json_values, label="value")
    if not path:
        return json.dumps(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]), label="action")
    if action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "add" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=6), label="key")] = value
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


# A key quoted the way `repr` quotes a string, as in "bindings['pop']".
_QUOTED_KEY = re.compile(r"""\[(?:'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")\]""")


def well_formed_path(path: str) -> bool:
    """No leading, trailing or doubled dot in a field path, outside its quoted keys."""
    bare = _QUOTED_KEY.sub("[]", path)
    return not (bare.startswith(".") or bare.endswith(".") or ".." in bare)
