import os
import subprocess
import sys
from pathlib import Path

import pytest

import tilecraft
from tilecraft.grid import (Alphabet, DiscreteDomain, PeriodicConfig, Vec2,
                            WindowConfig)
from tilecraft.sft import PatternSet

# 4x4 binary window with exactly five distinct 2x2 blocks
FIVE_PATTERN_ROWS = ((0, 0, 1, 1),
                     (1, 0, 0, 0),
                     (0, 0, 0, 0),
                     (0, 0, 0, 0))

# 5x5 unfolding of a 4x4 wraparound coloring containing all sixteen
# binary 2x2 blocks
DE_BRUIJN_ROWS = ((1, 1, 1, 0, 1),
                  (1, 1, 0, 1, 1),
                  (0, 1, 0, 0, 0),
                  (1, 0, 0, 0, 1),
                  (1, 1, 1, 0, 1))


def fresh_python(*args, env=(), **kwargs):
    """Run a fresh interpreter on args, with env over this environment.

    The child imports the tilecraft this process imported: the directory
    that holds it goes first on PYTHONPATH, whether that is a checkout's
    src/ or an installed package's site-packages.
    """
    home = Path(tilecraft.__file__).parent.parent
    path = filter(None, [str(home), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), **dict(env)}
    return subprocess.run([sys.executable, *args], env=env, timeout=120,
                          **kwargs)


@pytest.fixture
def checkerboard():
    return PeriodicConfig.from_periods(Vec2(1, 1), Vec2(2, 0),
                                       lambda x, y: (x + y) % 2)


@pytest.fixture
def vertical_stripes():
    # c(i, j) = i mod 2
    return PeriodicConfig.from_periods(Vec2(2, 0), Vec2(0, 1),
                                       lambda x, y: x % 2)


@pytest.fixture
def constant_zero():
    return PeriodicConfig.constant(0)


@pytest.fixture
def five_pattern_window():
    return WindowConfig.from_rows(FIVE_PATTERN_ROWS)


@pytest.fixture
def de_bruijn_window():
    return WindowConfig.from_rows(DE_BRUIJN_ROWS)


@pytest.fixture
def binary_alphabet():
    return Alphabet.of([0, 1])


@pytest.fixture
def square2():
    return DiscreteDomain.rect(2, 2)


def make_pattern_set(tuples):
    """Binary 2x2 pattern set from value tuples in canonical cell order."""
    return PatternSet.from_value_tuples(Alphabet.of([0, 1]),
                                        DiscreteDomain.rect(2, 2), tuples)


CHECKERBOARD_SET = ((0, 1, 1, 0), (1, 0, 0, 1))
LEFT0_RIGHT1_SET = ((0, 1, 0, 1),)
ALL_ZERO_SET = ((0, 0, 0, 0),)


@pytest.fixture
def checkerboard_set():
    return make_pattern_set(CHECKERBOARD_SET)


@pytest.fixture
def left0_right1_set():
    return make_pattern_set(LEFT0_RIGHT1_SET)


@pytest.fixture
def all_zero_set():
    return make_pattern_set(ALL_ZERO_SET)


@pytest.fixture
def full_shift_set(binary_alphabet, square2):
    return PatternSet.full_shift(binary_alphabet, square2)
