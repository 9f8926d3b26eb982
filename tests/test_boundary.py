"""Fuzz test of the argument boundary: every input either works or raises
ValueError with a message, whatever JSON-like value arrives."""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oslc import cli, constellations, indoor, shaping, simulate
from oslc.indoor import RoomConfig

# The kinds of value a JSON config can hold, and the wrong kinds a caller
# can pass: null, bools, integers at and beyond the int64 and float ranges,
# non-finite floats, numeric strings, and lists and objects of these.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63) - 1, 10**400, -(10**400)]),
    st.sampled_from([0.2, 0.5, 2.5, -0.5, math.nan, math.inf, -math.inf]),
    st.sampled_from(["0.2", "1/5", "3", "nan", "24:26:1", ""]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
# A room field and its value: JSON-like, or a small positive integer, so
# that some rooms are accepted.
ROOM = st.tuples(st.sampled_from([f.name for f in fields(RoomConfig)]), JSON | st.integers(1, 3))
# One value-taking option of each subcommand, (command, key, kind), and its
# value: each example parses one config per subcommand.
OPTIONS = st.tuples(*(
    st.tuples(st.sampled_from([(command, key, kind) for key, kind, _, _ in options]), JSON)
    for command, (_, _, options) in cli._COMMANDS.items()
))
# Sizes whose solve is quick, and beta at most 3, where a design builds in
# milliseconds: beta = 8 takes seconds.
SMALL_N = st.integers(1, 24)
SMALL_BETA = JSON.filter(lambda v: not (type(v) is int and 4 <= v <= 8)) | st.integers(1, 3)


def returns_or_rejects(call, *args):
    """``call(*args)``, or None when it raises ValueError with a message."""
    try:
        return call(*args)
    except ValueError as exc:
        assert str(exc), (call, args)
        return None


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "cfg.json"


@settings(max_examples=50)
@given(
    options=OPTIONS,
    room=st.lists(ROOM, min_size=1, max_size=3),
    design=st.tuples(JSON | st.sampled_from(constellations.SCHEMES), SMALL_BETA, JSON),
    run=st.tuples(JSON, JSON | st.integers(1, 64), JSON | st.integers(1, 64), JSON),
    survey=st.tuples(JSON | st.integers(1, 4), JSON | st.integers(1, 64), JSON),
    solve=st.tuples(JSON | SMALL_N, JSON),
)
def test_every_entry_returns_or_raises_value_error(cfg_path, options, room, design, run,
                                                  survey, solve):
    for (command, key, kind), value in options:
        cfg_path.write_text(json.dumps({key: value}), encoding="utf-8")
        args = returns_or_rejects(cli._parse, [command, "--config", str(cfg_path)])
        if args is not None and kind in (int, float):
            assert type(getattr(args, key)) is kind
    overrides = dict(room)
    built = returns_or_rejects(lambda: RoomConfig(**overrides))
    if built is not None:
        assert not math.isnan(indoor.link_budget(built, (0, 0), 0.2).osnr_db), overrides
    spec = returns_or_rejects(constellations.build_spec, *design)
    if spec is not None:
        assert spec.beta <= 3 and 0 < spec.alpha < 0.5
    returns_or_rejects(simulate._check_run, *run)
    sizes = returns_or_rejects(indoor.check_survey, RoomConfig(), *survey)
    if sizes is not None:
        assert [type(v) for v in sizes] == [int, int]
    solution = returns_or_rejects(shaping.solve_t_star, *solve)
    if solution is not None:
        assert type(solution.n) is int and math.isfinite(solution.sg_db)
