"""The gradient suite checks exactly the vjp kinds the program records."""

import numpy as np

from promptscan import gradsuite
from promptscan.config import RunConfig
from promptscan.network import build_model, desk_config
from promptscan.tensor import Tensor
from promptscan.training import erf_map, pair_from_hr, train_loop


def _program_kinds(monkeypatch, tmp_path, tape_objects):
    """The vjp kinds on every tape that a desk train step (prompts fused
    and off) and ``erf_map`` at scale 2 and 4 run backward over, read
    before the walk frees each tape."""
    kinds = set()
    backward = Tensor.backward

    def reading_backward(self):
        kinds.update(t._vjp.__qualname__ for t in tape_objects(self) if t._vjp is not None)
        backward(self)

    monkeypatch.setattr(Tensor, "backward", reading_backward)
    hr = np.random.default_rng(0).uniform(0, 255, (64, 64))
    for prompts in ("fused", "off"):
        cfg = RunConfig()
        cfg.model.prompts = prompts
        cfg.train.steps = 1
        train_loop([pair_from_hr(hr, cfg.model.scale, "a")], cfg, tmp_path / prompts)
    for scale in (2, 4):
        cfg = desk_config(scale=scale)
        erf_map(build_model(cfg), cfg, hr[:16, :16])
    return kinds


def _checked_kinds(tape_objects):
    """The vjp kinds that one instance of each gradient check records."""
    kinds = set()
    for _, make, _ in gradsuite._CHECKS:
        forward, _ = make(np.random.default_rng(17), 0)
        kinds.update(t._vjp.__qualname__ for t in tape_objects(forward()) if t._vjp is not None)
    return kinds


def test_the_gradient_suite_checks_exactly_the_vjp_kinds_the_program_records(
    monkeypatch, tmp_path, tape_objects
):
    """Every vjp the program runs is checked against finite differences,
    and no check verifies a node that the program never records."""
    program = _program_kinds(monkeypatch, tmp_path, tape_objects)
    checked = _checked_kinds(tape_objects)
    unchecked, unreached = sorted(program - checked), sorted(checked - program)
    assert (unchecked, unreached) == ([], [])
