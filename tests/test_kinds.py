"""The kinds of gamma and of the start name their parameters once, in
``model``'s tables, and the CLI reads every kind through them."""

from __future__ import annotations

from delay_cir.cli import _KEYS, DEFAULTS, parse_config
from delay_cir.model import GAMMA_PARAMS, INITIAL_PARAMS, GammaSpec, InitialSegmentSpec

# per (section, kind): the config lines of its parameters and the spec they make
KINDS = {
    ("gamma", "constant"): ("gamma.level = 1.2", GammaSpec.constant(1.2)),
    ("gamma", "affine"): ("gamma.level = 1.2\ngamma.slope = 0.1", GammaSpec.affine(1.2, 0.1)),
    ("gamma", "sinusoid"): (
        "gamma.level = 1.2\ngamma.amplitude = 0.1\ngamma.omega = 3",
        GammaSpec.sinusoid(1.2, 0.1, 3.0),
    ),
    ("initial", "constant"): ("initial.level = 0.8", InitialSegmentSpec.constant(0.8)),
    ("initial", "lognormal"): (
        "initial.median = 0.8\ninitial.log_sd = 0.2",
        InitialSegmentSpec.lognormal(0.8, 0.2),
    ),
    ("initial", "table"): (
        "initial.points = -0.5:1; 0:0.8",
        InitialSegmentSpec.table([(-0.5, 1.0), (0.0, 0.8)]),
    ),
}


def test_every_kind_parses_through_its_parameter_table(tmp_path):
    cfg = tmp_path / "kind.cfg"
    for section, table in (("gamma", GAMMA_PARAMS), ("initial", INITIAL_PARAMS)):
        for kind, names in table.items():
            assert all(_KEYS[name] in DEFAULTS for name in names), (section, kind)
            lines, spec = KINDS[section, kind]
            cfg.write_text(f"{section}.kind = {kind}\n{lines}\n", encoding="utf-8")
            model = parse_config(str(cfg), command="validate").model
            assert getattr(model, section) == spec, (section, kind)
    assert len(KINDS) == len(GAMMA_PARAMS) + len(INITIAL_PARAMS)
