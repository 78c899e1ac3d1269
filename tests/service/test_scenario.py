"""Scenario DSL: validation, canonical digests, deterministic expansion."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cells import CellSpec
from repro.experiments.sweep import build_specs
from repro.resilience.faults import FaultModel
from repro.service.scenario import (
    SCENARIO_SCHEMA_VERSION,
    expand,
    load_scenario,
    parse_scenario,
    scenario_digest,
    scenario_from_jsonable,
)


def doc(**overrides) -> dict:
    """A minimal valid scenario document, with overrides merged on top."""
    base = {
        "scenario": "t",
        "schema": SCENARIO_SCHEMA_VERSION,
        "seed": 7,
        "grid": {"kind": ["lesk"], "n": [8], "adversary": ["random"]},
        "reps": 4,
    }
    base.update(overrides)
    return base


class TestValidationErrors:
    """Every bad document fails with a path-qualified message."""

    # (overrides, path that must appear, message fragment that must appear)
    CASES = [
        (
            {"grid": {"n": [8], "adversary": ["bogus"]}},
            "grid.adversary[0]",
            "unknown adversary 'bogus'",
        ),
        (
            {"grid": {"n": [8], "kind": ["nope"]}},
            "grid.kind[0]",
            "unknown cell kind 'nope'",
        ),
        (
            {"grid": {"n": [8], "eps": [1.5]}},
            "grid.eps[0]",
            "eps must be in (0, 1)",
        ),
        (
            {"grid": {"n": [8], "eps": [0.0]}},
            "grid.eps[0]",
            "eps must be in (0, 1)",
        ),
        ({"reps": -3}, "reps", "must be an integer >= 1, got -3"),
        ({"schema": 99}, "schema", "unsupported scenario schema 99"),
        ({"grid": {"adversary": ["random"]}}, "grid.n", "required axis is missing"),
        ({"grid": {"n": [0]}}, "grid.n[0]", "positive integer"),
        ({"seed": -1}, "seed", "[0, 2**63)"),
        ({"scenario": "bad name!"}, "scenario", "may only contain"),
        ({"frobnicate": 1}, "frobnicate", "unknown key"),
        ({"engine": {"warp": 9}}, "engine.warp", "unknown key"),
        ({"sharding": {"block_size": 0}}, "sharding.block_size", ">= 1"),
        ({"telemetry": {"stride": 0}}, "telemetry.stride", ">= 1"),
        (
            {"faults": {"crash_rate": 2.0}},
            "faults",
            "crash_rate",
        ),
        (
            {"grid": {"n": [8], "T": [16]}, "limits": {"max_cells": 0}},
            "limits.max_cells",
            ">= 1",
        ),
    ]

    @pytest.mark.parametrize(
        "overrides, path, fragment",
        CASES,
        ids=[c[1] for c in CASES],
    )
    def test_rejected_with_path(self, overrides, path, fragment):
        with pytest.raises(ConfigurationError) as err:
            scenario_from_jsonable(doc(**overrides), source="<test>")
        message = str(err.value)
        assert "<test>" in message
        assert f"{path}:" in message
        assert fragment in message

    def test_all_errors_reported_at_once(self):
        bad = doc(
            schema=9,
            seed=-1,
            reps=0,
            grid={"n": [0], "adversary": ["bogus"], "eps": [2.0]},
        )
        with pytest.raises(ConfigurationError) as err:
            scenario_from_jsonable(bad, source="<test>")
        message = str(err.value)
        for path in ("schema:", "seed:", "reps:", "grid.n[0]:",
                     "grid.adversary[0]:", "grid.eps[0]:"):
            assert path in message, f"missing {path} in:\n{message}"

    def test_grid_budget_guardrails(self):
        too_many = doc(
            grid={"n": list(range(8, 80)), "adversary": ["random"]},
            limits={"max_cells": 10},
        )
        with pytest.raises(ConfigurationError, match="exceed limits.max_cells"):
            scenario_from_jsonable(too_many)
        too_deep = doc(reps=100, limits={"max_total_reps": 50})
        with pytest.raises(ConfigurationError, match="max_total_reps"):
            scenario_from_jsonable(too_deep)

    def test_unbatchable_adversary_rejected_with_path(self, monkeypatch):
        """Every cell runs batched, so a registered strategy without a
        batched implementation fails at validation, not at run time."""
        from repro.adversary import suite
        from repro.adversary.oblivious import NoJamming

        monkeypatch.setitem(
            suite.STRATEGY_REGISTRY, "scalar-only", lambda T, eps: NoJamming()
        )
        bad = doc(grid={"n": [8], "adversary": ["random", "scalar-only"]})
        with pytest.raises(ConfigurationError) as err:
            scenario_from_jsonable(bad, source="<test>")
        assert (
            "grid.adversary[1]: adversary 'scalar-only' has no batched "
            "implementation"
        ) in str(err.value)

    def test_non_mapping_top_level(self):
        with pytest.raises(ConfigurationError, match="top level must be a mapping"):
            scenario_from_jsonable(["not", "a", "mapping"])

    def test_unparseable_text(self):
        with pytest.raises(ConfigurationError, match="not parseable"):
            parse_scenario("{unclosed: [", source="<syntax>")


class TestCanonicalDigest:
    def test_key_order_and_format_do_not_matter(self):
        a = parse_scenario(json.dumps(doc()))
        yaml_text = "\n".join(
            [
                "reps: 4",
                "seed: 7",
                "grid:",
                "  adversary: [random]",
                "  kind: [lesk]",
                "  n: [8]",
                "schema: 1",
                "scenario: t",
            ]
        )
        b = parse_scenario(yaml_text)
        assert scenario_digest(a) == scenario_digest(b)
        assert a == b

    def test_scalar_axes_normalize_to_lists(self):
        scalar = scenario_from_jsonable(
            doc(grid={"kind": "lesk", "n": 8, "adversary": "random"})
        )
        listed = scenario_from_jsonable(doc())
        assert scenario_digest(scalar) == scenario_digest(listed)

    def test_telemetry_and_limits_excluded_from_digest(self):
        plain = scenario_from_jsonable(doc())
        observed = scenario_from_jsonable(
            doc(
                telemetry={"enabled": True, "stride": 8},
                limits={"max_cells": 99},
            )
        )
        assert scenario_digest(plain) == scenario_digest(observed)

    def test_result_determining_fields_change_digest(self):
        base = scenario_from_jsonable(doc())
        for overrides in (
            {"seed": 8},
            {"reps": 5},
            {"grid": {"kind": ["lesu"], "n": [8], "adversary": ["random"]}},
            {"sharding": {"block_size": 2}},
            {"faults": {"crash_rate": 0.01}},
        ):
            other = scenario_from_jsonable(doc(**overrides))
            assert scenario_digest(other) != scenario_digest(base), overrides

    def test_normalized_document_round_trips(self):
        scenario = scenario_from_jsonable(
            doc(
                engine={"max_slots": 500},
                faults={"crash_rate": 0.01},
                telemetry={"enabled": True},
            )
        )
        again = scenario_from_jsonable(scenario.to_jsonable())
        assert again == scenario
        assert scenario_digest(again) == scenario_digest(scenario)


class TestExpand:
    def test_fixed_grid_order_and_ordinal_paths(self):
        scenario = scenario_from_jsonable(
            doc(
                path_tag=5,
                grid={
                    "kind": ["lesk", "nocd"],
                    "n": [8, 16],
                    "eps": [0.3, 0.5],
                    "T": [16],
                    "adversary": ["random", "none"],
                },
            )
        )
        specs = expand(scenario)
        assert len(specs) == scenario.cell_count == 16
        assert [s.path for s in specs] == [(5, i) for i in range(16)]
        # kind-major, then adversary, n, eps, T
        assert specs[0].kind == "lesk" and specs[8].kind == "nocd"
        assert specs[0].adversary == "random" and specs[4].adversary == "none"
        assert (specs[0].n, specs[2].n) == (8, 16)
        assert (specs[0].eps, specs[1].eps) == (0.3, 0.5)

    def test_engine_and_fault_options_reach_every_spec(self):
        scenario = scenario_from_jsonable(
            doc(
                engine={"max_slots": 700},
                faults={"crash_rate": 0.02},
            )
        )
        (spec,) = expand(scenario)
        assert spec.max_slots == 700
        assert spec.faults == FaultModel(crash_rate=0.02)

    def test_matches_sweep_build_specs_bit_for_bit(self):
        """One grid compiler: sweep CLI grids == scenario grids, exactly."""
        kinds, ns, advs = ["lesk", "estimation"], [8, 32], ["random", "none"]
        via_sweep = build_specs(kinds, ns, advs, 0.4, 8, 6, 77, 99)
        via_scenario = expand(
            scenario_from_jsonable(
                {
                    "scenario": "sweep",
                    "schema": 1,
                    "seed": 77,
                    "path_tag": 99,
                    "grid": {
                        "kind": kinds,
                        "n": ns,
                        "eps": [0.4],
                        "T": [8],
                        "adversary": advs,
                    },
                    "reps": 6,
                }
            )
        )
        assert via_sweep == via_scenario
        # and the legacy hand-rolled expansion, pinned forever:
        legacy = []
        for kind in kinds:
            for adversary in advs:
                for n in ns:
                    legacy.append(
                        CellSpec(
                            kind=kind, n=n, eps=0.4, T=8, adversary=adversary,
                            reps=6, root_seed=77, path=(99, len(legacy)),
                        )
                    )
        assert via_sweep == legacy


class TestLoadScenario:
    def test_loads_yaml_file(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("scenario: f\nschema: 1\ngrid: {n: [8]}\nreps: 2\n")
        scenario = load_scenario(path)
        assert scenario.name == "f"
        assert scenario.cell_count == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read scenario file"):
            load_scenario(tmp_path / "absent.yaml")
